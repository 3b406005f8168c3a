#include "yardstick.hpp"

#include <chrono>
#include <deque>
#include <functional>
#include <memory>
#include <queue>
#include <vector>

namespace dynaq::perfbench {
namespace {

// Small enough (~1 MB) that the yardstick never sets the process's peak
// memory, which the benchmark reports for the jobs around it.
constexpr int kPorts = 64;
constexpr int kFlowSlots = 256;    // per port
constexpr int kPackets = 1024;     // in flight at any time
constexpr std::uint64_t kHops = 150'000;

struct Packet {
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
  std::uint64_t size = 0;
  std::uint64_t pad[9] = {};  // a simulator packet is ~96 bytes
};

struct Port {
  std::deque<Packet> queue;
  std::uint64_t bytes = 0;
  std::vector<std::uint64_t> flows = std::vector<std::uint64_t>(kFlowSlots);
};

struct Event {
  std::uint64_t when = 0;
  std::uint64_t seq = 0;
  std::function<void()> fn;
  bool operator>(const Event& o) const { return when != o.when ? when > o.when : seq > o.seq; }
};

class Yardstick {
 public:
  Yardstick() {
    for (int p = 0; p < kPorts; ++p) ports_.push_back(std::make_unique<Port>());
    for (int i = 0; i < kPackets; ++i) arrive(static_cast<int>(next() % kPorts), {next(), 0, 1500});
  }

  std::uint64_t run() {
    while (!events_.empty() && hops_ < kHops) {
      Event e = events_.top();
      events_.pop();
      now_ = e.when;
      e.fn();
    }
    std::uint64_t sum = hops_;
    for (const auto& port : ports_) {
      for (const std::uint64_t f : port->flows) sum = sum * 31 + f;
    }
    return sum;
  }

 private:
  std::uint64_t next() {  // xorshift64
    rng_ ^= rng_ << 13;
    rng_ ^= rng_ >> 7;
    rng_ ^= rng_ << 17;
    return rng_;
  }

  void schedule(std::uint64_t delay, std::function<void()> fn) {
    events_.push({now_ + delay, seq_++, std::move(fn)});
  }

  void arrive(int p, const Packet& pkt) {
    Port& port = *ports_[static_cast<std::size_t>(p)];
    port.queue.push_back(pkt);
    port.bytes += pkt.size;
    if (port.queue.size() == 1) schedule(12, [this, p] { transmit(p); });
  }

  // Sends the head packet of port `p` on to a random port.
  void transmit(int p) {
    Port& port = *ports_[static_cast<std::size_t>(p)];
    Packet pkt = port.queue.front();
    port.queue.pop_front();
    port.bytes -= pkt.size;
    port.flows[pkt.flow % kFlowSlots] += pkt.seq;
    ++hops_;
    ++pkt.seq;
    const int to = static_cast<int>(next() % kPorts);
    schedule(50 + next() % 200, [this, to, pkt] { arrive(to, pkt); });
    if (!port.queue.empty()) schedule(12, [this, p] { transmit(p); });
  }

  std::vector<std::unique_ptr<Port>> ports_;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t hops_ = 0;
  std::uint64_t rng_ = 88172645463325252ULL;
};

}  // namespace

YardstickResult run_yardstick() {
  const auto start = std::chrono::steady_clock::now();
  Yardstick y;
  const std::uint64_t checksum = y.run();
  return {std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
          checksum};
}

}  // namespace dynaq::perfbench
