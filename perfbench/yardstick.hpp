// Host-speed yardstick: a small, fixed discrete-event workload built only
// from the standard library (a binary-heap event queue of std::function
// closures, FIFO port queues, per-flow state), so it never changes when the
// simulator does. Timed between the benchmark's jobs, it tracks how fast the
// shared host is running at that moment.
#pragma once

#include <cstdint>

namespace dynaq::perfbench {

struct YardstickResult {
  double wall_s = 0.0;
  std::uint64_t checksum = 0;  // the same on every call
};

YardstickResult run_yardstick();

}  // namespace dynaq::perfbench
