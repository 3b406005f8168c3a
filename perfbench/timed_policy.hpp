// Wall-time spans around a net::BufferPolicy, installed from outside the
// simulator through core::SchemeSpec::custom_policy_sim. The traced run
// stacks two of them per switch port:
//
//   TimedPolicy(check) -> check::AuditedBufferPolicy -> TimedPolicy(core) -> scheme policy
//
// so `core` is the time spent inside the scheme's own policy and `check` is
// the time the invariant audit adds around it (outer span minus inner span).
// Spans accumulate in memory (one Span per layer per job) and are written out
// by the runner once the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string_view>
#include <utility>
#include <vector>

#include "net/buffer_policy.hpp"

namespace dynaq::perfbench {

// Accumulated host time and call count of one layer across a job.
struct Span {
  std::int64_t ns = 0;
  std::uint64_t calls = 0;
};

// Per-job span totals and the policy-boundary counts taken at the same
// boundary as the core span.
struct LayerSpans {
  Span core;   // scheme policy calls (admit, notifications, eviction)
  Span check;  // the same calls seen from the qdisc, audit included
  std::uint64_t admits = 0;
  std::uint64_t admitted = 0;
};

// Transparent decorator: forwards every BufferPolicy virtual to `inner` and
// times the calls the qdisc makes on its data path. Introspection getters
// (thresholds, contract declarations, last_* queries) pass through untimed,
// so when this wraps the scheme policy the auditor's threshold snapshots are
// charged to the audit, not to the policy. When `counts` is set, admit()
// outcomes are counted there.
class TimedPolicy final : public net::BufferPolicy {
 public:
  TimedPolicy(std::unique_ptr<net::BufferPolicy> inner, Span& span, LayerSpans* counts = nullptr)
      : inner_(std::move(inner)), span_(span), counts_(counts) {}

  void attach(const net::MqState& state) override {
    const Stopwatch sw(span_);
    inner_->attach(state);
  }
  bool admit(const net::MqState& state, int q, const net::Packet& p) override {
    bool ok = false;
    {
      const Stopwatch sw(span_);
      ok = inner_->admit(state, q, p);
    }
    if (counts_ != nullptr) {
      ++counts_->admits;
      if (ok) ++counts_->admitted;
    }
    return ok;
  }
  void on_admit_aborted(const net::MqState& state, int q, const net::Packet& p) override {
    const Stopwatch sw(span_);
    inner_->on_admit_aborted(state, q, p);
  }
  int evict_candidate(const net::MqState& state, int q, const net::Packet& p) override {
    const Stopwatch sw(span_);
    return inner_->evict_candidate(state, q, p);
  }
  void on_buffer_resize(const net::MqState& state) override {
    const Stopwatch sw(span_);
    inner_->on_buffer_resize(state);
  }
  void on_weights_changed(const net::MqState& state) override {
    const Stopwatch sw(span_);
    inner_->on_weights_changed(state);
  }
  void on_enqueue(const net::MqState& state, int q, const net::Packet& p) override {
    const Stopwatch sw(span_);
    inner_->on_enqueue(state, q, p);
  }
  void on_dequeue(const net::MqState& state, int q, const net::Packet& p) override {
    const Stopwatch sw(span_);
    inner_->on_dequeue(state, q, p);
  }

  std::vector<std::int64_t> thresholds() const override { return inner_->thresholds(); }
  bool conserves_threshold_sum() const override { return inner_->conserves_threshold_sum(); }
  bool enforces_thresholds() const override { return inner_->enforces_thresholds(); }
  Time threshold_staleness_bound() const override { return inner_->threshold_staleness_bound(); }
  telemetry::DropReason last_drop_reason() const override { return inner_->last_drop_reason(); }
  int last_exchange_victim() const override { return inner_->last_exchange_victim(); }
  void attach_telemetry(telemetry::Hub& hub, int tel_port) override {
    inner_->attach_telemetry(hub, tel_port);
  }
  std::string_view name() const override { return inner_->name(); }

 private:
  class Stopwatch {
   public:
    explicit Stopwatch(Span& span) : span_(span), start_(std::chrono::steady_clock::now()) {}
    ~Stopwatch() {
      span_.ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start_)
                      .count();
      ++span_.calls;
    }
    Stopwatch(const Stopwatch&) = delete;
    Stopwatch& operator=(const Stopwatch&) = delete;

   private:
    Span& span_;
    std::chrono::steady_clock::time_point start_;
  };

  std::unique_ptr<net::BufferPolicy> inner_;
  Span& span_;
  LayerSpans* counts_;
};

}  // namespace dynaq::perfbench
