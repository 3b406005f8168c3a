#include "jobs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <vector>

#include "check/invariant_auditor.hpp"
#include "core/scheme.hpp"
#include "harness/dynamic_experiment.hpp"
#include "harness/static_experiment.hpp"
#include "stats/fairness.hpp"
#include "workload/flow_size_distribution.hpp"

namespace dynaq::perfbench {
namespace {

// Job sizes at scale 1. Each is one fixed input run to completion. The FCT
// jobs are kept to 1-2 s so that a run times many of them: the host's speed
// drifts from one second to the next, and only many samples average it out.
constexpr std::size_t kStarFlows = 750;      // half the fig08 bench default
constexpr int kLeafSpineRadix = 4;           // leaves = spines = hosts per leaf
constexpr std::size_t kLeafSpineFlows = 300;
constexpr double kSaturatedMs = 300.0;       // simulated duration of the static job

using Clock = std::chrono::steady_clock;

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(n * scale)));
}

// Installs the traced policy chain on every switch port of `scheme`:
// TimedPolicy(check) -> AuditedBufferPolicy -> TimedPolicy(core) -> scheme.
// The chain carries its own audit, so the scheme's is turned off here and the
// harness's by apply_mode().
void install_spans(core::SchemeSpec& scheme, LayerSpans& spans) {
  const core::SchemeSpec base = scheme;
  scheme.audit = false;
  scheme.custom_policy_sim = [base, &spans](sim::Simulator& sim) {
    auto timed_core =
        std::make_unique<TimedPolicy>(core::make_policy(base), spans.core, &spans);
    auto audited = std::make_unique<check::AuditedBufferPolicy>(std::move(timed_core), &sim,
                                                                base.audit_options);
    return std::unique_ptr<net::BufferPolicy>(
        std::make_unique<TimedPolicy>(std::move(audited), spans.check));
  };
}

// Applies the mode's instrumentation switches to a harness config (the
// static and dynamic configs share these field names).
template <typename Config>
void apply_mode(Config& cfg, core::SchemeSpec& scheme, JobMode mode, LayerSpans& spans) {
  if (mode == JobMode::kTraced) {
    cfg.audit_invariants = false;
    install_spans(scheme, spans);
  }
  if (mode == JobMode::kHubOff) {
    cfg.collect_telemetry = false;
    cfg.fingerprint_trajectory = false;
  }
}

template <typename Fn>
auto timed(double& wall_s, Fn&& fn) {
  const auto start = Clock::now();
  auto result = fn();
  wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

// Fig. 8/13's panels and the delivered goodput (payload bytes over the span
// from the first arrival to the last completion) of a dynamic-flow job whose
// flows are drawn from `dist`.
void take_dynamic(harness::DynamicExperimentResult&& r, std::size_t num_flows,
                  const workload::FlowSizeDistribution& dist, JobOutput& out) {
  out.events = r.events;
  out.trajectory_hash = r.trajectory_hash;
  out.incomplete = r.incomplete;
  out.telemetry = std::move(r.telemetry);

  const stats::FctSummary s = r.fcts.summarize();
  out.model["fct_avg_ms"] = s.avg_overall_ms;
  out.model["fct_small_p99_ms"] = s.p99_small_ms;
  out.model["fct_large_avg_ms"] = s.avg_large_ms;
  const std::vector<stats::FlowRecord>& flows = r.fcts.records();
  double bytes = 0.0;
  Time first = flows.empty() ? 0 : flows.front().start;
  Time last = 0;
  for (const stats::FlowRecord& f : flows) {
    bytes += static_cast<double>(f.size_bytes);
    first = std::min(first, f.start);
    last = std::max(last, f.finish);
  }
  out.model["goodput_gbps"] = last > first ? bytes * 8.0 / to_seconds(last - first) / 1e9 : 0.0;
  out.fcts = std::move(r.fcts);
  if (out.incomplete == 0 && bytes > 0) {
    out.size_ratio = bytes / (static_cast<double>(num_flows) * dist.mean_bytes());
  }
}

// fig08: 5-host 1 Gbps star (the testbed's 85 KB port buffer, ~500 us base
// RTT), SPQ(1)/DRR(4), DynaQ, web-search sizes, NewReno, PIAS at 100 KB.
void run_websearch_star(const JobSpec& spec, JobOutput& out) {
  harness::DynamicStarConfig cfg;
  cfg.star.num_hosts = 5;
  cfg.star.link_rate_bps = 1e9;
  cfg.star.link_delay = microseconds(std::int64_t{125});
  cfg.star.buffer_bytes = 85'000;
  cfg.star.queue_weights = {1, 1, 1, 1, 1};
  cfg.star.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.star.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.star.quantum_base = 1500;
  cfg.client_host = 0;
  cfg.num_servers = 4;
  cfg.num_flows = scaled(kStarFlows, spec.scale);
  cfg.load = 0.5;
  cfg.dist = &workload::web_search_workload();
  cfg.cc = transport::CcKind::kNewReno;
  cfg.pias = true;
  cfg.pias_threshold_bytes = 100'000;
  cfg.first_service_queue = 1;
  cfg.seed = spec.seed;
  if (spec.mode == JobMode::kSetupOnly) cfg.max_sim_time = 0;
  if (spec.mode == JobMode::kProbe) cfg.max_sim_time = milliseconds(std::int64_t{200});
  apply_mode(cfg, cfg.star.scheme, spec.mode, out.spans);
  take_dynamic(timed(out.wall_s, [&] { return harness::run_dynamic_star_experiment(cfg); }),
               cfg.num_flows, *cfg.dist, out);
}

// fig13's fabric: leaf-spine at 10 Gbps, SPQ(1)/DRR(7), DynaQ, ECMP, PIAS
// at 100 KB, all-to-all Poisson arrivals. One service with web-search sizes
// instead of fig13's seven services cycling the four production CDFs: the
// data-mining CDF's ~1 GB tail makes the job's size vary tenfold between
// seeds, which no run-to-run bound could hold.
void run_leafspine_websearch(const JobSpec& spec, JobOutput& out) {
  harness::DynamicLeafSpineConfig cfg;
  cfg.fabric.num_leaves = kLeafSpineRadix;
  cfg.fabric.num_spines = kLeafSpineRadix;
  cfg.fabric.hosts_per_leaf = kLeafSpineRadix;
  cfg.fabric.queue_weights.assign(8, 1.0);
  cfg.fabric.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.fabric.scheduler = topo::SchedulerKind::kSpqOverDrr;
  cfg.num_flows = scaled(kLeafSpineFlows, spec.scale);
  cfg.load = 0.5;
  cfg.num_services = 1;
  cfg.seed = spec.seed;
  if (spec.mode == JobMode::kSetupOnly) cfg.max_sim_time = 0;
  if (spec.mode == JobMode::kProbe) cfg.max_sim_time = milliseconds(std::int64_t{5});
  apply_mode(cfg, cfg.fabric.scheme, spec.mode, out.spans);
  // One service draws from the first production CDF, web search.
  take_dynamic(
      timed(out.wall_s, [&] { return harness::run_dynamic_leaf_spine_experiment(cfg); }),
      cfg.num_flows, *workload::all_workloads()[0], out);
}

// fig12: 100 Gbps star with the 1 MB Trident 3 port buffer, jumbo MSS,
// 8 equal-weight WRR queues where queue i is fed by 2^(4+i) single-flow
// sender hosts (16..2048, 4080 flows), all active for the whole run.
void run_saturated_100g(const JobSpec& spec, JobOutput& out) {
  constexpr int kQueues = 8;
  harness::StaticExperimentConfig cfg;
  cfg.star.link_rate_bps = 100e9;
  cfg.star.link_delay = microseconds(std::int64_t{10});
  cfg.star.buffer_bytes = 1'000'000;
  cfg.star.queue_weights.assign(kQueues, 1.0);
  cfg.star.scheme.kind = core::SchemeKind::kDynaQ;
  cfg.star.scheduler = topo::SchedulerKind::kWrr;
  cfg.star.quantum_base = 9000;
  cfg.star.host_queue_bytes = 4'000'000;
  int next_host = 1;
  for (int q = 0; q < kQueues; ++q) {
    const int senders = 1 << (4 + q);
    cfg.groups.push_back({.queue = q,
                          .num_flows = senders,
                          .first_src_host = next_host,
                          .num_src_hosts = senders,
                          .cc = transport::CcKind::kNewReno});
    next_host += senders;
  }
  cfg.star.num_hosts = next_host;
  cfg.duration = milliseconds(kSaturatedMs * spec.scale);
  cfg.meter_window = milliseconds(std::int64_t{10});
  cfg.start_jitter = milliseconds(std::int64_t{1});
  cfg.mss = net::kJumboMss;
  cfg.rto_min = milliseconds(std::int64_t{5});
  cfg.seed = spec.seed;
  if (spec.mode == JobMode::kSetupOnly) cfg.duration = 0;
  if (spec.mode == JobMode::kProbe) cfg.duration = milliseconds(std::int64_t{2});
  apply_mode(cfg, cfg.star.scheme, spec.mode, out.spans);

  const harness::StaticExperimentResult r =
      timed(out.wall_s, [&] { return harness::run_static_experiment(cfg); });
  out.events = r.events;
  out.trajectory_hash = r.trajectory_hash;
  out.telemetry = r.telemetry;
  out.senders = r.sender_totals;

  // Fig. 12's isolation claim over the complete 10 ms windows: Jain's index
  // across the 8 queues (worst window) and the mean aggregate throughput.
  double sum_gbps = 0.0;
  double jain_min = 1.0;
  const std::size_t windows =
      std::min(r.meter.num_windows(), static_cast<std::size_t>(cfg.duration / cfg.meter_window));
  for (std::size_t w = 0; w < windows; ++w) {
    const std::vector<double> per_queue = r.meter.window_gbps(w);
    const double jain = stats::jain_index(per_queue);
    jain_min = std::min(jain_min, jain);
    sum_gbps += r.meter.aggregate_gbps(w);
  }
  const double n = windows > 0 ? static_cast<double>(windows) : 1.0;
  out.model["goodput_gbps"] = sum_gbps / n;
  out.model["jain_min"] = windows > 0 ? jain_min : 0.0;
}

}  // namespace

std::string_view workload_name(Workload w) {
  switch (w) {
    case Workload::kWebsearchStar: return "websearch_star";
    case Workload::kLeafspineWebsearch: return "leafspine_websearch";
    case Workload::kSaturated100g: return "saturated_100g";
  }
  return "unknown";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : kAllWorkloads) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

JobOutput run_job(const JobSpec& spec) {
  JobOutput out;
  switch (spec.workload) {
    case Workload::kWebsearchStar: run_websearch_star(spec, out); break;
    case Workload::kLeafspineWebsearch: run_leafspine_websearch(spec, out); break;
    case Workload::kSaturated100g: run_saturated_100g(spec, out); break;
  }
  return out;
}

}  // namespace dynaq::perfbench
