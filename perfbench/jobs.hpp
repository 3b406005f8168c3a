// The benchmark's workloads: one paper-scale simulator job each, run by
// calling the harness entry points directly, one job at a time on the
// calling thread. See README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>

#include "stats/fct_recorder.hpp"
#include "telemetry/summary.hpp"
#include "timed_policy.hpp"
#include "transport/flow_sender.hpp"

namespace dynaq::perfbench {

enum class Workload {
  kWebsearchStar,       // fig08-shaped: flow churn on a 5-host 1 Gbps star
  kLeafspineWebsearch,  // fig13-shaped: per-hop dispatch across a leaf-spine fabric
  kSaturated100g,       // fig12-shaped: a permanently full 100 Gbps shared buffer
};

inline constexpr Workload kAllWorkloads[] = {Workload::kWebsearchStar,
                                             Workload::kLeafspineWebsearch,
                                             Workload::kSaturated100g};

std::string_view workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

// How a job is run. Every mode simulates the same configuration; only the
// instrumentation around it differs.
enum class JobMode {
  kUntraced,   // harness defaults: audit, telemetry and fingerprint all on
  kTraced,     // audit rebuilt from the benchmark with timed policy spans
  kHubOff,     // no telemetry hub (collection and fingerprint off), audit on
  kSetupOnly,  // builds topology and installs every flow, simulates nothing
  kProbe,      // a short prefix of the job, for the seed-sensitivity check
};

struct JobSpec {
  Workload workload = Workload::kWebsearchStar;
  std::uint64_t seed = 1;
  JobMode mode = JobMode::kUntraced;
  // Shrinks the job (flow count, or simulated duration for the static
  // workload) for the benchmark's own tests; 1 is the benchmark size.
  double scale = 1.0;
};

struct JobOutput {
  double wall_s = 0.0;  // host time of the harness call
  std::uint64_t events = 0;
  std::uint64_t trajectory_hash = 0;  // 0 when the hub is off
  std::size_t incomplete = 0;         // flows unfinished at the end (FCT workloads)
  // The job's offered bytes over the expected offered bytes of a job of the
  // workload (flows x the CDF's mean size); 1 for the static workload and
  // for jobs with unfinished flows.
  double size_ratio = 1.0;
  telemetry::TelemetrySummary telemetry;  // empty when the hub is off
  transport::SenderStats senders;         // summed over senders (saturated_100g only)
  // Modelled outputs in simulated units, deterministic per seed.
  std::map<std::string, double> model;
  stats::FctRecorder fcts;  // per-flow completions (FCT workloads)
  LayerSpans spans;  // filled in kTraced mode only
};

// Runs one job to completion. Exceptions from the simulator (including
// check::AuditError) propagate to the caller.
JobOutput run_job(const JobSpec& spec);

}  // namespace dynaq::perfbench
