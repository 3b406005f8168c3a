// Job runner of the end-to-end benchmark (README.md). One process, one
// thread, one job at a time:
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1 [--out-dir DIR]
//
// The inputs of a run are kSubSeeds jobs of the workload, at sub-seeds
// derived from --seed (the first is --seed itself). --trace 0 cycles through
// them, each at least twice, until S seconds have passed, with set-up-only
// twins and yardstick runs between jobs, and reports the end-to-end metrics.
// --trace 1 cycles untraced, traced, hub-off and set-up-only runs of the
// first job and reports the per-layer split. Both check the outputs (no
// exception or AuditError, every flow complete, identical trajectory hash,
// event count and modelled outputs across repeats of a sub-seed, a
// different hash for a different seed) and print, as the last line, one
// JSON object with `correct`, `attempted`, `failed` and `metrics`. Exit
// status 0 when every check held, 1 when one failed, 2 on bad arguments.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "jobs.hpp"
#include "yardstick.hpp"

namespace pb = dynaq::perfbench;

namespace {

using Clock = std::chrono::steady_clock;

// Distinct jobs per run: the median over several inputs keeps one seed's
// unusually large or small job from setting the run's figure.
constexpr int kSubSeeds = 8;
// Sub-seed i of seed n is n + i * kSubSeedStride (mod 2^64), so runs whose
// seeds differ by less than the stride never share an input. Every 64-bit
// seed is accepted.
constexpr std::uint64_t kSubSeedStride = 1'000'000;
// Set-up-only runs after every timed job (set-up is short, so it gets
// more samples).
constexpr int kSetupRepeats = 3;
// The yardstick's median time on the reference host (yardstick.hpp). End-to-
// end times are reported at that host speed: each timed run's wall time is
// divided by the yardstick's time around it and multiplied by this, which
// cancels most of the drift a shared host's other tenants cause.
constexpr double kYardstickReferenceS = 0.1;

struct Args {
  pb::Workload workload = pb::Workload::kWebsearchStar;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
};

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "perfbench_runner: %s\n", message.c_str());
  std::fprintf(stderr,
               "usage: perfbench_runner --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out-dir DIR]\n  workloads:");
  for (const pb::Workload w : pb::kAllWorkloads) {
    std::fprintf(stderr, " %s", std::string(pb::workload_name(w)).c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text, std::uint64_t max) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (text.empty() || text[0] < '0' || text[0] > '9' || *end != '\0' || errno != 0 || v > max) {
    usage_error(flag + " needs an integer from 0 to " + std::to_string(max) + ", got '" + text +
                "'");
  }
  return v;
}

Args parse_args(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      const auto w = pb::parse_workload(value);
      if (!w) usage_error("unknown workload '" + value + "'");
      args.workload = *w;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = parse_uint(flag, value, UINT64_MAX);
      have_seed = true;
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(parse_uint(flag, value, 3600));
      if (args.seconds < 1) usage_error("--seconds must be at least 1");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace must be 0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--out-dir") {
      args.out_dir = value;
    } else {
      usage_error("unknown flag '" + flag + "'");
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    usage_error("--workload, --seed, --seconds and --trace are required");
  }
  return args;
}

std::uint64_t sub_seed(const Args& args, int i) {
  return args.seed + kSubSeedStride * static_cast<std::uint64_t>(i);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double fastest(const std::vector<double>& v) { return *std::min_element(v.begin(), v.end()); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What a run reports: the metrics of its mode (the result line) and other
// figures printed beside them (raw timings, the paper's modelled panels).
struct Report {
  std::vector<Metric> metrics;
  std::vector<Metric> other;
};

// Runs jobs and applies the output checks. The first untraced job of each
// sub-seed is its reference: every later job of that sub-seed, in any mode,
// must reproduce its event count and modelled outputs.
class JobSet {
 public:
  explicit JobSet(const Args& args) : args_(args) {}

  // Runs one job; returns nullopt (and counts a failure) if it threw or
  // broke a check.
  std::optional<pb::JobOutput> run(std::uint64_t seed, pb::JobMode mode) {
    ++attempted_;
    pb::JobOutput out;
    try {
      out = pb::run_job({args_.workload, seed, mode});
    } catch (const std::exception& e) {
      return fail(seed, mode, std::string("exception: ") + e.what());
    }
    if (const std::string why = check(seed, mode, out); !why.empty()) {
      return fail(seed, mode, why);
    }
    return out;
  }

  // The seed-sensitivity probe: a short prefix of the job at --seed and at
  // --seed + 1 must fold to different trajectory hashes.
  bool probe_seed() {
    std::uint64_t hashes[2] = {0, 0};
    for (std::uint64_t k = 0; k < 2; ++k) {
      const auto out = run(args_.seed + k, pb::JobMode::kProbe);
      if (!out) return false;
      hashes[k] = out->trajectory_hash;
    }
    if (hashes[0] != hashes[1]) return true;
    fail(args_.seed, pb::JobMode::kProbe,
         "seeds " + std::to_string(args_.seed) + " and " + std::to_string(args_.seed + 1) +
             " gave the same trajectory hash");
    return false;
  }

  const pb::JobOutput& reference(std::uint64_t seed) const { return references_.at(seed); }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  static const char* mode_name(pb::JobMode mode) {
    switch (mode) {
      case pb::JobMode::kUntraced: return "untraced";
      case pb::JobMode::kTraced: return "traced";
      case pb::JobMode::kHubOff: return "hub-off";
      case pb::JobMode::kSetupOnly: return "set-up-only";
      case pb::JobMode::kProbe: return "probe";
    }
    return "?";
  }

  std::nullopt_t fail(std::uint64_t seed, pb::JobMode mode, const std::string& why) {
    ++failed_;
    std::fprintf(stderr, "perfbench: %s seed %" PRIu64 " %s job failed: %s\n",
                 std::string(pb::workload_name(args_.workload)).c_str(), seed, mode_name(mode),
                 why.c_str());
    return std::nullopt;
  }

  static std::string mismatch(const std::string& what, double want, double got) {
    char buf[200];
    std::snprintf(buf, sizeof buf, "%s %.17g differs from the reference %.17g", what.c_str(),
                  got, want);
    return buf;
  }

  // Empty string when `out` passes every check for its mode.
  std::string check(std::uint64_t seed, pb::JobMode mode, const pb::JobOutput& out) {
    if (mode == pb::JobMode::kSetupOnly) {
      return out.events == 0 ? "" : mismatch("set-up-only event count", 0, out.events);
    }
    if (out.events == 0) return "no events simulated";
    if (mode == pb::JobMode::kProbe) return "";  // a prefix: flows are unfinished by design
    if (out.incomplete != 0) return std::to_string(out.incomplete) + " flows incomplete";
    const auto it = references_.find(seed);
    if (it == references_.end()) {
      if (mode != pb::JobMode::kUntraced) return "no untraced reference job for this seed";
      references_.emplace(seed, out);
      return "";
    }
    const pb::JobOutput& ref = it->second;
    if (out.events != ref.events) {
      return mismatch("event count", static_cast<double>(ref.events),
                      static_cast<double>(out.events));
    }
    if (out.model != ref.model) {
      for (const auto& [name, value] : ref.model) {
        const auto m = out.model.find(name);
        if (m == out.model.end() || m->second != value) {
          return mismatch(name, value, m == out.model.end() ? NAN : m->second);
        }
      }
      return "modelled outputs differ from the reference";
    }
    if (mode == pb::JobMode::kUntraced && out.trajectory_hash != ref.trajectory_hash) {
      return "trajectory hash " + std::to_string(out.trajectory_hash) +
             " differs from the reference " + std::to_string(ref.trajectory_hash);
    }
    if (mode == pb::JobMode::kTraced) {
      // The traced chain hides the auditor from the harness's ledger fold,
      // so its hash differs by design; the hub's counts must not.
      if (out.telemetry.enqueues != ref.telemetry.enqueues ||
          out.telemetry.drops_by_reason != ref.telemetry.drops_by_reason ||
          out.telemetry.threshold_exchanges != ref.telemetry.threshold_exchanges) {
        return "traced telemetry counts differ from the untraced run";
      }
      const pb::LayerSpans& s = out.spans;
      const double spanned = static_cast<double>(s.check.ns) * 1e-9;
      if (s.core.calls == 0 || s.check.calls != s.core.calls || s.check.ns < s.core.ns ||
          spanned > out.wall_s) {
        return "span totals are inconsistent (core " + std::to_string(s.core.ns) +
               " ns, check " + std::to_string(s.check.ns) + " ns, wall " +
               std::to_string(out.wall_s) + " s)";
      }
    }
    return "";
  }

  const Args& args_;
  std::map<std::uint64_t, pb::JobOutput> references_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// Repeats `cycle(i)` for i = 0, 1, ... until the run's time budget is spent
// and it ran at least `min_cycles` times; false as soon as a cycle fails.
bool repeat_for(const Args& args, Clock::time_point start, int min_cycles,
                const std::function<bool(int)>& cycle) {
  for (int i = 0; i < min_cycles || seconds_since(start) < args.seconds; ++i) {
    if (!cycle(i)) return false;
  }
  return true;
}

double queue_delay_p99_us(const dynaq::telemetry::TelemetrySummary& t) {
  double worst = 0.0;
  for (const auto& q : t.queue_delay) worst = std::max(worst, q.p99_us);
  return worst;
}

// Share of the packets arriving at the observed buffers that were dropped.
double drop_ratio(const std::vector<const pb::JobOutput*>& jobs) {
  double drops = 0.0, arrivals = 0.0;
  for (const pb::JobOutput* j : jobs) {
    drops += static_cast<double>(j->telemetry.total_drops());
    arrivals += static_cast<double>(j->telemetry.total_drops() + j->telemetry.enqueues);
  }
  return arrivals > 0 ? drops / arrivals : 0.0;
}

// The paper's panels over the run's reference jobs: Fig. 8/13's FCTs over
// every completed flow, or Fig. 12's worst-window Jain index.
std::vector<Metric> model_panels(pb::Workload w, const std::vector<const pb::JobOutput*>& jobs) {
  if (w == pb::Workload::kSaturated100g) {
    double jain_min = 1.0;
    for (const pb::JobOutput* j : jobs) jain_min = std::min(jain_min, j->model.at("jain_min"));
    return {{"jain_min", "index", jain_min}};
  }
  dynaq::stats::FctRecorder pooled;
  for (const pb::JobOutput* j : jobs) {
    for (const auto& r : j->fcts.records()) pooled.record(r);
  }
  const dynaq::stats::FctSummary s = pooled.summarize();
  return {{"fct_avg_ms", "ms", s.avg_overall_ms},
          {"fct_small_p99_ms", "ms", s.p99_small_ms},
          {"fct_large_avg_ms", "ms", s.avg_large_ms},
          {"flows", "count", static_cast<double>(s.count)}};
}

// --trace 0: end-to-end metrics with tracing off.
std::optional<Report> end_to_end(const Args& args, JobSet& jobs, Clock::time_point start) {
  std::optional<std::uint64_t> yardstick_checksum;
  std::vector<double> yardstick_walls;
  const auto yardstick = [&]() -> std::optional<double> {
    const pb::YardstickResult y = pb::run_yardstick();
    if (yardstick_checksum.value_or(y.checksum) != y.checksum) {
      std::fprintf(stderr, "perfbench: the yardstick's checksum changed between runs\n");
      return std::nullopt;
    }
    yardstick_checksum = y.checksum;
    yardstick_walls.push_back(y.wall_s);
    return y.wall_s;
  };

  // Cycles through the inputs until the time is spent, every input at least
  // twice (a repeat must reproduce the input's first job exactly), with a
  // yardstick run between jobs. Each job and set-up-only run is timed
  // against the mean of the yardstick runs just before and after it: the
  // host's speed drifts within seconds, so only a neighbouring yardstick
  // tracks it. A job's time is also scaled to the workload's expected input
  // size: the offered bytes of a seed's flows vary by 10-15 %, and the
  // job's time with them.
  std::vector<double> job_walls, job_ratios, setup_walls, setup_ratios;
  std::optional<double> before = yardstick();
  const bool ok = before && repeat_for(args, start, 2 * kSubSeeds, [&](int c) {
    const std::uint64_t seed = sub_seed(args, c % kSubSeeds);
    const auto job = jobs.run(seed, pb::JobMode::kUntraced);
    if (!job) return false;
    std::vector<double> setups;
    for (int k = 0; k < kSetupRepeats; ++k) {
      const auto setup = jobs.run(seed, pb::JobMode::kSetupOnly);
      if (!setup) return false;
      setups.push_back(setup->wall_s);
    }
    const std::optional<double> after = yardstick();
    if (!after) return false;
    const double host = 0.5 * (*before + *after);
    before = after;
    const double ratio = job->wall_s / job->size_ratio / host;
    job_walls.push_back(job->wall_s);
    job_ratios.push_back(ratio);
    std::printf("  job %2d  seed %-20" PRIu64
                " raw wall %.4f s  size %.3f  yardstick %.4f s  scaled %.4f s\n",
                c, seed, job->wall_s, job->size_ratio, host, ratio * kYardstickReferenceS);
    for (const double s : setups) {
      setup_walls.push_back(s);
      setup_ratios.push_back(s / host);
    }
    return true;
  });
  // Every job, set-up-only run and yardstick run frees what it allocates, and
  // the largest of them is a job, so the process's peak is the largest job's.
  const double peak_rss = peak_rss_mb();
  if (!ok || !jobs.probe_seed()) return std::nullopt;

  // Wall times at the reference host speed: the median over the run's timed
  // jobs of each job's scaled wall time over its yardstick time, times the
  // yardstick's time on the reference host.
  std::vector<const pb::JobOutput*> refs;
  double goodput = 0.0;
  for (int i = 0; i < kSubSeeds; ++i) {
    refs.push_back(&jobs.reference(sub_seed(args, i)));
    goodput += refs.back()->model.at("goodput_gbps") / kSubSeeds;
  }
  std::printf("%zu timed jobs over %d inputs, %zu set-up-only runs, %zu yardstick runs\n",
              job_ratios.size(), kSubSeeds, setup_walls.size(), yardstick_walls.size());
  std::vector<Metric> other = {{"job_wall_raw_s", "s", median(job_walls)},
                               {"setup_raw_s", "s", median(setup_walls)},
                               {"yardstick_s", "s", median(yardstick_walls)}};
  for (Metric& m : model_panels(args.workload, refs)) other.push_back(std::move(m));
  return Report{{{"job_wall_s", "s", median(job_ratios) * kYardstickReferenceS},
                 {"setup_s", "s", median(setup_ratios) * kYardstickReferenceS},
                 {"peak_rss_mb", "MB", peak_rss},
                 {"goodput_gbps", "Gbps", goodput},
                 {"drop_ratio", "ratio", drop_ratio(refs)}},
                std::move(other)};
}

// --trace 1: the per-layer split of the run's first job.
std::optional<Report> per_layer(const Args& args, JobSet& jobs, Clock::time_point start) {
  std::vector<double> untraced, traced, hub_off, setup;
  std::vector<pb::LayerSpans> spans;
  const std::uint64_t seed = args.seed;
  if (!jobs.run(seed, pb::JobMode::kUntraced)) return std::nullopt;  // warm-up, reference
  const bool ok = repeat_for(args, start, 2, [&](int) {
    const auto u = jobs.run(seed, pb::JobMode::kUntraced);
    const auto t = u ? jobs.run(seed, pb::JobMode::kTraced) : std::nullopt;
    const auto h = t ? jobs.run(seed, pb::JobMode::kHubOff) : std::nullopt;
    const auto s = h ? jobs.run(seed, pb::JobMode::kSetupOnly) : std::nullopt;
    if (!s) return false;
    untraced.push_back(u->wall_s);
    traced.push_back(t->wall_s);
    spans.push_back(t->spans);
    hub_off.push_back(h->wall_s);
    setup.push_back(s->wall_s);
    return true;
  });
  if (!ok || !jobs.probe_seed()) return std::nullopt;

  const pb::JobOutput& ref = jobs.reference(seed);
  // Best-of-repeats throughout, as for job_wall_s. Layer self times come
  // from the fastest traced job, so core + check + unspanned adds up to its
  // wall time exactly.
  const double untraced_wall = fastest(untraced);
  const std::size_t best = static_cast<std::size_t>(
      std::min_element(traced.begin(), traced.end()) - traced.begin());
  const double traced_wall = traced[best];
  const pb::LayerSpans& s = spans[best];
  const double core_s = static_cast<double>(s.core.ns) * 1e-9;
  const double check_s = static_cast<double>(s.check.ns - s.core.ns) * 1e-9;
  const double unspanned_s = traced_wall - core_s - check_s;
  if (unspanned_s < 0 || std::abs(core_s + check_s + unspanned_s - traced_wall) > 1e-9) {
    std::fprintf(stderr, "perfbench: layer self times do not add up to the traced wall time\n");
    return std::nullopt;
  }
  const double hub_ablation = untraced_wall - fastest(hub_off);
  const double events = static_cast<double>(ref.events);
  const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  const auto& t = ref.telemetry;
  const auto& tx = ref.senders;

  std::vector<Metric> m = {
      {"sim.events", "count", events},
      {"sim.events_per_pkt", "ratio", ratio(events, count(t.enqueues))},
      {"sim.ns_per_event", "ns", ratio(untraced_wall * 1e9, events)},
      {"core.calls", "count", count(s.core.calls)},
      {"core.self_s", "s", core_s},
      {"core.ns_per_call", "ns", ratio(core_s * 1e9, count(s.core.calls))},
      {"core.share", "ratio", ratio(core_s, traced_wall)},
      {"core.exchanges", "count", count(t.threshold_exchanges)},
      {"core.admit_ratio", "ratio", ratio(count(s.admitted), count(s.admits))},
      {"check.self_s", "s", check_s},
      {"check.ns_per_call", "ns", ratio(check_s * 1e9, count(s.check.calls))},
      {"check.share", "ratio", ratio(check_s, traced_wall)},
      {"telemetry.ablation_s", "s", hub_ablation},
      {"telemetry.share", "ratio", ratio(hub_ablation, untraced_wall)},
      {"unspanned.self_s", "s", unspanned_s},
      {"unspanned.share", "ratio", ratio(unspanned_s, traced_wall)},
      {"setup.share", "ratio", ratio(median(setup), untraced_wall)},
      {"net.enqueues", "count", count(t.enqueues)},
  };
  for (std::size_t i = 0; i < dynaq::telemetry::kNumDropReasons; ++i) {
    const auto reason = static_cast<dynaq::telemetry::DropReason>(i);
    m.push_back({"net.drops." + std::string(dynaq::telemetry::drop_reason_name(reason)),
                 "count", count(t.drops(reason))});
  }
  m.push_back({"net.queue_delay_p99_us", "us", queue_delay_p99_us(t)});
  m.push_back({"transport.data_packets", "count", count(tx.data_packets)});
  m.push_back({"transport.retx_ratio", "ratio",
               ratio(count(tx.retransmissions), count(tx.data_packets))});
  m.push_back({"transport.timeouts", "count", count(tx.timeouts)});
  m.push_back({"trace.overhead_s", "s", traced_wall - untraced_wall});
  std::printf("%zu cycles of untraced, traced, hub-off and set-up-only runs\n", untraced.size());
  return Report{std::move(m), model_panels(args.workload, {&ref})};
}

// The exact-count block of a job: counts that repeat exactly for its seed.
std::vector<std::pair<std::string, std::uint64_t>> exact_counts(const pb::JobOutput& job) {
  std::vector<std::pair<std::string, std::uint64_t>> c = {
      {"sim.events", job.events},
      {"trajectory_hash", job.trajectory_hash},
      {"net.enqueues", job.telemetry.enqueues}};
  for (std::size_t i = 0; i < dynaq::telemetry::kNumDropReasons; ++i) {
    const auto reason = static_cast<dynaq::telemetry::DropReason>(i);
    c.emplace_back("net.drops." + std::string(dynaq::telemetry::drop_reason_name(reason)),
                   job.telemetry.drops(reason));
  }
  c.emplace_back("core.exchanges", job.telemetry.threshold_exchanges);
  c.emplace_back("transport.data_packets", job.senders.data_packets);
  c.emplace_back("transport.retransmissions", job.senders.retransmissions);
  c.emplace_back("transport.timeouts", job.senders.timeouts);
  return c;
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + metrics[i].name + "\": {\"value\": " + json_number(metrics[i].value) +
         ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  return s + "}";
}

void print_report(const Args& args, const Report& report,
                  const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
  std::printf("%s metrics\n", args.trace ? "per-layer" : "end-to-end");
  for (const Metric& m : report.metrics) {
    std::printf("  %-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("other figures (not in the result line)\n");
  for (const Metric& m : report.other) {
    std::printf("  %-28s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("exact counts of seed %" PRIu64 " (repeat exactly)\n", args.seed);
  for (const auto& [name, n] : counts) {
    std::printf("  %-28s %20" PRIu64 "\n", name.c_str(), n);
  }
}

// Writes the run's report to DIR/<workload>-seed<N>-trace<0|1>.json.
void write_report(const Args& args, const Report& report,
                  const std::vector<std::pair<std::string, std::uint64_t>>& counts) {
  if (args.out_dir.empty()) return;
  const std::string path = args.out_dir + "/" + std::string(pb::workload_name(args.workload)) +
                           "-seed" + std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0") + ".json";
  std::ofstream f(path);
  f << "{\"workload\": \"" << pb::workload_name(args.workload) << "\", \"seed\": " << args.seed
    << ",\n \"metrics\": " << json_metrics(report.metrics)
    << ",\n \"other\": " << json_metrics(report.other) << ",\n \"counts\": {";
  for (std::size_t i = 0; i < counts.size(); ++i) {
    f << (i > 0 ? ", " : "") << "\"" << counts[i].first << "\": " << counts[i].second;
  }
  f << "}}\n";
  if (!f) std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const auto start = Clock::now();
  JobSet jobs(args);
  std::printf("perfbench: workload %s seed %" PRIu64 " seconds %g trace %d\n",
              std::string(pb::workload_name(args.workload)).c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  const std::optional<Report> report =
      args.trace ? per_layer(args, jobs, start) : end_to_end(args, jobs, start);
  const bool correct = report.has_value() && jobs.failed() == 0;
  if (report) {
    const auto counts = exact_counts(jobs.reference(args.seed));
    print_report(args, *report, counts);
    write_report(args, *report, counts);
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": %s}\n",
              correct ? "true" : "false", jobs.attempted(), jobs.failed(),
              json_metrics(report ? report->metrics : std::vector<Metric>{}).c_str());
  return correct ? 0 : 1;
}
