// The benchmark's own tests: the traced policy chain is transparent, the
// set-up-only mode simulates nothing, seeds steer the inputs, and the
// yardstick repeats its work exactly.
#include <gtest/gtest.h>

#include <cstdint>

#include "jobs.hpp"
#include "yardstick.hpp"

namespace dynaq::perfbench {
namespace {

// Short jobs: a fifth of the benchmark size is enough to exercise every
// layer (thousands of qdisc operations, exchanges and drops).
constexpr double kShort = 0.2;

JobOutput run(Workload w, JobMode mode, std::uint64_t seed = 1) {
  return run_job({w, seed, mode, kShort});
}

class PerWorkload : public ::testing::TestWithParam<Workload> {};

TEST_P(PerWorkload, TracedChainIsTransparent) {
  const JobOutput bare = run(GetParam(), JobMode::kUntraced);
  const JobOutput traced = run(GetParam(), JobMode::kTraced);
  ASSERT_GT(bare.events, 0u);
  EXPECT_EQ(traced.events, bare.events);
  EXPECT_EQ(traced.model, bare.model);
  EXPECT_EQ(traced.incomplete, 0u);
  EXPECT_EQ(traced.telemetry.enqueues, bare.telemetry.enqueues);
  EXPECT_EQ(traced.telemetry.drops_by_reason, bare.telemetry.drops_by_reason);
  EXPECT_EQ(traced.telemetry.threshold_exchanges, bare.telemetry.threshold_exchanges);
  // Both spans saw every data-path call, and the outer one encloses the inner.
  EXPECT_GT(traced.spans.core.calls, 0u);
  EXPECT_EQ(traced.spans.check.calls, traced.spans.core.calls);
  EXPECT_GE(traced.spans.check.ns, traced.spans.core.ns);
  EXPECT_GT(traced.spans.admits, 0u);
  EXPECT_LE(traced.spans.admitted, traced.spans.admits);
  EXPECT_LE(static_cast<double>(traced.spans.check.ns) * 1e-9, traced.wall_s);
}

TEST_P(PerWorkload, HubOffKeepsTheTrajectory) {
  const JobOutput bare = run(GetParam(), JobMode::kUntraced);
  const JobOutput hub_off = run(GetParam(), JobMode::kHubOff);
  EXPECT_EQ(hub_off.events, bare.events);
  EXPECT_EQ(hub_off.model, bare.model);
  EXPECT_EQ(hub_off.trajectory_hash, 0u);
  EXPECT_NE(bare.trajectory_hash, 0u);
}

TEST_P(PerWorkload, SetupOnlySimulatesNothing) {
  const JobOutput setup = run(GetParam(), JobMode::kSetupOnly);
  EXPECT_EQ(setup.events, 0u);
  EXPECT_EQ(setup.telemetry.enqueues, 0u);
  EXPECT_GT(setup.wall_s, 0.0);
}

TEST_P(PerWorkload, SameSeedRepeatsExactly) {
  const JobOutput a = run(GetParam(), JobMode::kUntraced, 7);
  const JobOutput b = run(GetParam(), JobMode::kUntraced, 7);
  EXPECT_EQ(a.trajectory_hash, b.trajectory_hash);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.model, b.model);
  // The size ratio is the input's, so it repeats too.
  EXPECT_EQ(a.size_ratio, b.size_ratio);
  EXPECT_GT(a.size_ratio, 0.0);
  if (GetParam() == Workload::kSaturated100g) {
    EXPECT_EQ(a.size_ratio, 1.0);
  }
}

TEST_P(PerWorkload, SeedChangesTheInputs) {
  const JobOutput a = run(GetParam(), JobMode::kProbe, 7);
  const JobOutput b = run(GetParam(), JobMode::kProbe, 8);
  ASSERT_GT(a.events, 0u);
  EXPECT_NE(a.trajectory_hash, b.trajectory_hash);
}

// Any 64-bit seed is an input; the runner's sub-seeds wrap around 2^64.
TEST_P(PerWorkload, LargeSeedsWork) {
  const JobOutput a = run(GetParam(), JobMode::kProbe, UINT64_MAX);
  const JobOutput b = run(GetParam(), JobMode::kProbe, 0);
  ASSERT_GT(a.events, 0u);
  EXPECT_NE(a.trajectory_hash, b.trajectory_hash);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload, ::testing::ValuesIn(kAllWorkloads),
                         [](const ::testing::TestParamInfo<Workload>& info) {
                           return std::string(workload_name(info.param));
                         });

TEST(Yardstick, DoesTheSameWorkEveryTime) {
  const YardstickResult a = run_yardstick();
  const YardstickResult b = run_yardstick();
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_GT(a.wall_s, 0.0);
}

TEST(Workloads, NamesRoundTrip) {
  for (const Workload w : kAllWorkloads) EXPECT_EQ(parse_workload(workload_name(w)), w);
  EXPECT_FALSE(parse_workload("websearch"));
  EXPECT_FALSE(parse_workload(""));
}

}  // namespace
}  // namespace dynaq::perfbench
