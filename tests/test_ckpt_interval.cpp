// Checkpoint-interval support (paper §II-B: checkpoints are written
// "periodically ... with a certain interval"): with the engine's
// FixedIntervalPolicy(N), restart rolls back to the last multiple-of-N
// iteration and re-executes the tail — the final output must still match.
#include <gtest/gtest.h>

#include "apps/harness.hpp"

#include "helpers.hpp"

namespace ac::apps {
namespace {

TEST(CheckpointInterval, EveryOtherIterationStillRestartsCorrectly) {
  const App& app = find_app("HPCCG");
  const AnalysisRun run = analyze_app(app);
  const auto v = validate_cr(run.module, run.region, run.report.critical_names(),
                             /*fail_at=*/6,
                             validation_config(testing::TempDir(), "hpccg_int2", /*interval=*/2));
  EXPECT_TRUE(v.restart_matches);
  // Completed iterations before failure: 1..5; checkpoints at 2 and 4.
  EXPECT_EQ(v.stats.checkpoints, 2);
  EXPECT_EQ(v.recovered_iteration, 4);
}

TEST(CheckpointInterval, LargeIntervalRollsBackFurther) {
  const App& app = find_app("MG");
  const AnalysisRun run = analyze_app(app);
  const auto v = validate_cr(run.module, run.region, run.report.critical_names(),
                             /*fail_at=*/6,
                             validation_config(testing::TempDir(), "mg_int3", /*interval=*/3));
  EXPECT_TRUE(v.restart_matches);
  EXPECT_EQ(v.recovered_iteration, 3);
}

TEST(CheckpointInterval, IntervalOneIsTheDefaultBehaviour) {
  const App& app = find_app("FT");
  const AnalysisRun run = analyze_app(app);
  // No policy: the engine's default cadence.
  ckpt::EngineConfig defaulted = validation_config(testing::TempDir(), "ft_int1a");
  defaulted.policy = nullptr;
  const auto a = validate_cr(run.module, run.region, run.report.critical_names(), 4, defaulted);
  const auto b = validate_cr(run.module, run.region, run.report.critical_names(), 4,
                             validation_config(testing::TempDir(), "ft_int1b", 1));
  EXPECT_TRUE(a.restart_matches);
  EXPECT_TRUE(b.restart_matches);
  EXPECT_EQ(a.stats.checkpoints, b.stats.checkpoints);
  EXPECT_EQ(a.recovered_iteration, 3);
}

class IntervalSweep : public testing::TestWithParam<int> {};

TEST_P(IntervalSweep, RestartMatchesAcrossIntervals) {
  const App& app = find_app("LU");
  const AnalysisRun run = analyze_app(app);
  const auto v = validate_cr(run.module, run.region, run.report.critical_names(), 5,
                             validation_config(testing::TempDir(), "lu_sweep", GetParam()));
  EXPECT_TRUE(v.restart_matches) << "interval " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Intervals, IntervalSweep, testing::Values(1, 2, 3, 4));

}  // namespace
}  // namespace ac::apps
