// The paper's §VI-B validation methodology, executed for real:
//  * sufficiency — checkpoint the AutoCheck-identified set, inject a
//    fail-stop mid-loop, restart from the last checkpoint, and require the
//    final output to match a failure-free run (all 14 benchmarks);
//  * necessity — ablate one identified variable at a time and require the
//    restart to diverge (for the state-carrying variables; Outcome variables
//    whose final value is produced by the last iteration, and recomputed
//    control flags, are checkpointed for completeness but their ablation is
//    benign: the restarted run writes them again before they are read, see
//    kBenignAblation).
#include <gtest/gtest.h>

#include <set>

#include "apps/harness.hpp"
#include "support/error.hpp"

#include "helpers.hpp"

namespace ac::apps {
namespace {

class AppRestart : public testing::TestWithParam<std::string> {};

TEST_P(AppRestart, IdentifiedSetIsSufficient) {
  const App& app = find_app(GetParam());
  const auto v = validate_app(app, {}, /*fail_at=*/3,
                              validation_config(testing::TempDir(), app.name + "_restart"));
  EXPECT_TRUE(v.restart_matches)
      << "ref:\n" << v.reference_output << "\nrestart:\n" << v.restart_output;
  EXPECT_GE(v.stats.checkpoints, 2);
  EXPECT_EQ(v.recovered_iteration, 2);
}

TEST_P(AppRestart, SufficientAtLaterFailurePoint) {
  const App& app = find_app(GetParam());
  const auto v = validate_app(app, {}, /*fail_at=*/5,
                              validation_config(testing::TempDir(), app.name + "_restart"));
  EXPECT_TRUE(v.restart_matches);
  EXPECT_EQ(v.recovered_iteration, 4);
}

INSTANTIATE_TEST_SUITE_P(
    All14, AppRestart,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// Variables whose ablation is benign by construction: Outcome values
// recomputed by the final iteration, and loop flags recomputed within one
// iteration. Everything else identified must be *necessary*.
const std::set<std::string> kBenignAblation = {"final_res_norm", "done"};

class AppAblation : public testing::TestWithParam<std::string> {};

TEST_P(AppAblation, EveryStateCarryingVariableIsNecessary) {
  const App& app = find_app(GetParam());
  const AnalysisRun run = analyze_app(app);
  const auto names = run.report.critical_names();
  int ablated = 0;
  for (const auto& drop : names) {
    if (kBenignAblation.count(drop)) continue;
    std::vector<std::string> subset;
    for (const auto& n : names) {
      if (n != drop) subset.push_back(n);
    }
    const auto v =
        validate_cr(run.module, run.region, subset, /*fail_at=*/3,
                    validation_config(testing::TempDir(), app.name + "_ablate_" + drop));
    EXPECT_FALSE(v.restart_matches)
        << app.name << ": dropping '" << drop << "' should break the restart";
    ++ablated;
  }
  EXPECT_GT(ablated, 0);
}

// The ablation sweep re-runs each app O(|critical|) times; keep it to a
// representative spread (one per dependency-type mix).
INSTANTIATE_TEST_SUITE_P(Representative, AppAblation,
                         testing::Values("CG", "HPCCG", "IS", "FT", "LU", "HACC"));

TEST(Validation, EmptyProtectionBreaksStatefulRestart) {
  const App& app = find_app("HPCCG");
  const AnalysisRun run = analyze_app(app);
  // Protect only the induction variable: the CG state is lost -> divergence.
  const auto v = validate_cr(run.module, run.region, {"k"}, 3,
                             validation_config(testing::TempDir(), "hpccg_only_k"));
  EXPECT_FALSE(v.restart_matches);
}

TEST(Validation, FailureBeyondLoopThrows) {
  const App& app = find_app("CG");
  const AnalysisRun run = analyze_app(app);
  EXPECT_THROW(validate_cr(run.module, run.region, run.report.critical_names(), 9999,
                           validation_config(testing::TempDir(), "cg_nofail")),
               Error);
}

}  // namespace
}  // namespace ac::apps
