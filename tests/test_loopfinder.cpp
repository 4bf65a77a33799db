// Loop suggestion (§VII extension): the heaviest loop in the trace should be
// the main computation loop, with usable --begin/--end estimates.
#include <gtest/gtest.h>

#include "analysis/loopfinder.hpp"
#include "analysis/session.hpp"
#include "apps/harness.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

TEST(LoopFinder, MainLoopRanksFirstOnFig4) {
  auto run = test::run_pipeline(test::fig4_source());
  const auto region = find_mcl_region(test::fig4_source());
  const auto candidates = suggest_loops(run.trace);
  ASSERT_FALSE(candidates.empty());
  // The top candidate is the marked main loop: same header line, same host.
  EXPECT_EQ(candidates[0].function, "main");
  EXPECT_EQ(candidates[0].header_line, region.begin_line);
  EXPECT_GE(candidates[0].end_line, region.end_line - 1);
  EXPECT_EQ(candidates[0].evaluations, 11);  // 10 entries + exit
  EXPECT_GT(candidates[0].coverage, 0.5);
}

TEST(LoopFinder, InitLoopRanksBelowMainLoop) {
  auto run = test::run_pipeline(test::fig4_source());
  const auto candidates = suggest_loops(run.trace, 0);
  // The Part-A init loop over a/b exists as a candidate but with a smaller
  // span than the main loop.
  bool found_init = false;
  for (std::size_t i = 1; i < candidates.size(); ++i) {
    if (candidates[i].function == "main" &&
        candidates[i].header_line < candidates[0].header_line) {
      found_init = true;
      EXPECT_LT(candidates[i].span, candidates[0].span);
    }
  }
  EXPECT_TRUE(found_init);
}

TEST(LoopFinder, IfStatementsAreNotLoops) {
  const std::string src = R"(
int main() {
  int s = 0;
  if (s == 0) { s = 1; }
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    s = s + it;
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = test::run_pipeline(src);
  const auto candidates = suggest_loops(run.trace, 0);
  const auto region = find_mcl_region(src);
  for (const auto& c : candidates) {
    // line 4 hosts the `if`: evaluated once, so it must not appear.
    EXPECT_NE(c.header_line, 4);
  }
  ASSERT_FALSE(candidates.empty());
  EXPECT_EQ(candidates[0].header_line, region.begin_line);
}

TEST(LoopFinder, SuggestionFeedsAnalysisDirectly) {
  // End-to-end: feed the #1 suggestion back into AutoCheck and get the same
  // verdict as with the marker-derived region.
  auto run = test::run_pipeline(test::fig4_source());
  const auto candidates = suggest_loops(run.trace, 1);
  ASSERT_EQ(candidates.size(), 1u);
  MclRegion region;
  region.function = candidates[0].function;
  region.begin_line = candidates[0].header_line;
  region.end_line = candidates[0].end_line;
  const Report report = Session().buffer(std::move(run.trace)).region(region).run();
  EXPECT_EQ(test::critical_map(report), test::critical_map(run.report));
}

TEST(LoopFinder, TopCandidateMatchesMarkedLoopOnApps) {
  for (const char* name : {"CG", "Himeno", "IS", "AMG"}) {
    const apps::App& app = apps::find_app(name);
    const apps::AnalysisRun run = apps::analyze_app(app);
    trace::BufferSink sink;
    vm::RunOptions ropts;
    ropts.sink = &sink;
    vm::run_module(run.module, ropts);
    const auto candidates = suggest_loops(sink.buffer(), 3);
    ASSERT_FALSE(candidates.empty()) << name;
    EXPECT_EQ(candidates[0].function, "main") << name;
    EXPECT_EQ(candidates[0].header_line, run.region.begin_line) << name;
  }
}

TEST(LoopFinder, RenderListsCliFlags) {
  LoopCandidate c;
  c.function = "main";
  c.header_line = 10;
  c.end_line = 20;
  c.evaluations = 7;
  c.span = 1000;
  c.coverage = 0.8;
  const std::string text = render_suggestions({c});
  EXPECT_NE(text.find("--function main --begin 10 --end 20"), std::string::npos);
  EXPECT_NE(text.find("80.0%"), std::string::npos);
  EXPECT_NE(render_suggestions({}).find("no loops"), std::string::npos);
}

}  // namespace
}  // namespace ac::analysis
