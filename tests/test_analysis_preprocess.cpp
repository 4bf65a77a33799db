// Pre-processing: trace partitioning and MLI identification, including the
// paper's Fig. 4 example and the Challenge-1/2 scenarios of §V-B/C.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/session.hpp"
#include "support/error.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

using test::fig4_source;
using test::mli_names;
using test::run_pipeline;

TEST(Partition, SplitsAroundTheLoop) {
  auto run = run_pipeline(fig4_source());
  const Partition& part = run.report.pre.partition;
  ASSERT_TRUE(part.has_loop());
  EXPECT_GT(part.first_b, 0);
  EXPECT_GT(part.last_b, part.first_b);
  EXPECT_LT(static_cast<std::size_t>(part.last_b), run.trace.size() - 1);
  EXPECT_EQ(part.part_of(0), Part::A);
  EXPECT_EQ(part.part_of(part.first_b), Part::B);
  EXPECT_EQ(part.part_of(part.last_b + 1), Part::C);
}

TEST(Partition, ThrowsWhenRegionNeverExecutes) {
  const trace::TraceBuffer records = run_pipeline(fig4_source()).trace;
  MclRegion region;
  region.function = "main";
  region.begin_line = 9000;
  region.end_line = 9010;
  EXPECT_THROW(dep_analysis(records, region), AnalysisError);

  region.begin_line = 18;
  region.end_line = 26;
  region.function = "no_such_function";
  EXPECT_THROW(dep_analysis(records, region), AnalysisError);
}

TEST(Mli, Fig4MatchesPaper) {
  auto run = run_pipeline(fig4_source());
  auto names = mli_names(run.report);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "r", "s", "sum"}));
}

TEST(Mli, LoopLocalAndInductionExcluded) {
  auto run = run_pipeline(fig4_source());
  auto names = mli_names(run.report);
  // m is loop-local; it is the induction variable (handled separately, as in
  // the paper's Fig. 7 where Index is a sibling of the MLI-derived classes).
  EXPECT_EQ(std::count(names.begin(), names.end(), "m"), 0);
  EXPECT_EQ(std::count(names.begin(), names.end(), "it"), 0);
}

TEST(Mli, VariableTouchedOnlyThroughInitFunctionIsStillMli) {
  // x is declared in main but initialized only inside init(); the access
  // resolves to x's storage by address, so x is "used before the loop".
  const std::string src = R"(
void init(double v[]) {
  for (int i = 0; i < 8; i = i + 1) { v[i] = i * 0.5; }
}
int main() {
  double x[8];
  init(x);
  double s = 0.0;
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    s = s + x[it];
    x[it] = s;
  }
  //@mcl-end
  print_float(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  auto names = mli_names(run.report);
  EXPECT_NE(std::find(names.begin(), names.end(), "x"), names.end());
}

TEST(Mli, Challenge2DeceiverLocalIsNotMatched) {
  // A callee local named `sum` must not be confused with main's `sum`
  // (paper Challenge 2: disambiguation by Alloca addresses).
  const std::string src = R"(
int helper(int v) {
  int sum = v * 2;
  return sum;
}
int main() {
  int sum = 0;
  int t = helper(1);
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    t = helper(it);
    sum = sum + t;
  }
  //@mcl-end
  print_int(sum);
  return 0;
}
)";
  auto run = run_pipeline(src);
  // Exactly one MLI variable named sum — main's (the callee's is excluded).
  int count = 0;
  for (const auto& m : run.report.pre.mli) {
    if (m.name == "sum") {
      ++count;
      EXPECT_EQ(run.report.pre.vars.def(m.var_id).func, "main");
    }
  }
  EXPECT_EQ(count, 1);
  // And main's sum accumulates -> WAR.
  ASSERT_NE(run.report.find_critical("sum"), nullptr);
}

TEST(Mli, Challenge1SameNameLocalsAroundTheLoop) {
  // helper() is called both before and inside the loop; its local `acc` must
  // not become MLI even though the name appears in both regions.
  const std::string src = R"(
int helper(int v) {
  int acc = 0;
  acc = acc + v;
  return acc;
}
int main() {
  int total = helper(3);
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    total = total + helper(it);
  }
  //@mcl-end
  print_int(total);
  return 0;
}
)";
  auto run = run_pipeline(src);
  for (const auto& m : run.report.pre.mli) EXPECT_NE(m.name, "acc");
  ASSERT_NE(run.report.find_critical("total"), nullptr);
  EXPECT_EQ(run.report.find_critical("total")->type, DepType::WAR);
}

TEST(Mli, GlobalsUsedInCalleesAreMliInAddressMode) {
  // The paper's FT scenario (§V-B): globals used only inside function calls
  // within the main loop. Address-resolved matching includes them...
  const std::string src = R"(
double y[4];
void evolve() {
  for (int i = 0; i < 4; i = i + 1) { y[i] = y[i] * 1.5; }
}
int main() {
  for (int i = 0; i < 4; i = i + 1) { y[i] = i + 1.0; }
  double s = 0.0;
  //@mcl-begin
  for (int kt = 0; kt < 3; kt = kt + 1) {
    evolve();
    s = s + 1.0;
  }
  //@mcl-end
  print_float(s + y[0]);
  return 0;
}
)";
  auto addr_run = run_pipeline(src);
  auto names = mli_names(addr_run.report);
  EXPECT_NE(std::find(names.begin(), names.end(), "y"), names.end());
  ASSERT_NE(addr_run.report.find_critical("y"), nullptr);
  EXPECT_EQ(addr_run.report.find_critical("y")->type, DepType::WAR);

  // ...while the paper's literal name-matching with call bypass misses them,
  // which is exactly the limitation §V-B works around manually.
  AnalysisOptions paper_mode;
  paper_mode.mli_mode = MliMode::PaperNameMatch;
  auto paper_run = run_pipeline(src, paper_mode);
  auto paper_names = mli_names(paper_run.report);
  EXPECT_EQ(std::find(paper_names.begin(), paper_names.end(), "y"), paper_names.end());
}

TEST(Mli, PaperNameMatchAgreesOnFig4) {
  AnalysisOptions opts;
  opts.mli_mode = MliMode::PaperNameMatch;
  auto run = run_pipeline(fig4_source(), opts);
  auto names = mli_names(run.report);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b", "r", "s", "sum"}));
}

TEST(Mli, VariableDefinedBeforeLoopButUnusedInsideIsNotMli) {
  const std::string src = R"(
int main() {
  int used = 1;
  int unused = 99;
  int s = 0;
  //@mcl-begin
  for (int it = 0; it < 3; it = it + 1) {
    s = s + used;
  }
  //@mcl-end
  print_int(s + unused);
  return 0;
}
)";
  auto run = run_pipeline(src);
  auto names = mli_names(run.report);
  EXPECT_EQ(std::find(names.begin(), names.end(), "unused"), names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "used"), names.end());
}

}  // namespace
}  // namespace ac::analysis
