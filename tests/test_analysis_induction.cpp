// Index-variable detection: for-loop induction via self-dependent stores at
// the header line, and while-style control flags read by the loop condition.
#include <gtest/gtest.h>

#include "analysis/classify.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

using test::run_pipeline;

TEST(Induction, ForLoopCounter) {
  const std::string src = R"(
int main() {
  int s = 0;
  //@mcl-begin
  for (int it = 0; it < 6; it = it + 1) {
    s = s + 2;
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("it"), nullptr);
  EXPECT_EQ(run.report.find_critical("it")->type, DepType::Index);
  EXPECT_TRUE(run.report.dep.induction.self_rmw.size() >= 1);
}

TEST(Induction, CounterDeclaredBeforeLoop) {
  const std::string src = R"(
int main() {
  int k = 1;
  int s = 0;
  //@mcl-begin
  for (k = 1; k <= 5; k = k + 1) {
    s = s + k;
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("k"), nullptr);
  // Index wins over the WAR evidence from `s = s + k`.
  EXPECT_EQ(run.report.find_critical("k")->type, DepType::Index);
}

TEST(Induction, WhileStyleControlFlagIsIndex) {
  // miniAMR's done/ts pair: both are read by the header condition and
  // written inside the loop.
  const std::string src = R"(
int done;
int ts;
int main() {
  done = 0;
  ts = 0;
  int s = 0;
  //@mcl-begin
  for (ts = 1; done == 0 && ts <= 100; ts = ts + 1) {
    s = s + ts;
    done = 0;
    if (ts >= 5) { done = 1; }
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("done"), nullptr);
  EXPECT_EQ(run.report.find_critical("done")->type, DepType::Index);
  ASSERT_NE(run.report.find_critical("ts"), nullptr);
  EXPECT_EQ(run.report.find_critical("ts")->type, DepType::Index);
}

TEST(Induction, ControlFlagRewrittenAfterTheLoopStaysIndex) {
  // WhileStyleControlFlagIsIndex's program with `done` written again after
  // the loop. What makes `done` Index is a write inside the loop, so the
  // store after it must not hide that: a rule keyed on the variable's last
  // write (here in Part C) would drop `done` from the Index set and report
  // it as Outcome.
  const std::string src = R"(
int done;
int ts;
int main() {
  done = 0;
  ts = 0;
  int s = 0;
  //@mcl-begin
  for (ts = 1; done == 0 && ts <= 100; ts = ts + 1) {
    s = s + ts;
    done = 0;
    if (ts >= 5) { done = 1; }
  }
  //@mcl-end
  done = 2;
  print_int(s + done);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("done"), nullptr);
  EXPECT_EQ(run.report.find_critical("done")->type, DepType::Index);
  ASSERT_NE(run.report.find_critical("ts"), nullptr);
  EXPECT_EQ(run.report.find_critical("ts")->type, DepType::Index);
}

TEST(Induction, LoopBoundIsNotIndex) {
  // n is read by the condition but never written inside the loop.
  const std::string src = R"(
int main() {
  int n = 7;
  int s = 0;
  //@mcl-begin
  for (int it = 0; it < n; it = it + 1) {
    s = s + 1;
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  EXPECT_EQ(run.report.find_critical("n"), nullptr);
}

TEST(Induction, InnerLoopCountersAreNotIndex) {
  const std::string src = R"(
int main() {
  int s = 0;
  //@mcl-begin
  for (int it = 0; it < 3; it = it + 1) {
    for (int j = 0; j < 4; j = j + 1) {
      s = s + 1;
    }
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("it"), nullptr);
  EXPECT_EQ(run.report.find_critical("j"), nullptr);
}

TEST(Induction, IndexVariableNeedNotBeMli) {
  // `it` declared in the for-init is never touched before the loop, so it is
  // not MLI — yet it must still be reported (paper Fig. 7 structure).
  auto run = run_pipeline(test::fig4_source());
  for (const auto& m : run.report.pre.mli) EXPECT_NE(m.name, "it");
  ASSERT_NE(run.report.find_critical("it"), nullptr);
}

}  // namespace
}  // namespace ac::analysis
