// End-to-end Table II reproduction: for each of the 14 benchmarks, AutoCheck
// must identify exactly the paper's variables with the paper's dependency
// types — at the default input size, at the Table II size (the paper's
// "different inputs" check, §VII), and through the file-based trace path.
#include <gtest/gtest.h>

#include <cstdio>
#include <map>

#include "apps/harness.hpp"
#include "support/error.hpp"

#include "helpers.hpp"

namespace ac::apps {
namespace {

std::map<std::string, std::string> to_map(const std::vector<ExpectedVar>& expected) {
  std::map<std::string, std::string> out;
  for (const auto& e : expected) out[e.name] = analysis::dep_type_name(e.type);
  return out;
}

std::map<std::string, std::string> to_map(const std::vector<analysis::CriticalVar>& critical) {
  std::map<std::string, std::string> out;
  for (const auto& cv : critical) out[cv.name] = analysis::dep_type_name(cv.type);
  return out;
}

class AppVerdicts : public testing::TestWithParam<std::string> {};

TEST_P(AppVerdicts, DefaultInputMatchesTable2) {
  const App& app = find_app(GetParam());
  const AnalysisRun run = analyze_app(app);
  EXPECT_EQ(to_map(run.report.verdicts.critical), to_map(app.expected));
  EXPECT_GT(run.report.dep.iterations, 1);
  EXPECT_FALSE(run.trace_run.output.empty());
}

TEST_P(AppVerdicts, Table2InputGivesSameVariables) {
  // Paper §VII: the variables to checkpoint do not change across input sizes.
  const App& app = find_app(GetParam());
  const AnalysisRun run = analyze_app(app, app.table2_params);
  EXPECT_EQ(to_map(run.report.verdicts.critical), to_map(app.expected));
}

TEST_P(AppVerdicts, FileBasedPathAgrees) {
  const App& app = find_app(GetParam());
  const std::string path = testing::TempDir() + "/ac_app_" + app.name + ".trace";
  const FileAnalysisRun file_run = analyze_app_via_file(app, {}, path);
  std::remove(path.c_str());
  EXPECT_EQ(to_map(file_run.report.verdicts.critical), to_map(app.expected));
  EXPECT_GT(file_run.trace_bytes, 0u);
  EXPECT_GT(file_run.report.timings.preprocessing, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    All14, AppVerdicts,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(AppRegistry, Has14UniqueBenchmarks) {
  const auto& apps = registry();
  ASSERT_EQ(apps.size(), 14u);
  std::set<std::string> names;
  for (const auto& a : apps) {
    EXPECT_TRUE(names.insert(a.name).second) << "duplicate " << a.name;
    EXPECT_FALSE(a.expected.empty()) << a.name;
    EXPECT_FALSE(a.paper_mclr.empty()) << a.name;
    EXPECT_NO_THROW(a.mcl()) << a.name;
  }
  EXPECT_THROW(find_app("NoSuchApp"), Error);
}

TEST(AppRegistry, KnobSubstitutionWorks) {
  const App& app = find_app("CG");
  const std::string small = app.source({{"N", "8"}});
  EXPECT_NE(small.find("double x[8];"), std::string::npos);
  EXPECT_EQ(small.find("${"), std::string::npos);  // all knobs resolved
}

TEST(AppRegistry, TypeHistogramIsWarDominated) {
  // Paper §VI-B: WAR dominates the dependency-type histogram.
  std::map<analysis::DepType, int> hist;
  for (const auto& app : registry()) {
    for (const auto& e : app.expected) ++hist[e.type];
  }
  EXPECT_GT(hist[analysis::DepType::WAR], hist[analysis::DepType::RAPO]);
  EXPECT_GT(hist[analysis::DepType::WAR], hist[analysis::DepType::Outcome]);
  EXPECT_GT(hist[analysis::DepType::WAR], hist[analysis::DepType::Index]);
  EXPECT_EQ(hist[analysis::DepType::RAPO], 2);     // IS's key_array + bucket_ptrs
  EXPECT_EQ(hist[analysis::DepType::Outcome], 2);  // FT's sum + AMG's final_res_norm
}

}  // namespace
}  // namespace ac::apps
