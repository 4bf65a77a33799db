// Report rendering, region scanning, Session file-path behaviour, harness
// invariants.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/error.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

TEST(Region, MarkerScanning) {
  const std::string src = "line1\n//@mcl-begin\nfor(...)\nbody\n//@mcl-end\nrest\n";
  const MclRegion region = find_mcl_region(src, "kernel");
  EXPECT_EQ(region.function, "kernel");
  EXPECT_EQ(region.begin_line, 3);
  EXPECT_EQ(region.end_line, 4);
  EXPECT_TRUE(region.contains(3));
  EXPECT_TRUE(region.contains(4));
  EXPECT_FALSE(region.contains(5));
}

TEST(Region, MissingOrInvertedMarkersThrow) {
  EXPECT_THROW(find_mcl_region("no markers here\n"), AnalysisError);
  EXPECT_THROW(find_mcl_region("//@mcl-begin\n"), AnalysisError);
  EXPECT_THROW(find_mcl_region("//@mcl-end\nx\n//@mcl-begin\n"), AnalysisError);
}

TEST(Report, RenderMentionsEverything) {
  auto run = test::run_pipeline(test::fig4_source());
  const std::string text = run.report.render();
  for (const char* needle :
       {"MCL region", "MLI variables", "a b sum s r", "RAPO", "Outcome", "WAR", "Index",
        "Timings"}) {
    EXPECT_NE(text.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, RenderEventsTruncates) {
  auto run = test::run_pipeline(test::fig4_source());
  const std::string text = run.report.render_events(3);
  EXPECT_NE(text.find("1: "), std::string::npos);
  EXPECT_NE(text.find("..."), std::string::npos);
  EXPECT_EQ(text.find("4: "), std::string::npos);
}

TEST(Report, CriticalLookup) {
  auto run = test::run_pipeline(test::fig4_source());
  EXPECT_NE(run.report.find_critical("r"), nullptr);
  EXPECT_EQ(run.report.find_critical("b"), nullptr);
  const auto names = run.report.critical_names();
  EXPECT_NE(std::find(names.begin(), names.end(), "it"), names.end());
}

TEST(Facade, AnalyzeFileMissingTraceThrows) {
  MclRegion region{"main", 1, 2};
  EXPECT_THROW(Session().file("/no/such/trace.txt").region(region).run(), Error);
}

TEST(Facade, TimingsArePopulatedOnFilePath) {
  const apps::App& app = apps::find_app("FT");
  const std::string path = testing::TempDir() + "/ac_facade_ft.trace";
  const apps::FileAnalysisRun run = apps::analyze_app_via_file(app, {}, path);
  std::remove(path.c_str());
  EXPECT_GT(run.report.timings.preprocessing, 0.0);
  EXPECT_GT(run.report.timings.total(), run.report.timings.identify);
  EXPECT_GT(run.trace_generation_seconds, 0.0);
}

TEST(Facade, BuildDdgOffSkipsGraphs) {
  AnalysisOptions opts;
  opts.build_ddg = false;
  auto run = test::run_pipeline(test::fig4_source(), opts);
  EXPECT_EQ(run.report.dep.complete.num_nodes(), 0);
  EXPECT_EQ(run.report.contracted.num_nodes(), 0);
  // Verdicts do not depend on the DDG.
  EXPECT_EQ(test::critical_map(run.report),
            (std::map<std::string, std::string>{
                {"r", "WAR"}, {"a", "RAPO"}, {"sum", "Outcome"}, {"it", "Index"}}));
}

}  // namespace
}  // namespace ac::analysis

namespace ac::apps {
namespace {

TEST(Harness, StorageMeasurementOrdersOfMagnitude) {
  const App& app = find_app("CG");
  const AnalysisRun run = analyze_app(app);
  const StorageResult st =
      measure_storage(app, {}, run.report.critical_names(), testing::TempDir());
  EXPECT_GT(st.autocheck_bytes, 0u);
  EXPECT_GT(st.blcr_bytes, 100 * st.autocheck_bytes);
  EXPECT_FALSE(std::filesystem::exists(testing::TempDir() + "/CG_storage.eng"));
}

TEST(Harness, ValidateRequiresReachableFailure) {
  const App& app = find_app("EP");
  const AnalysisRun run = analyze_app(app);
  EXPECT_THROW(validate_cr(run.module, run.region, run.report.critical_names(), 10000,
                           validation_config(testing::TempDir(), "ep_unreachable")),
               Error);
}

class AppSourceSizes : public testing::TestWithParam<std::string> {};

TEST_P(AppSourceSizes, AllParameterSetsCompileAndVerify) {
  const App& app = find_app(GetParam());
  for (const Params* params : {&app.default_params, &app.table2_params, &app.table4_params}) {
    const std::string src = app.source(*params);
    EXPECT_EQ(src.find("${"), std::string::npos) << app.name << ": unresolved knob";
    EXPECT_NO_THROW(minic::compile(src)) << app.name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All14, AppSourceSizes,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ac::apps

// -- JSON export (appended with the --json CLI feature) -----------------------

namespace ac::analysis {
namespace {

TEST(Report, JsonExportIsWellFormedAndComplete) {
  auto run = test::run_pipeline(test::fig4_source());
  const std::string json = run.report.to_json();

  // Structural sanity: balanced braces/brackets.
  int braces = 0, brackets = 0;
  for (char c : json) {
    braces += (c == '{') - (c == '}');
    brackets += (c == '[') - (c == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);

  for (const char* needle :
       {"\"region\"", "\"function\": \"main\"", "\"mli\"", "\"critical\"",
        "\"name\": \"a\"", "\"type\": \"RAPO\"", "\"type\": \"Index\"", "\"stats\"",
        "\"iterations\": 11", "\"timings\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle;
  }
}

TEST(Report, JsonListsEveryCriticalVariableOnce) {
  auto run = test::run_pipeline(test::fig4_source());
  const std::string json = run.report.to_json();
  for (const auto& cv : run.report.verdicts.critical) {
    const std::string key = "\"name\": \"" + cv.name + "\"";
    const auto first = json.find(key);
    ASSERT_NE(first, std::string::npos) << cv.name;
    EXPECT_EQ(json.find(key, first + 1), std::string::npos) << cv.name;
  }
}

}  // namespace
}  // namespace ac::analysis
