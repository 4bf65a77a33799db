// The unified Session pipeline API: builder contract, TraceSource
// equivalence (memory / file / live), thread-budget independence (identical
// verdicts at threads 1 vs 4 across all 14 mini-apps), and ReportSink
// round-trips (JSON -> engine registration matches direct in-memory
// registration).
#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "ckpt/engine.hpp"
#include "support/error.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

AnalysisOptions with_threads(int n) {
  AnalysisOptions opts;
  opts.threads = n;
  return opts;
}

void expect_timing_structure(const Report& report) {
  EXPECT_GE(report.timings.preprocessing, 0.0);
  EXPECT_GE(report.timings.dep_analysis, 0.0);
  EXPECT_GE(report.timings.identify, 0.0);
  EXPECT_DOUBLE_EQ(report.timings.total(), report.timings.preprocessing +
                                               report.timings.dep_analysis +
                                               report.timings.identify);
}

// --- builder contract -------------------------------------------------------

TEST(SessionBuilder, RequiresSourceAndValidRegion) {
  EXPECT_THROW(Session().run(), Error);  // no source

  auto run = test::run_pipeline(test::fig4_source());
  EXPECT_THROW(Session().buffer(trace::TraceBuffer(run.trace)).run(), Error);  // no region

  MclRegion inverted{"main", 20, 10};
  EXPECT_THROW(Session().buffer(trace::TraceBuffer(run.trace)).region(inverted).run(), Error);
}

TEST(SessionBuilder, MarkerRegionMatchesExplicitRegion) {
  auto run = test::run_pipeline(test::fig4_source());
  const Report direct = Session()
                            .buffer(std::move(run.trace))
                            .region_from_markers(test::fig4_source())
                            .run();
  EXPECT_EQ(test::critical_map(direct), test::critical_map(run.report));
  EXPECT_EQ(direct.verdicts.critical, run.report.verdicts.critical);
  expect_timing_structure(direct);
}

// --- classification corner -------------------------------------------------

TEST(SessionClassify, ZeroVariableTraceClassifiesEmpty) {
  // Degenerate input: no events, no MLI variables.
  const ClassifyResult empty = classify(DepResult{}, PreprocessResult{});
  EXPECT_TRUE(empty.critical.empty());
  EXPECT_TRUE(empty.all_mli.empty());
}

// --- trace sources ----------------------------------------------------------

TEST(SessionSources, FileSerialAndParallelMatchMemory) {
  auto run = test::run_pipeline(test::fig4_source());
  const MclRegion region = find_mcl_region(test::fig4_source());

  const std::string path = testing::TempDir() + "/ac_session_fig4.trace";
  {
    trace::FileSink sink(path);
    for (std::size_t i = 0; i < run.trace.size(); ++i) sink.append(run.trace.view(i));
  }

  const Report from_memory = Session().buffer(std::move(run.trace)).region(region).run();
  const Report serial_file = Session().file(path).region(region).run();
  const Report parallel_file =
      Session().file(path).region(region).options(with_threads(4)).run();

  EXPECT_EQ(from_memory.verdicts.critical, serial_file.verdicts.critical);
  EXPECT_EQ(from_memory.verdicts.critical, parallel_file.verdicts.critical);
  EXPECT_EQ(serial_file.dep.events.size(), parallel_file.dep.events.size());
  EXPECT_GT(serial_file.timings.preprocessing, 0.0);  // parse attributed here
  std::remove(path.c_str());
}

TEST(SessionSources, LiveSourceMatchesBatchAndNeverMaterializes) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  auto source = std::make_shared<trace::LiveSource>([&](trace::TraceSink& sink) {
    vm::RunOptions ropts;
    ropts.sink = &sink;
    vm::run_module(run.module, ropts);
  });
  EXPECT_TRUE(source->live());
  EXPECT_THROW(source->buffer(), Error);

  const Report live = Session().source(source).region_from_markers(src).run();
  EXPECT_EQ(live.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(source->record_count(), run.trace.size());
  expect_timing_structure(live);
}

TEST(SessionSources, MissingFileThrows) {
  MclRegion region{"main", 1, 2};
  EXPECT_THROW(Session().file("/no/such/trace.txt").region(region).run(), Error);
}

// --- sinks ------------------------------------------------------------------

TEST(SessionSinks, TextJsonDotProtectCapture) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  std::string text, json, dot, protect;
  Session()
      .buffer(std::move(run.trace))
      .region_from_markers(src)
      .sink(std::make_shared<TextSink>(&text))
      .sink(std::make_shared<JsonSink>(&json))
      .sink(std::make_shared<DotSink>(&dot))
      .sink(std::make_shared<ProtectSink>(&protect))
      .run();

  EXPECT_NE(text.find("Critical variables"), std::string::npos);
  EXPECT_NE(json.find("\"critical\""), std::string::npos);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(protect.find("engine.protect(\"a\")"), std::string::npos);
  EXPECT_NE(protect.find("RAPO"), std::string::npos);
}

TEST(SessionSinks, ProtectSinkRejectsLiveSources) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);
  std::string protect;
  Session session;
  session
      .live([&](trace::TraceSink& sink) {
        vm::RunOptions ropts;
        ropts.sink = &sink;
        vm::run_module(run.module, ropts);
      })
      .region_from_markers(src)
      .sink(std::make_shared<ProtectSink>(&protect));
  EXPECT_THROW(session.run(), Error);
}

TEST(SessionSinks, JsonRoundTripMatchesDirectEngineRegistration) {
  const std::string src = test::fig4_source();
  auto run = test::run_pipeline(src);

  ckpt::EngineConfig direct_cfg;
  direct_cfg.dir = testing::TempDir();
  direct_cfg.tag = "session_sink_direct";
  ckpt::CheckpointEngine direct(direct_cfg);

  std::string json;
  Session()
      .buffer(std::move(run.trace))
      .region_from_markers(src)
      .sink(std::make_shared<EngineSink>(direct))
      .sink(std::make_shared<JsonSink>(&json))
      .run();

  ckpt::EngineConfig json_cfg;
  json_cfg.dir = testing::TempDir();
  json_cfg.tag = "session_sink_json";
  ckpt::CheckpointEngine from_json(json_cfg);
  from_json.register_report_json(json);

  EXPECT_FALSE(direct.protected_names().empty());
  EXPECT_EQ(direct.protected_names(), from_json.protected_names());
}

// --- batch vs streaming vs thread budget across the suite -------------------

class SessionApps : public testing::TestWithParam<std::string> {};

TEST_P(SessionApps, BatchStreamingThreadsEquivalence) {
  const apps::App& app = apps::find_app(GetParam());

  const apps::AnalysisRun serial = apps::analyze_app(app, {}, with_threads(1));
  const apps::AnalysisRun threaded = apps::analyze_app(app, {}, with_threads(4));
  const apps::StreamingRun live = apps::analyze_app_streaming(app, {}, with_threads(4));

  // The thread budget never changes a verdict.
  EXPECT_EQ(serial.report.verdicts.critical, threaded.report.verdicts.critical);
  EXPECT_EQ(serial.report.verdicts.all_mli, threaded.report.verdicts.all_mli);

  // The live two-pass pipeline agrees with batch on verdicts and structure.
  EXPECT_EQ(serial.report.verdicts.critical, live.report.verdicts.critical);
  EXPECT_EQ(serial.report.dep.events.size(), live.report.dep.events.size());
  EXPECT_EQ(serial.report.dep.iterations, live.report.dep.iterations);
  EXPECT_EQ(serial.trace_records, live.records_streamed);

  // Same timing structure from every source/parallelism combination.
  expect_timing_structure(serial.report);
  expect_timing_structure(threaded.report);
  expect_timing_structure(live.report);
}

INSTANTIATE_TEST_SUITE_P(
    All14, SessionApps,
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
}  // namespace ac::analysis
