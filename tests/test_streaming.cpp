// Streaming (trace-file-free) analysis — the paper's §IX future work, driven
// through SessionStream. The contract: batch and streaming pipelines produce
// identical verdicts, identical MLI sets and identical event streams, for
// every benchmark and for the Fig. 4 example.
#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

TEST(Streaming, Fig4MatchesBatch) {
  auto run = test::run_pipeline(test::fig4_source());
  const Report streamed =
      test::stream_trace(run.trace, analysis::find_mcl_region(test::fig4_source()));

  EXPECT_EQ(test::critical_map(streamed), test::critical_map(run.report));
  EXPECT_EQ(streamed.pre.mli.size(), run.report.pre.mli.size());
  ASSERT_EQ(streamed.dep.events.size(), run.report.dep.events.size());
  for (std::size_t i = 0; i < streamed.dep.events.size(); ++i) {
    EXPECT_EQ(streamed.dep.events[i].var, run.report.dep.events[i].var);
    EXPECT_EQ(streamed.dep.events[i].is_write, run.report.dep.events[i].is_write);
    EXPECT_EQ(streamed.dep.events[i].iteration, run.report.dep.events[i].iteration);
  }
  EXPECT_EQ(streamed.dep.complete.num_nodes(), run.report.dep.complete.num_nodes());
  EXPECT_EQ(streamed.dep.complete.num_edges(), run.report.dep.complete.num_edges());
}

TEST(Streaming, PaperMliModeMatchesBatch) {
  AnalysisOptions opts;
  opts.mli_mode = MliMode::PaperNameMatch;
  auto run = test::run_pipeline(test::fig4_source(), opts);
  const Report streamed =
      test::stream_trace(run.trace, analysis::find_mcl_region(test::fig4_source()), opts);
  EXPECT_EQ(test::mli_names(streamed), test::mli_names(run.report));
}

TEST(Streaming, EnforcesPassOrder) {
  const MclRegion region{"main", 1, 2};
  SessionStream streaming(region);
  trace::TraceRecord rec;
  rec.opcode = trace::Opcode::Br;
  rec.func = "main";
  rec.line = 1;
  trace::TraceBuffer buf;
  buf.append(rec);
  EXPECT_THROW(streaming.pass2_add(buf.view(0)), Error);
}

TEST(Streaming, ThrowsWhenRegionNeverExecutes) {
  auto run = test::run_pipeline(test::fig4_source());
  MclRegion region;
  region.function = "main";
  region.begin_line = 9000;
  region.end_line = 9001;
  SessionStream streaming(region);
  for (std::size_t i = 0; i < run.trace.size(); ++i) streaming.pass1_add(run.trace.view(i));
  EXPECT_THROW(streaming.finish_pass1(), AnalysisError);
}

TEST(Streaming, TrailingCallIsFlushedAtFinish) {
  // A truncated stream ending in a Call record must not lose the call: it is
  // handled as form 1 by finish().
  auto run = test::run_pipeline(test::fig4_source());
  std::size_t cut = run.trace.size() / 2 + 1;
  while (cut < run.trace.size() && run.trace.view(cut - 1).opcode() != trace::Opcode::Call) ++cut;
  ASSERT_EQ(run.trace.view(cut - 1).opcode(), trace::Opcode::Call);
  const MclRegion region = analysis::find_mcl_region(test::fig4_source());
  EXPECT_NO_THROW(test::stream_trace(run.trace, region, {}, cut));
}

TEST(Streaming, ViewsOverAnyPoolEvenWhenThePoolChangesMidPass) {
  // Each pass takes its first half of views from the VM's BufferSink buffer
  // and its second half from a copy whose pool was pre-seeded with unrelated
  // symbols, so every id shifts mid-pass. An analyzer that bound the view's
  // own pool instead of remapping each record would misname the second half.
  const std::string src = test::fig4_source();
  const auto run = test::run_pipeline(src);
  trace::TraceBuffer shifted;
  for (int i = 0; i < 50; ++i) shifted.pool().intern(strf("unrelated_%d", i));
  shifted.append_buffer(run.trace);
  ASSERT_EQ(shifted.view(0).func_id(), run.trace.view(0).func_id() + 50);

  const std::size_t half = run.trace.size() / 2;
  const auto view = [&](std::size_t i) { return i < half ? run.trace.view(i) : shifted.view(i); };
  SessionStream stream(find_mcl_region(src));
  for (std::size_t i = 0; i < run.trace.size(); ++i) stream.pass1_add(view(i));
  stream.finish_pass1();
  for (std::size_t i = 0; i < run.trace.size(); ++i) stream.pass2_add(view(i));
  const Report streamed = stream.finish();

  EXPECT_EQ(streamed.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(streamed.verdicts.all_mli, run.report.verdicts.all_mli);
  EXPECT_EQ(streamed.dep.events.size(), run.report.dep.events.size());
  EXPECT_EQ(streamed.dep.complete.num_nodes(), run.report.dep.complete.num_nodes());
  EXPECT_EQ(streamed.dep.complete.num_edges(), run.report.dep.complete.num_edges());
}

class StreamingApps : public testing::TestWithParam<std::string> {};

TEST_P(StreamingApps, VerdictMatchesBatchPipeline) {
  const apps::App& app = apps::find_app(GetParam());
  const apps::AnalysisRun batch = apps::analyze_app(app);
  const apps::StreamingRun streamed = apps::analyze_app_streaming(app);

  EXPECT_EQ(test::critical_map(streamed.report), test::critical_map(batch.report));
  EXPECT_EQ(streamed.records_streamed, batch.trace_records);
  EXPECT_EQ(streamed.report.dep.events.size(), batch.report.dep.events.size());
  EXPECT_EQ(streamed.report.dep.iterations, batch.report.dep.iterations);
}

INSTANTIATE_TEST_SUITE_P(
    All14, StreamingApps,
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
