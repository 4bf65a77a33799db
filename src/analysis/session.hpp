// The unified analysis pipeline API.
//
// A Session runs the whole AutoCheck workflow from one of two inputs:
//
//   TraceSource or    -->  analysis pipeline  -->  Report
//   live generator         preprocess -> MLI ->    (run()'s return value)
//   (file, memory,         dep analysis ->
//    socket)               classification
//
// It is the one entry point from a trace to a Report. A file source gets the
// §V-A parallel trace read under AnalysisOptions::threads; a live generator
// runs the §IX trace-file-free two-pass mode (SessionStream), with its
// RecordViews forwarded straight into the streaming analyzers. Everything
// after the read — pre-processing, dependency analysis, classification — is
// one sequential pass, the same for every source. The caller writes the
// outputs it wants from the returned Report (render(), to_json(),
// contracted.to_dot(), protect_calls()):
//
//   auto report = analysis::Session()
//                     .file("app.trace")
//                     .region(region)
//                     .options({.threads = 4})
//                     .run();
//   std::string json = report.to_json();
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "analysis/autocheck.hpp"
#include "support/timer.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"

namespace ac::analysis {

/// Pipeline configuration. An aggregate, so designated initializers work:
/// `options({.threads = 4})`.
struct AnalysisOptions {
  MliMode mli_mode = MliMode::AddressResolved;
  bool build_ddg = true;

  /// Worker budget for the trace read (a file source parses in parallel when
  /// > 1). The analysis itself is sequential.
  int threads = 1;
};

/// Runtime default worker count (hardware concurrency, at least 1).
int default_thread_count();

/// Builder-style pipeline driver. Configure a source, a region and options,
/// then run() to get the Report.
class Session {
 public:
  Session() = default;

  /// Any TraceSource implementation.
  Session& source(std::shared_ptr<trace::TraceSource> src);
  /// Trace file (serial or parallel zero-copy mmap parse, per options().threads).
  Session& file(const std::string& path);
  /// An interned trace buffer (zero-copy; e.g. from trace::BufferSink).
  Session& buffer(trace::TraceBuffer&& buf);

  /// Runs a deterministic program once, emitting every record into the sink.
  using Generator = std::function<void(trace::TraceSink&)>;
  /// Live instrumented execution: the generator runs once per streaming
  /// pass and no trace is stored. Replaces any source set before (and a
  /// later source replaces it).
  Session& live(Generator gen);

  Session& region(MclRegion r);
  /// Scan MiniC source text for the //@mcl-begin / //@mcl-end markers.
  Session& region_from_markers(const std::string& source_text,
                               const std::string& function = "main");

  Session& options(const AnalysisOptions& opts);

  /// Run the pipeline: read -> preprocess/MLI -> dependency analysis ->
  /// classification. A live generator runs the two-pass streaming pipeline;
  /// a source the single-pass one. Throws ac::Error when no source is set or
  /// the region is invalid.
  Report run();

 private:
  std::shared_ptr<trace::TraceSource> source_;
  Generator live_;
  MclRegion region_;
  AnalysisOptions opts_;

  Report run_batch();
  Report run_live();
};

/// Push-based incremental session: the live two-pass pipeline with explicit
/// pass boundaries, for callers that drive record emission themselves (an
/// instrumented execution that cannot be wrapped in a Session::live
/// generator). Session's live path is built on this class. Records arrive as
/// RecordViews over any pool — the pool may even change between records —
/// and each analyzer remaps them into a pool of its own. Timing attribution
/// is whole-pass wall clock, from a pass's first record to its seal (the
/// driving execution included, caller idle time between passes excluded):
/// preprocessing = pass 1, dep_analysis = pass 2, identify = classification.
class SessionStream {
 public:
  SessionStream(const MclRegion& region, const AnalysisOptions& opts = {});

  /// Pass 1: feed every record of the first execution, then seal it.
  void pass1_add(const trace::RecordView& rec);
  void finish_pass1();

  /// Pass 2: feed every record of the (identical) second execution.
  /// Throws if pass 1 was not finished.
  void pass2_add(const trace::RecordView& rec);

  /// Classification + DDG contraction; returns the same Report as the batch
  /// pipeline on the materialized trace.
  Report finish();

 private:
  MclRegion region_;
  AnalysisOptions opts_;
  Report report_;
  MliCollector collector_;
  std::unique_ptr<DepAnalyzer> analyzer_;
  WallTimer pass_timer_;  // restarted at each pass's first record
  bool pass_timer_live_ = false;
  double pass1_seconds_ = 0;
  double pass2_seconds_ = 0;
  bool pass1_done_ = false;
};

}  // namespace ac::analysis
