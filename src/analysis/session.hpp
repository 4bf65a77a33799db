// The unified analysis pipeline API.
//
// A Session runs the whole AutoCheck workflow from one of two inputs:
//
//   TraceSource or    -->  one replay: partition,  -->  Report
//   live generator         MLI and dependencies ->      (run()'s return value)
//   (file, memory,         classification
//    socket)
//
// It is the one entry point from a trace to a Report. A file source gets the
// §V-A parallel trace read under AnalysisOptions::threads; a live generator
// runs the §IX trace-file-free mode once, emitting its RecordViews straight
// into the streaming replay (DepAnalyzer). After the read, one sequential
// replay of each record does the pre-processing and the dependency analysis,
// and classification follows, the same for every source. The caller writes
// the outputs it wants from the returned Report (render(), to_json(),
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
#include "trace/source.hpp"
#include "trace/writer.hpp"

namespace ac::analysis {

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
  /// Live instrumented execution: run() calls the generator once, its sink
  /// is the replay itself, and no trace is stored. Replaces any source set
  /// before (and a later source replaces it).
  Session& live(Generator gen);

  Session& region(MclRegion r);
  /// Scan MiniC source text for the //@mcl-begin / //@mcl-end markers.
  Session& region_from_markers(const std::string& source_text,
                               const std::string& function = "main");

  Session& options(const AnalysisOptions& opts);

  /// Run the pipeline: read -> one replay (partition, MLI, dependencies) ->
  /// classification. Timings: preprocessing is the source's read time (0 for
  /// memory and live sources), dep_analysis the replay (for a live source the
  /// generator run with it), identify the classification. Throws ac::Error
  /// when no source is set or the region is invalid, ac::AnalysisError when
  /// the region never executes.
  Report run();

 private:
  std::shared_ptr<trace::TraceSource> source_;
  Generator live_;
  MclRegion region_;
  AnalysisOptions opts_;
};

}  // namespace ac::analysis
