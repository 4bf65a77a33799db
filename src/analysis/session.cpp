#include "analysis/session.hpp"

#include <thread>
#include <utility>

#include "support/error.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace ac::analysis {

// --- options ---------------------------------------------------------------

int default_thread_count() {
  const unsigned n = std::thread::hardware_concurrency();
  return n > 0 ? static_cast<int>(n) : 1;
}

// --- builder ---------------------------------------------------------------

Session& Session::source(std::shared_ptr<trace::TraceSource> src) {
  source_ = std::move(src);
  live_ = nullptr;
  return *this;
}

Session& Session::file(const std::string& path) {
  return source(std::make_shared<trace::FileSource>(path));
}

Session& Session::buffer(trace::TraceBuffer&& buf) {
  return source(std::make_shared<trace::MemorySource>(std::move(buf)));
}

Session& Session::live(Generator gen) {
  source_.reset();
  live_ = std::move(gen);
  return *this;
}

Session& Session::region(MclRegion r) {
  region_ = std::move(r);
  return *this;
}

Session& Session::region_from_markers(const std::string& source_text,
                                      const std::string& function) {
  return region(find_mcl_region(source_text, function));
}

Session& Session::options(const AnalysisOptions& opts) {
  opts_ = opts;
  return *this;
}

// --- pipeline --------------------------------------------------------------

Report Session::run() {
  AC_CHECK(source_ != nullptr || live_ != nullptr, "Session: no trace source configured");
  AC_CHECK(region_.begin_line > 0 && region_.end_line >= region_.begin_line,
           "Session: invalid MCL region (set region() or region_from_markers())");
  AC_SPAN("analysis.session");
  Report report;
  report.region = region_;

  Replay replay;
  WallTimer timer;
  if (live_) {
    AC_SPAN("analysis.dep");
    DepAnalyzer analyzer(region_, opts_);
    live_(analyzer);
    replay = analyzer.finish();
  } else {
    // The batch replay runs on the interned span-based representation; no
    // owning record is ever materialized.
    source_->set_read_threads(opts_.threads);
    const trace::TraceBuffer& buf = source_->buffer();
    // The paper attributes the trace parse to pre-processing (it dominates);
    // in-memory sources contribute zero.
    report.timings.preprocessing = source_->read_seconds();
    timer.reset();
    AC_SPAN("analysis.dep");
    replay = dep_analysis(buf, region_, opts_);
  }
  report.timings.dep_analysis = timer.seconds();
  report.pre = std::move(replay.pre);
  report.dep = std::move(replay.dep);

  timer.reset();
  report.verdicts = classify(report.dep, report.pre);
  if (opts_.build_ddg) report.contracted = report.dep.complete.contract();
  report.timings.identify = timer.seconds();
  return report;
}

}  // namespace ac::analysis
