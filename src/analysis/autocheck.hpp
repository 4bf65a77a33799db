// The AutoCheck report (paper Fig. 2): what pre-processing -> data dependency
// analysis -> identification of critical variables produces, with the
// per-phase wall-clock breakdown that Table III reports. The pipeline that
// fills it is analysis/session.hpp (Session / SessionStream). Every output
// is a function of the Report: render(), to_json(), contracted.to_dot(), and
// protect_calls() with the trace it was computed from.
#pragma once

#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/depanalysis.hpp"
#include "analysis/preprocess.hpp"
#include "analysis/region.hpp"

namespace ac::analysis {

struct Timings {
  double preprocessing = 0;  // trace parse (file path) + partition + MLI
  double dep_analysis = 0;
  double identify = 0;
  double total() const { return preprocessing + dep_analysis + identify; }
};

struct Report {
  MclRegion region;
  PreprocessResult pre;
  DepResult dep;
  ClassifyResult verdicts;
  Ddg contracted;  // Algorithm-1 contraction of dep.complete
  Timings timings;

  const std::vector<CriticalVar>& critical() const { return verdicts.critical; }
  std::vector<std::string> critical_names() const;
  const CriticalVar* find_critical(const std::string& name) const;

  /// Human-readable summary (MLI set, verdicts, timings).
  std::string render() const;

  /// Machine-readable report (region, MLI set, verdicts, timings, stats) —
  /// what downstream C/R tooling consumes to emit Protect() calls. Pass
  /// with_timings = false to drop the wall-clock timings object, making the
  /// bytes a pure function of trace + region — what lets CI diff a
  /// daemon-served report byte-for-byte against a local run.
  std::string to_json(bool with_timings = true) const;

  /// The Fig. 5(e) view: "1: s-Write; 2: s-Read; ..." (first `max_events`).
  std::string render_events(std::size_t max_events = 64) const;
};

/// The paper's downstream story: the CheckpointEngine registration calls
/// (FTI-style Protect()) for every critical variable of `report`, each with
/// the arena address and footprint of its last Alloca in `trace` — the trace
/// the report was computed from. `source_name` (e.g. "file:app.trace") goes
/// into the header comment. A non-empty `codec_spec` (an ac::CodecChain
/// spec, e.g. "xor+rle+lz") adds the engine's codec configuration line; it
/// is emitted verbatim, so validate it with CodecChain::parse first.
std::string protect_calls(const Report& report, const trace::TraceBuffer& trace,
                          const std::string& source_name, const std::string& codec_spec = "");

}  // namespace ac::analysis
