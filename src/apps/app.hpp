// The 14-benchmark suite of the paper's evaluation (Table II), ported to
// MiniC at the dataflow level: each port preserves its original's main-loop
// read/write dependency structure and critical-variable names, so AutoCheck
// must reproduce the paper's verdict for each (see DESIGN.md, substitutions).
//
// Sources are templates with ${knob} size parameters; the MCL region is
// marked with //@mcl-begin / //@mcl-end.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/region.hpp"

namespace ac::apps {

using Params = std::vector<std::pair<std::string, std::string>>;

struct ExpectedVar {
  std::string name;
  analysis::DepType type;
};

struct App {
  std::string name;         // paper's benchmark name, e.g. "CG"
  std::string description;  // Table II description column
  std::string source_template;
  Params default_params;    // unit-test scale
  Params table2_params;     // Table II reproduction scale
  Params table4_params;     // Table IV (storage) scale
  /// Iteration knobs that grow linearly under `harness --scale N` (declared
  /// per app: multiplying a *size* knob would scale work superlinearly).
  std::vector<std::string> scale_knobs;
  std::vector<ExpectedVar> expected;  // the paper's Table II verdicts
  std::string paper_mclr;   // the paper's MCLR column, for the report

  /// Instantiate the MiniC source with the given (or default) knobs.
  std::string source(const Params& params) const;
  std::string source() const { return source(default_params); }

  /// `base` with every scale_knob multiplied by `scale` (scale 1 = base):
  /// the `--scale` workload profile, trace size growing ~linearly in N.
  Params scaled_params(const Params& base, int scale) const;

  /// MCL region of the instantiated source (markers don't move with knobs).
  analysis::MclRegion mcl() const;
};

/// All 14 benchmarks, in the paper's Table II order.
const std::vector<App>& registry();

/// Lookup by name; throws ac::Error for unknown benchmarks.
const App& find_app(const std::string& name);

// One factory per benchmark (each in its own translation unit).
App make_himeno();
App make_hpccg();
App make_cg();
App make_mg();
App make_ft();
App make_sp();
App make_ep();
App make_is();
App make_bt();
App make_lu();
App make_comd();
App make_miniamr();
App make_amg();
App make_hacc();

}  // namespace ac::apps
