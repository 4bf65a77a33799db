// Table III reproduction: AutoCheck's per-phase analysis cost on every
// benchmark — pre-processing (trace parse + partition + MLI) without and with
// the §V-A parallel trace reading, dependency analysis, and identification.
// Averaged over several runs, as in the paper.
#include <cstdio>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ac;

int main() {
  constexpr int kRuns = 3;

  std::printf("=== Table III: analysis cost breakdown (seconds, avg of %d runs) ===\n\n", kRuns);
  TextTable table({"Name", "Pre-processing (w/ parallel read)", "Dependency analysis",
                   "Identify", "Total (w/ parallel read)"});

  double grand_total = 0, grand_total_par = 0;

  for (const auto& app : apps::registry()) {
    const std::string trace_path = "/tmp/ac_table3_" + app.name + ".trace";
    // Generate the trace once; timing below covers the analysis only.
    apps::analyze_app_via_file(app, app.table2_params, trace_path);
    const auto region = app.mcl();

    analysis::Timings serial{}, parallel{};
    for (int i = 0; i < kRuns; ++i) {
      analysis::AnalysisOptions opts;
      opts.build_ddg = false;  // Table III measures the identification pipeline
      auto rep = analysis::Session().file(trace_path).region(region).options(opts).run();
      serial.preprocessing += rep.timings.preprocessing / kRuns;
      serial.dep_analysis += rep.timings.dep_analysis / kRuns;
      serial.identify += rep.timings.identify / kRuns;

      // threads > 1 parallelizes the trace read (the paper's OpenMP column).
      opts.threads = analysis::default_thread_count();
      auto rep_p = analysis::Session().file(trace_path).region(region).options(opts).run();
      parallel.preprocessing += rep_p.timings.preprocessing / kRuns;
      parallel.dep_analysis += rep_p.timings.dep_analysis / kRuns;
      parallel.identify += rep_p.timings.identify / kRuns;
    }

    grand_total += serial.total();
    grand_total_par += parallel.total();
    table.add_row({app.name,
                   strf("%.4f (%.4f)", serial.preprocessing, parallel.preprocessing),
                   strf("%.4f", serial.dep_analysis), strf("%.4f", serial.identify),
                   strf("%.4f (%.4f)", serial.total(), parallel.total())});
  }

  std::printf("%s\n", table.render().c_str());
  std::printf("Sum over all 14 benchmarks: %.4fs serial, %.4fs with parallel read.\n"
              "Shape checks vs the paper: pre-processing (trace reading) dominates, and\n"
              "total time is linear in trace size.\n",
              grand_total, grand_total_par);
  return 0;
}
