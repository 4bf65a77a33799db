// Ablation studies for the pipeline's design choices:
//   A. MLI identification mode — address-resolved (default) vs the paper's
//      literal name+address matching with callee bypass (§V-B): shows the
//      FT-style global-variable blind spot the paper worked around manually.
//   B. Pipeline variants — in-memory batch, trace file (serial parse), trace
//      file (parallel parse), and the live mode (§IX future work), which runs
//      the program once with the replay as its trace sink: same verdicts,
//      different costs.
//   C. Complete-DDG construction on/off — the DDG is for reporting; the
//      event stream alone carries classification. Prints the with/without
//      ratio, the DDG's overhead on top of the event stream.
//   D. Checkpoint interval — storage written vs rollback distance.
//
// Exits 1 when a B variant, the C DDG-off run or a D restart disagrees with
// its reference. A's disagreements are the paper's documented §V-B
// limitation and stay informational.
#include <cstdio>
#include <map>
#include <string>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace ac;

namespace {

std::map<std::string, std::string> verdicts(const analysis::Report& report) {
  std::map<std::string, std::string> out;
  for (const auto& cv : report.verdicts.critical) {
    out[cv.name] = analysis::dep_type_name(cv.type);
  }
  return out;
}

}  // namespace

int main() {
  bool ok = true;

  // --- A: MLI identification mode -------------------------------------------
  std::printf("=== A. MLI mode: address-resolved vs paper name-match (V.B) ===\n\n");
  TextTable mli_table({"Name", "MLI (address)", "MLI (paper)", "Verdicts agree"});
  for (const auto& app : apps::registry()) {
    const apps::AnalysisRun addr = apps::analyze_app(app);
    analysis::AnalysisOptions paper;
    paper.mli_mode = analysis::MliMode::PaperNameMatch;
    const apps::AnalysisRun named = apps::analyze_app(app, {}, paper);
    const bool agree = verdicts(addr.report) == verdicts(named.report);
    mli_table.add_row({app.name, strf("%zu", addr.report.pre.mli.size()),
                       strf("%zu", named.report.pre.mli.size()),
                       agree ? "yes" : "NO (globals-in-callees blind spot)"});
  }
  std::printf("%s\n", mli_table.render().c_str());

  // --- B: pipeline variants ---------------------------------------------------
  std::printf("=== B. Pipeline variants on CG (Table II input) ===\n\n");
  {
    const apps::App& app = apps::find_app("CG");
    const auto params = app.table2_params;

    WallTimer t;
    const apps::AnalysisRun batch = apps::analyze_app(app, params);
    const double batch_s = t.seconds();

    const std::string serial_path = "/tmp/ac_ablation_cg.trace";
    t.reset();
    const apps::FileAnalysisRun file_serial = apps::analyze_app_via_file(app, params, serial_path);
    const double file_s = t.seconds();

    // Ablate only the §V-A parallel read: the variants differ in one knob.
    analysis::AnalysisOptions par;
    par.threads = analysis::default_thread_count();
    const std::string parallel_path = "/tmp/ac_ablation_cg_p.trace";
    t.reset();
    const apps::FileAnalysisRun file_parallel =
        apps::analyze_app_via_file(app, params, parallel_path, par);
    const double file_p = t.seconds();

    t.reset();
    const apps::StreamingRun streaming = apps::analyze_app_streaming(app, params);
    const double stream_s = t.seconds();
    // Deleted only after every timed variant: freeing a 116 MiB file right
    // before the next variant slows that variant's own trace write.
    std::remove(serial_path.c_str());
    std::remove(parallel_path.c_str());

    const bool all_agree = verdicts(batch.report) == verdicts(file_serial.report) &&
                           verdicts(batch.report) == verdicts(file_parallel.report) &&
                           verdicts(batch.report) == verdicts(streaming.report);

    TextTable table({"Variant", "End-to-end (s)", "Notes"});
    table.add_row({"in-memory batch", strf("%.3f", batch_s), "records held in RAM"});
    table.add_row({"trace file, serial parse", strf("%.3f", file_s),
                   strf("%s on disk", human_bytes(file_serial.trace_bytes).c_str())});
    table.add_row({"trace file, parallel parse", strf("%.3f", file_p), "paper V.A optimization"});
    table.add_row({"live (1 VM pass)", strf("%.3f", stream_s),
                   "no trace materialized (paper IX)"});
    std::printf("%sAll variants produce identical verdicts: %s\n\n", table.render().c_str(),
                all_agree ? "yes" : "NO");
    ok = ok && all_agree;
  }

  // --- C: DDG on/off -----------------------------------------------------------
  std::printf("=== C. Complete-DDG construction cost (CG, Table II input) ===\n\n");
  {
    const apps::App& app = apps::find_app("CG");
    analysis::AnalysisOptions with_ddg;
    analysis::AnalysisOptions without_ddg;
    without_ddg.build_ddg = false;
    const apps::AnalysisRun a = apps::analyze_app(app, app.table2_params, with_ddg);
    const apps::AnalysisRun b = apps::analyze_app(app, app.table2_params, without_ddg);
    std::printf("  dependency analysis with DDG:    %.4fs (%d nodes, %zu edges)\n",
                a.report.timings.dep_analysis, a.report.dep.complete.num_nodes(),
                a.report.dep.complete.num_edges());
    std::printf("  dependency analysis without DDG: %.4fs\n", b.report.timings.dep_analysis);
    // The DDG never decides a verdict, so its cost is reported relative to
    // the event stream alone.
    std::printf("  DDG overhead (with / without):   %.2fx\n",
                a.report.timings.dep_analysis / b.report.timings.dep_analysis);
    const bool same = verdicts(a.report) == verdicts(b.report);
    std::printf("  identical verdicts: %s\n\n", same ? "yes" : "NO");
    ok = ok && same;
  }

  // --- D: checkpoint interval ---------------------------------------------------
  std::printf("=== D. Checkpoint interval: storage written vs rollback distance (LU) ===\n\n");
  {
    const apps::App& app = apps::find_app("LU");
    const apps::AnalysisRun run = apps::analyze_app(app);
    TextTable table({"Interval", "Ckpts", "Bytes written", "Rollback from iter 5", "Restart"});
    const auto names = run.report.critical_names();
    for (int interval : {1, 2, 3}) {
      // A whole run counts what the interval writes; a run killed at
      // iteration 5 shows how far the restart rolls back.
      const ckpt::EngineConfig cfg =
          apps::validation_config("/tmp", strf("lu_interval_%d", interval), interval);
      const ckpt::EngineStats whole =
          apps::run_with_engine(run.module, run.region, names, cfg).stats;
      const auto v = apps::validate_cr(run.module, run.region, names, 5, cfg);
      table.add_row({strf("%d", interval), strf("%lld", static_cast<long long>(whole.checkpoints)),
                     human_bytes(whole.l1_bytes),
                     strf("%lld iter(s)", static_cast<long long>(4 - v.recovered_iteration)),
                     v.restart_matches ? "success" : "FAILED"});
      ok = ok && v.restart_matches;
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nLarger intervals write fewer checkpoints but re-execute more iterations\n"
                "after a failure — the classic C/R interval trade-off (paper II.B).\n");
  }
  if (!ok) std::printf("\nFAILED: a B, C or D check disagreed (see above)\n");
  return ok ? 0 : 1;
}
