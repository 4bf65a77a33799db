// §VI-B reproduction: validation and characterization of the identified
// variables. For each benchmark: checkpoint the identified set through the
// validation store (engine L1, raw codec, full image per commit),
// raise a fail-stop mid-loop (the paper uses raise(SIGTERM)), restart, and
// compare the final output with a failure-free execution. Then the
// false-positive check: ablate one identified variable at a time and observe
// whether the restart still reproduces the output.
#include <cstdio>
#include <set>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ac;

int main() {
  std::printf("=== Validation: restart after injected fail-stop (paper 6.B) ===\n\n");
  TextTable table({"Name", "#Critical", "Ckpts written", "Restart@3", "Restart@5"});

  int ok = 0;
  for (const auto& app : apps::registry()) {
    const apps::AnalysisRun run = apps::analyze_app(app);
    const auto v3 = apps::validate_cr(run.module, run.region, run.report.critical_names(), 3,
                                      apps::validation_config("/tmp", app.name + "_v3"));
    const auto v5 = apps::validate_cr(run.module, run.region, run.report.critical_names(), 5,
                                      apps::validation_config("/tmp", app.name + "_v5"));
    ok += (v3.restart_matches && v5.restart_matches) ? 1 : 0;
    table.add_row({app.name, strf("%zu", run.report.verdicts.critical.size()),
                   strf("%lld", static_cast<long long>(v3.stats.checkpoints)),
                   v3.restart_matches ? "success" : "FAILED",
                   v5.restart_matches ? "success" : "FAILED"});
  }
  std::printf("%s\nBenchmarks restarting successfully: %d/14\n\n", table.render().c_str(), ok);

  // False-positive / necessity sweep on a representative subset (the full
  // sweep is part of the test suite). Three variables are benign by
  // construction — their values are reproduced by post-failure execution
  // (final_res_norm: written by the last iteration; done: recomputed every
  // iteration; tmin: its minimum occurs after the injected failure point) —
  // annotated below rather than counted as false positives.
  const std::set<std::string> benign = {"final_res_norm", "done", "tmin"};
  std::printf("=== Ablation: disable C/R for one identified variable at a time ===\n\n");
  for (const char* name : {"CG", "HPCCG", "IS", "FT", "miniAMR"}) {
    const apps::App& app = apps::find_app(name);
    const apps::AnalysisRun run = apps::analyze_app(app);
    const auto names = run.report.critical_names();
    std::printf("%s:\n", name);
    for (const auto& drop : names) {
      std::vector<std::string> subset;
      for (const auto& n : names) {
        if (n != drop) subset.push_back(n);
      }
      const auto v =
          apps::validate_cr(run.module, run.region, subset, 3,
                            apps::validation_config("/tmp", std::string(name) + "_ab_" + drop));
      const char* verdict = v.restart_matches
                                ? (benign.count(drop) ? "benign (recomputed; see EXPERIMENTS.md)"
                                                      : "NOT NECESSARY (false positive!)")
                                : "necessary (restart diverges without it)";
      std::printf("  - drop %-22s -> %s\n", drop.c_str(), verdict);
    }
  }
  return ok == 14 ? 0 : 1;
}
