// End-to-end Checkpoint/Restart demonstration (paper §VI-B) through the
// CheckpointEngine: run HPCCG, register the AutoCheck-identified variables
// with the engine (the paper's Protect()-emission story), checkpoint
// incrementally with asynchronous multi-level writeback, inject a fail-stop
// mid-loop, then restart from the recovered image and show that the final
// output matches the failure-free execution — and that restarting *without*
// a protected variable diverges.
//
// Build & run:  ./example_failure_recovery
#include <cstdio>

#include "apps/harness.hpp"
#include "support/strings.hpp"

int main() {
  const ac::apps::App& app = ac::apps::find_app("HPCCG");
  const ac::apps::AnalysisRun run = ac::apps::analyze_app(app);

  std::printf("=== HPCCG failure/recovery walkthrough (CheckpointEngine) ===\n\n");
  std::printf("AutoCheck identified %zu variables to checkpoint: %s\n\n",
              run.report.verdicts.critical.size(),
              ac::join(run.report.critical_names(), ", ").c_str());

  // The engine consumes the analysis report directly — the same names could
  // come from the report's to_json() output via register_report_json().
  ac::ckpt::EngineConfig cfg;
  cfg.dir = "/tmp/ac_example";
  cfg.partner_dir = "/tmp/ac_example_partner";
  cfg.tag = "example_hpccg_engine";
  cfg.level = ac::ckpt::EngineLevel::L2;  // local file + partner replica
  cfg.deltas_per_full = 8;                // deltas of dirty cells between full records
  cfg.async = true;                       // background writeback

  const int fail_at = 5;
  const auto v =
      ac::apps::validate_cr(run.module, run.region, run.report.critical_names(), fail_at, cfg);

  std::printf("1. Failure-free run output:\n%s\n", v.reference_output.c_str());
  std::printf("2. Run with a fail-stop injected at iteration %d — the engine committed\n"
              "   %lld checkpoints (%lld full + %lld incremental), %s to local storage;\n"
              "   an equivalent all-full stream would have been %s.\n\n",
              fail_at, static_cast<long long>(v.stats.checkpoints),
              static_cast<long long>(v.stats.full_checkpoints),
              static_cast<long long>(v.stats.delta_checkpoints),
              ac::human_bytes(v.stats.l1_bytes).c_str(),
              ac::human_bytes(v.stats.full_equiv_bytes).c_str());
  std::printf("3. Restart (initialization re-executes, then the recovered image — base\n"
              "   plus delta chain, iteration %lld — is restored right before the main\n"
              "   loop) output:\n%s\n",
              static_cast<long long>(v.recovered_iteration), v.restart_output.c_str());
  std::printf("=> restart %s the failure-free output\n\n",
              v.restart_matches ? "REPRODUCES" : "DIVERGES FROM");

  // Negative control: drop `x` (the CG solution vector) from the protected set.
  std::vector<std::string> without_x;
  for (const auto& n : run.report.critical_names()) {
    if (n != "x") without_x.push_back(n);
  }
  ac::ckpt::EngineConfig broken_cfg = cfg;
  broken_cfg.tag = "example_hpccg_engine_without_x";
  const auto broken =
      ac::apps::validate_cr(run.module, run.region, without_x, fail_at, broken_cfg);
  std::printf("Negative control — restart without checkpointing x:\n%s\n",
              broken.restart_output.c_str());
  std::printf("=> %s (as expected: x carries Write-After-Read state)\n",
              broken.restart_matches ? "unexpectedly matched!" : "diverges");
  return v.restart_matches && !broken.restart_matches ? 0 : 1;
}
