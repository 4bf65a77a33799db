// Experiment harness tying the whole reproduction together: compile a
// benchmark, trace it, run AutoCheck, and perform the paper's validation
// methodology (§VI-B) — checkpoint the identified variables through the
// CheckpointEngine, inject a fail-stop, restart, and compare final output
// with a failure-free run; plus the Table IV storage measurements against the
// BLCR-style full-image baseline. The paper does both through FTI at level
// L1; validation_config() is that store.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "ckpt/blcr.hpp"
#include "ckpt/engine.hpp"
#include "vm/interp.hpp"

namespace ac::apps {

/// Compile + trace + analyze one benchmark instance. All three analyze_*
/// flavors run the analysis::Session pipeline — over a MemorySource, a live
/// VM generator, or a FileSource respectively — so they differ only in where
/// the records come from (AnalysisOptions::threads is the FileSource read
/// budget).
struct AnalysisRun {
  ir::Module module;
  analysis::MclRegion region;
  analysis::Report report;
  vm::RunResult trace_run;        // the traced execution
  std::uint64_t trace_records = 0;
};

AnalysisRun analyze_app(const App& app, const Params& params = {},
                        const analysis::AnalysisOptions& opts = {});

/// Trace-file-free analysis (paper §IX future work, see SessionStream in
/// analysis/session.hpp): the VM feeds the analyzer directly, executing the
/// deterministic program twice — pass 1 identifies the MLI variables, pass 2
/// runs the dependency analysis. Each VM RecordView goes straight to the
/// streaming analyzers; no trace is ever materialized, in memory or on disk.
/// Timings: preprocessing = pass 1 (execution + MLI), dep_analysis = pass 2,
/// identify = classification.
struct StreamingRun {
  ir::Module module;
  analysis::MclRegion region;
  analysis::Report report;
  std::uint64_t records_streamed = 0;  // records of one pass (pre.records_scanned)
};

StreamingRun analyze_app_streaming(const App& app, const Params& params = {},
                                   const analysis::AnalysisOptions& opts = {});

/// Same, but stream the trace to `trace_path` and parse it back (the paper's
/// actual file-based workflow; used for Tables II/III). `format` selects the
/// on-disk representation: the LLVM-Tracer text blocks or the binary MCTB
/// container (read back through the same auto-detecting FileSource).
struct FileAnalysisRun {
  analysis::Report report;
  std::uint64_t trace_bytes = 0;
  double trace_generation_seconds = 0;
  std::uint64_t trace_records = 0;
  double trace_read_seconds = 0;  // FileSource parse/decode time
};

FileAnalysisRun analyze_app_via_file(const App& app, const Params& params,
                                     const std::string& trace_path,
                                     const analysis::AnalysisOptions& opts = {},
                                     trace::TraceFormat format = trace::TraceFormat::Text);

/// The paper's validation store (FTI level L1): engine files under `dir`
/// keyed by `tag`, raw codec, a full image at every commit, inline
/// writeback, committing every `interval` completed iterations (N, 2N, ...).
ckpt::EngineConfig validation_config(const std::string& dir, const std::string& tag,
                                     int interval = 1);

/// C/R validation: run with the engine attached, inject a fail-stop at
/// iteration `fail_at`, restart from engine.recover() in a fresh engine, and
/// diff final outputs against a failure-free execution.
struct ValidationResult {
  bool restart_matches = false;
  std::string reference_output;
  std::string restart_output;
  std::int64_t recovered_iteration = -1;  // iteration of the recovered image
  ckpt::EngineStats stats;                // from the failing run
};

ValidationResult validate_cr(const ir::Module& module, const analysis::MclRegion& region,
                             const std::vector<std::string>& protect, int fail_at,
                             const ckpt::EngineConfig& cfg);

/// Convenience: analyze `app` and validate the AutoCheck-identified set
/// (the default tag "engine" becomes "<app>_engine").
ValidationResult validate_app(const App& app, const Params& params, int fail_at,
                              const ckpt::EngineConfig& cfg);

/// Run a module once with an engine attached (no fault injection unless
/// fail_at > 0); returns the run result and the engine's storage stats.
struct EngineRunResult {
  vm::RunResult run;
  ckpt::EngineStats stats;
};

EngineRunResult run_with_engine(const ir::Module& module, const analysis::MclRegion& region,
                                const std::vector<std::string>& protect,
                                const ckpt::EngineConfig& cfg, int fail_at = -1);

/// Table IV storage measurement: the BLCR-style full-machine image versus the
/// validation store's checkpoint file of the protected variables (one full
/// L1 record), both at the loop's widest state.
struct StorageResult {
  std::uint64_t blcr_bytes = 0;
  std::uint64_t autocheck_bytes = 0;
};

StorageResult measure_storage(const App& app, const Params& params,
                              const std::vector<std::string>& protect,
                              const std::string& work_dir);

}  // namespace ac::apps
