#include "apps/harness.hpp"

#include "minic/compiler.hpp"
#include "support/error.hpp"
#include "support/timer.hpp"
#include "trace/mctb.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"

namespace ac::apps {

AnalysisRun analyze_app(const App& app, const Params& params,
                        const analysis::AnalysisOptions& opts) {
  AnalysisRun run;
  const std::string src = app.source(params);
  run.module = minic::compile(src);
  run.region = app.mcl();

  // The VM emits straight into the interned buffer: no owning TraceRecord
  // representation of the trace ever exists on this path.
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  run.trace_run = vm::run_module(run.module, ropts);
  run.trace_records = sink.count();
  run.report = analysis::Session()
                   .buffer(sink.take())
                   .region(run.region)
                   .options(opts)
                   .run();
  return run;
}

StreamingRun analyze_app_streaming(const App& app, const Params& params,
                                   const analysis::AnalysisOptions& opts) {
  StreamingRun run;
  const std::string src = app.source(params);
  run.module = minic::compile(src);
  run.region = app.mcl();

  // The VM is the live generator: it runs once, emitting into the replay,
  // and no trace is materialized, in memory or on disk.
  run.report = analysis::Session()
                   .live([&run](trace::TraceSink& sink) {
                     vm::RunOptions ropts;
                     ropts.sink = &sink;
                     vm::run_module(run.module, ropts);
                   })
                   .region(run.region)
                   .options(opts)
                   .run();
  run.records_streamed = run.report.pre.records_scanned;
  return run;
}

FileAnalysisRun analyze_app_via_file(const App& app, const Params& params,
                                     const std::string& trace_path,
                                     const analysis::AnalysisOptions& opts,
                                     trace::TraceFormat format) {
  FileAnalysisRun out;
  const std::string src = app.source(params);
  const ir::Module module = minic::compile(src);

  const auto trace_into = [&](trace::TraceSink& sink) {
    vm::RunOptions ropts;
    ropts.sink = &sink;
    vm::run_module(module, ropts);
    out.trace_records = sink.count();
  };
  // Generation time includes the file write.
  WallTimer gen_timer;
  if (format == trace::TraceFormat::Mctb) {
    trace::BufferSink sink;
    trace_into(sink);
    out.trace_bytes = trace::write_mctb_file(sink.buffer(), trace_path);
  } else {
    trace::FileSink sink(trace_path);
    trace_into(sink);
    sink.close();
    out.trace_bytes = sink.bytes();
  }
  out.trace_generation_seconds = gen_timer.seconds();

  auto source = std::make_shared<trace::FileSource>(trace_path);
  out.report =
      analysis::Session().source(source).region(app.mcl()).options(opts).run();
  out.trace_read_seconds = source->read_seconds();
  return out;
}

EngineRunResult run_with_engine(const ir::Module& module, const analysis::MclRegion& region,
                                const std::vector<std::string>& protect,
                                const ckpt::EngineConfig& cfg, int fail_at) {
  ckpt::CheckpointEngine engine(cfg);
  for (const auto& name : protect) engine.protect(name);

  vm::RunOptions ropts;
  ropts.mcl = region;
  ropts.engine = &engine;
  ropts.fail_at_iteration = fail_at;

  EngineRunResult out;
  out.run = vm::run_module(module, ropts);
  out.stats = engine.stats();
  return out;
}

ckpt::EngineConfig validation_config(const std::string& dir, const std::string& tag,
                                     int interval) {
  ckpt::EngineConfig cfg;
  cfg.dir = dir;
  cfg.tag = tag;
  cfg.deltas_per_full = 0;
  cfg.policy = std::make_shared<ckpt::FixedIntervalPolicy>(interval);
  return cfg;
}

ValidationResult validate_cr(const ir::Module& module, const analysis::MclRegion& region,
                             const std::vector<std::string>& protect, int fail_at,
                             const ckpt::EngineConfig& cfg) {
  ValidationResult out;

  // Failure-free reference run.
  {
    vm::RunOptions ropts;
    const vm::RunResult ref = vm::run_module(module, ropts);
    out.reference_output = ref.output;
  }

  // The restart "process": an engine that never commits, so it is as fresh
  // as a new one. It empties the storage before the failing run and removes
  // the logs on every way out, throws included.
  ckpt::CheckpointEngine restart(cfg);
  restart.reset();
  try {
    // Failing run with the engine attached. That engine is scoped to
    // run_with_engine: the "process" died.
    const EngineRunResult failed = run_with_engine(module, region, protect, cfg, fail_at);
    out.stats = failed.stats;
    if (!failed.run.failed) {
      throw Error("validate_cr: failure injection did not fire "
                  "(fail_at beyond the loop's iteration count?)");
    }

    // The restart recovers the latest durable state, which the VM applies
    // right before the main loop.
    if (!restart.has_checkpoint()) throw Error("validate_cr: no checkpoint was written");
    const ckpt::CheckpointImage img = restart.recover();
    out.recovered_iteration = img.iteration();
    vm::RunOptions ropts;
    ropts.mcl = region;
    ropts.restore = &img;
    out.restart_output = vm::run_module(module, ropts).output;
  } catch (...) {
    restart.reset();
    throw;
  }
  restart.reset();

  out.restart_matches = out.restart_output == out.reference_output;
  return out;
}

ValidationResult validate_app(const App& app, const Params& params, int fail_at,
                              const ckpt::EngineConfig& cfg) {
  AnalysisRun run = analyze_app(app, params);
  ckpt::EngineConfig tagged = cfg;
  if (tagged.tag == "engine") tagged.tag = app.name + "_engine";
  return validate_cr(run.module, run.region, run.report.critical_names(), fail_at, tagged);
}

StorageResult measure_storage(const App& app, const Params& params,
                              const std::vector<std::string>& protect,
                              const std::string& work_dir) {
  StorageResult out;
  const std::string src = app.source(params);
  const ir::Module module = minic::compile(src);
  const analysis::MclRegion region = app.mcl();

  ckpt::CheckpointEngine engine(validation_config(work_dir, app.name + "_storage"));
  engine.reset();
  for (const auto& name : protect) engine.protect(name);
  ckpt::MachineState widest;

  vm::RunOptions ropts;
  ropts.mcl = region;
  ropts.engine = &engine;
  ropts.on_machine_state = [&](const ckpt::MachineState& st) {
    if (st.arena_bytes > widest.arena_bytes) widest = st;
  };
  vm::run_module(module, ropts);

  // Every commit is a full record of the same variables, so each one is the
  // size of the checkpoint file on disk. Once measured, the log is removed.
  const ckpt::EngineStats stats = engine.stats();
  engine.reset();
  out.autocheck_bytes = stats.checkpoints ? stats.l1_bytes / stats.checkpoints : 0;
  out.blcr_bytes = ckpt::BlcrSim::footprint(widest).total();
  return out;
}

}  // namespace ac::apps
