// The experiment harness CLI: compile + trace + analyze a mini-app, then
// exercise the checkpoint/restart path end-to-end with fault injection.
//
//   harness <APP|all> [--fail-at-iter N] [options]
//
// The C/R path is validate_cr over the CheckpointEngine: report-driven
// registration, policy-driven cadence (--policy fixed:N commits every N
// iterations), incremental deltas, multi-level storage and asynchronous
// writeback. A bad option value exits 2 with an error naming the flag.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "trace/mctb.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: harness <APP|all> [options]\n"
               "  --analyze            analysis-only profile: trace + analyze each app; the\n"
               "                       verdicts must be the paper's Table II verdicts\n"
               "  --scale N            multiply each app's iteration knobs by N (with\n"
               "                       --analyze; default 1 = Table II laptop scale)\n"
               "  --threads T          worker budget for trace-file reads (default 4)\n"
               "  --trace-format F     with --analyze: route the trace through a file in\n"
               "                       format F (text | mctb) and read it back\n"
               "  --fail-at-iter N     inject a fail-stop at iteration N (default 5)\n"
               "  --dir DIR            checkpoint directory (default /tmp)\n"
               "  --partner-dir DIR    L2 replica directory (default <dir>/partner)\n"
               "  --level 1|2|3        storage level: local/partner/archive (default 1)\n"
               "  --full-only          no delta records: every commit is full\n"
               "  --full-every N       N delta records between full records (default 8)\n"
               "  --sync               synchronous writeback (default: async)\n"
               "  --ckpt-codec SPEC    payload codec chain: raw | rle | lz | xor+rle | chain\n"
               "                       (= xor+rle+lz); per level: l1=rle,l3=chain\n"
               "  --policy P           fixed:N | young:MTBF_S | daly:MTBF_S (default fixed:1)\n"
               "  --profile OUT.json   record telemetry spans, write a Chrome trace-event\n"
               "                       profile (load in chrome://tracing or Perfetto); with\n"
               "                       --analyze, runs the full profiled pipeline (parse,\n"
               "                       codec, classify, checkpoint) instead of the verdict\n"
               "                       identity table\n"
               "  --metrics OUT.json   write the flat metrics registry JSON\n"
               "apps: all");
  for (const auto& app : ac::apps::registry()) std::fprintf(stderr, ", %s", app.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::shared_ptr<ac::ckpt::IntervalPolicy> parse_policy(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "fixed") {
    return std::make_shared<ac::ckpt::FixedIntervalPolicy>(
        arg.empty() ? 1 : ac::parse_int_arg("--policy fixed:N", arg.c_str(), 1));
  }
  if (kind == "young" || kind == "daly") {
    double mtbf = 60.0;
    if (!arg.empty()) {
      try {
        mtbf = ac::parse_f64(arg);
      } catch (const ac::Error&) {
        mtbf = 0;  // reported below, naming the flag
      }
      if (!(mtbf > 0)) {
        throw ac::Error("--policy " + kind + ":MTBF_S expects a number > 0, got '" + arg + "'");
      }
    }
    return std::make_shared<ac::ckpt::YoungDalyPolicy>(
        mtbf, kind == "young" ? ac::ckpt::YoungDalyPolicy::Order::Young
                              : ac::ckpt::YoungDalyPolicy::Order::Daly);
  }
  throw ac::Error("unknown policy spec: " + spec + " (want fixed:N, young:M or daly:M)");
}

/// "rle" applies one chain to every level; "l1=rle,l3=xor+rle+lz" sets levels
/// individually (unnamed items apply to all levels, later items win). Empty
/// items (stray commas) are dropped rather than resetting anything to raw.
void parse_codec_spec(ac::ckpt::EngineConfig& cfg, const std::string& spec) {
  const auto items = ac::split(spec, ',');
  if (items.empty()) throw ac::Error("empty --ckpt-codec spec");
  for (const std::string& item : items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      cfg.set_codecs(ac::CodecChain::parse(item));
      continue;
    }
    const std::string level = item.substr(0, eq);
    const ac::CodecChain chain = ac::CodecChain::parse(item.substr(eq + 1));
    if (level == "l1") {
      cfg.l1_codec = chain;
    } else if (level == "l2") {
      cfg.l2_codec = chain;
    } else if (level == "l3") {
      cfg.l3_codec = chain;
    } else {
      throw ac::Error("unknown codec level '" + level + "' (want l1, l2 or l3)");
    }
  }
}

/// Paper §VII: the variables to checkpoint, with their dependency types, do
/// not change with the input size — so at any --scale the verdicts must be
/// the app's Table II row.
bool matches_paper(const ac::apps::App& app, const ac::analysis::ClassifyResult& verdicts) {
  std::map<std::string, ac::analysis::DepType> want, got;
  for (const auto& e : app.expected) want[e.name] = e.type;
  for (const auto& cv : verdicts.critical) got[cv.name] = cv.type;
  return want == got;
}

/// Print the table and the verdict line shared by both --analyze profiles.
int finish_analyze(const ac::TextTable& table, int failures, std::size_t apps, int scale) {
  std::printf("%s\n", table.render().c_str());
  if (failures) {
    std::printf("%d app(s) FAILED (verdicts differ from Table II or analysis threw)\n",
                failures);
    return 1;
  }
  std::printf("all %zu app(s): verdicts match Table II at scale %d\n", apps, scale);
  return 0;
}

/// The `--scale` workload profile: compile each app at its Table II knobs
/// with the iteration knobs multiplied by `scale`, trace it into memory and
/// analyze it; timings show how each phase grows on bigger-than-seed inputs.
int run_analyze(const std::vector<ac::apps::App>& apps, int scale) {
  std::printf("=== analysis profile: --scale %d (Table II iteration knobs x%d) ===\n\n", scale,
              scale);
  ac::TextTable table({"App", "Records", "MLI", "#Crit", "Pre s", "Dep s", "Id s", "Verdicts"});
  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
      ac::analysis::AnalysisOptions opts;
      opts.build_ddg = false;
      const ac::apps::AnalysisRun run = ac::apps::analyze_app(app, params, opts);
      const bool match = matches_paper(app, run.report.verdicts);
      if (!match) ++failures;
      table.add_row({app.name, ac::strf("%llu", (unsigned long long)run.trace_records),
                     ac::strf("%zu", run.report.pre.mli.size()),
                     ac::strf("%zu", run.report.verdicts.critical.size()),
                     ac::strf("%.3f", run.report.timings.preprocessing),
                     ac::strf("%.3f", run.report.timings.dep_analysis),
                     ac::strf("%.3f", run.report.timings.identify),
                     match ? "MATCH" : "DIVERGED"});
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }
  return finish_analyze(table, failures, apps.size(), scale);
}

/// The `--analyze --trace-format F` profile: the trace goes through a file in
/// the chosen on-disk format and is read back through the auto-detecting
/// FileSource on `threads` workers — the paper's file-based workflow,
/// measurable per format.
int run_analyze_file(const std::vector<ac::apps::App>& apps, int scale, int threads,
                     ac::trace::TraceFormat format) {
  std::printf("=== analysis profile via %s trace files: --scale %d, %d read worker(s) ===\n\n",
              ac::trace::trace_format_name(format), scale, threads);
  ac::TextTable table({"App", "Records", "Trace", "Gen s", "Read s", "Id s", "Verdicts"});
  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
      ac::analysis::AnalysisOptions opts;
      opts.build_ddg = false;
      opts.threads = threads;
      const std::string path =
          "/tmp/ac_harness_" + app.name + "." + ac::trace::trace_format_name(format);
      const ac::apps::FileAnalysisRun fr =
          ac::apps::analyze_app_via_file(app, params, path, opts, format);
      std::remove(path.c_str());
      const bool match = matches_paper(app, fr.report.verdicts);
      if (!match) ++failures;
      table.add_row({app.name, ac::strf("%llu", (unsigned long long)fr.trace_records),
                     ac::human_bytes(fr.trace_bytes),
                     ac::strf("%.3f", fr.trace_generation_seconds),
                     ac::strf("%.3f", fr.trace_read_seconds),
                     ac::strf("%.3f", fr.report.timings.identify),
                     match ? "MATCH" : "DIVERGED"});
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }
  return finish_analyze(table, failures, apps.size(), scale);
}

/// The `--analyze --profile/--metrics` flow: one end-to-end pass per app that
/// exercises every instrumented layer — VM trace generation, text-trace file
/// parse (serial or parallel), MCTB encode + decode, classification, and an
/// engine-backed C/R round — then exports whatever the span rings and
/// the registry recorded. Unlike run_analyze, this path optimizes for profile
/// coverage, not for the verdict table.
int run_profile(const std::vector<ac::apps::App>& apps, int scale, int threads,
                const ac::ckpt::EngineConfig& cfg, int fail_at) {
  namespace tel = ac::telemetry;
  tel::telemetry().enable();
  tel::telemetry().reset();
  tel::metrics().reset();

  std::printf("=== profiled pipeline: --scale %d, %d worker(s) ===\n\n", scale, threads);
  for (const auto& app : apps) {
    const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
    ac::analysis::AnalysisOptions opts;
    opts.build_ddg = false;
    opts.threads = threads;
    opts.telemetry = true;

    // VM trace -> text file -> (parallel) parse -> classify.
    const std::string text_path = "/tmp/ac_profile_" + app.name + ".text";
    const ac::apps::FileAnalysisRun text_run = ac::apps::analyze_app_via_file(
        app, params, text_path, opts, ac::trace::TraceFormat::Text);

    // Same trace through the binary container: MCTB encode + chunked decode.
    const std::string mctb_path = "/tmp/ac_profile_" + app.name + ".mctb";
    {
      ac::trace::FileSource text_source(text_path);
      text_source.set_read_threads(threads);
      ac::trace::write_mctb_file(text_source.buffer(), mctb_path);
    }
    ac::analysis::Session mctb_session;
    mctb_session.file(mctb_path).region(app.mcl()).options(opts);
    const ac::analysis::Report mctb_report = mctb_session.run();
    std::remove(text_path.c_str());
    std::remove(mctb_path.c_str());
    const bool match = text_run.report.verdicts.critical == mctb_report.verdicts.critical;

    // Engine-backed C/R round for the ckpt.* spans and registry counters.
    const ac::apps::AnalysisRun base = ac::apps::analyze_app(app, params, opts);
    ac::ckpt::EngineConfig app_cfg = cfg;
    app_cfg.tag = app.name + "_profile";
    const ac::apps::EngineRunResult engine_run = ac::apps::run_with_engine(
        base.module, base.region, base.report.critical_names(), app_cfg, fail_at);

    std::printf("%s: %llu records, %zu critical, %lld checkpoint(s), verdicts %s\n",
                app.name.c_str(), static_cast<unsigned long long>(text_run.trace_records),
                base.report.verdicts.critical.size(),
                static_cast<long long>(engine_run.stats.checkpoints),
                match ? "MATCH" : "DIVERGED");
    if (!match) return 1;
  }
  std::printf("\n--- span summary ---\n%s\n--- metrics ---\n%s",
              tel::telemetry().summary().c_str(), tel::metrics().summary().c_str());
  return 0;
}

/// Export --profile/--metrics output files; exits loudly on I/O failure.
int export_telemetry(const std::string& profile_path, const std::string& metrics_path) {
  try {
    if (!profile_path.empty()) {
      ac::telemetry::telemetry().write_chrome_trace(profile_path);
      std::printf("telemetry profile written to %s\n", profile_path.c_str());
    }
    if (!metrics_path.empty()) {
      ac::telemetry::metrics().write_json(metrics_path);
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string app_arg = argv[1];

  bool analyze = false;
  bool have_trace_format = false;
  ac::trace::TraceFormat trace_format = ac::trace::TraceFormat::Text;
  int scale = 1;
  int threads = 4;
  int fail_at = 5;
  std::string profile_path;
  std::string metrics_path;
  ac::ckpt::EngineConfig cfg;
  cfg.dir = "/tmp";

  try {
    for (int i = 2; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "missing value for %s\n", arg.c_str());
          std::exit(2);
        }
        return argv[++i];
      };
      if (arg == "--analyze") {
        analyze = true;
      } else if (arg == "--scale") {
        scale = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--threads") {
        threads = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--trace-format") {
        trace_format = ac::trace::parse_trace_format(next());
        have_trace_format = true;
      } else if (arg == "--fail-at-iter") {
        fail_at = ac::parse_int_arg(arg, next(), 2);  // a checkpoint must exist
      } else if (arg == "--dir") {
        cfg.dir = next();
      } else if (arg == "--partner-dir") {
        cfg.partner_dir = next();
      } else if (arg == "--level") {
        const int level = ac::parse_int_arg(arg, next(), 1);
        if (level > 3) throw ac::Error(ac::strf("--level expects 1, 2 or 3, got '%d'", level));
        cfg.level = static_cast<ac::ckpt::EngineLevel>(level);
      } else if (arg == "--full-only") {
        cfg.deltas_per_full = 0;
      } else if (arg == "--full-every") {
        cfg.deltas_per_full = ac::parse_int_arg(arg, next(), 1);
      } else if (arg == "--sync") {
        cfg.async = false;
      } else if (arg == "--ckpt-codec") {
        parse_codec_spec(cfg, next());
      } else if (arg == "--policy") {
        cfg.policy = parse_policy(next());
      } else if (arg == "--profile") {
        profile_path = next();
      } else if (arg == "--metrics") {
        metrics_path = next();
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
        return usage();
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return 2;
  }
  if (cfg.level >= ac::ckpt::EngineLevel::L2 && cfg.partner_dir.empty()) {
    cfg.partner_dir = cfg.dir + "/partner";  // a replica needs its own directory
  }

  std::vector<ac::apps::App> apps;
  try {
    if (app_arg == "all") {
      apps = ac::apps::registry();
    } else {
      apps.push_back(ac::apps::find_app(app_arg));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return usage();
  }

  const bool profiling = !profile_path.empty() || !metrics_path.empty();
  if (profiling) ac::telemetry::telemetry().enable();

  if (analyze) {
    int rc;
    if (profiling) {
      rc = run_profile(apps, scale, threads, cfg, fail_at);
    } else {
      rc = have_trace_format ? run_analyze_file(apps, scale, threads, trace_format)
                             : run_analyze(apps, scale);
    }
    const int export_rc = export_telemetry(profile_path, metrics_path);
    return rc ? rc : export_rc;
  }
  if (have_trace_format) {
    std::fprintf(stderr, "harness: --trace-format requires --analyze\n");
    return 2;
  }

  std::printf("=== C/R harness: CheckpointEngine, fail-stop at iteration %d ===\n\n", fail_at);
  ac::TextTable table({"App", "#Crit", "Ckpts (full+delta)", "Bytes", "vs full", "Codec",
                       "Enc ratio", "Recovered@", "Restart"});

  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::AnalysisRun run = ac::apps::analyze_app(app);
      const auto protect = run.report.critical_names();
      ac::ckpt::EngineConfig app_cfg = cfg;
      app_cfg.tag = app.name + "_harness";
      const auto v = ac::apps::validate_cr(run.module, run.region, protect, fail_at, app_cfg);
      if (!v.restart_matches) ++failures;
      const double ratio = v.stats.l1_bytes ? static_cast<double>(v.stats.full_equiv_bytes) /
                                                  static_cast<double>(v.stats.l1_bytes)
                                            : 0.0;
      const double enc_ratio = v.stats.payload_encoded_bytes
                                   ? static_cast<double>(v.stats.payload_raw_bytes) /
                                         static_cast<double>(v.stats.payload_encoded_bytes)
                                   : 1.0;
      table.add_row({app.name, ac::strf("%zu", protect.size()),
                     ac::strf("%lld (%lld+%lld)", static_cast<long long>(v.stats.checkpoints),
                              static_cast<long long>(v.stats.full_checkpoints),
                              static_cast<long long>(v.stats.delta_checkpoints)),
                     ac::human_bytes(v.stats.l1_bytes), ac::strf("%.1fx smaller", ratio),
                     app_cfg.l1_codec.str(), ac::strf("%.2fx", enc_ratio),
                     ac::strf("%lld", static_cast<long long>(v.recovered_iteration)),
                     v.restart_matches ? "MATCH" : "DIVERGED"});
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }

  std::printf("%s\n", table.render().c_str());
  const int export_rc = export_telemetry(profile_path, metrics_path);
  if (failures) {
    std::printf("%d app(s) FAILED to recover\n", failures);
    return 1;
  }
  std::printf("all %zu app(s) recovered to the failure-free output\n", apps.size());
  return export_rc;
}
