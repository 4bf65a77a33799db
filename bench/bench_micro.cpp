// Analysis micro/throughput benchmark for the interned trace representation:
// the zero-copy text parse (serial and parallel), the MCTB binary container
// (write, serial and parallel decode), end-to-end analysis and classification
// alone — plus representation-byte accounting and subprocess peak-RSS probes
// on the largest selected trace.
//
//   bench_micro [--smoke] [--scale N | --sweep] [--json PATH] [--check]
//
// --smoke   3-app subset at unit-test knobs (CI); full mode runs all 14
//           mini-apps at their Table II knobs.
// --json    emit the machine-readable BENCH_analysis.json trajectory record
//           (app, bytes, wall-ns, peak-RSS per app).
// --check   regression gates, all same-process ratios so they transfer
//           across machines: MCTB decode must beat the text parse by >= 2x
//           on every measured app, the SIMD codec kernels must hold their
//           floors against the forced-scalar references (shuffle/unshuffle
//           >= 1.2x; skipped under AC_NO_SIMD=1 where dispatch is scalar),
//           and the disabled-telemetry cost — per-span price x spans
//           actually executed — must stay <= 2% of the parse+classify
//           wall. Exit 1 on regression.
// --profile / --metrics  export the telemetry recorded while benchmarking
//           (Chrome-trace JSON / metrics JSON).
//
// Verdicts are asserted identical between the text-parsed and the
// MCTB-decoded buffer on every measured app.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "minic/compiler.hpp"
#include "support/codec.hpp"
#include "support/file.hpp"
#include "support/json.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "trace/reader.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

using namespace ac;

namespace {

long peak_rss_kb() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

struct AppBench {
  std::string app;
  std::uint64_t text_bytes = 0;
  std::uint64_t records = 0;
  std::uint64_t operands = 0;
  double buffer_parse_s = 0;
  double parallel_parse_s = 0;
  double buffer_analyze_s = 0;  // Session over the parsed buffer
  double classify_s = 0;
  std::uint64_t buffer_bytes = 0;
  std::uint64_t mctb_bytes = 0;      // MCTB container size (rle+lz sections)
  double mctb_write_s = 0;           // TraceBuffer -> container serialization
  double mctb_parse_s = 0;           // container -> TraceBuffer, serial
  double mctb_parallel_parse_s = 0;  // same on 4 workers
  std::uint64_t mctb_raw_bytes = 0;  // raw-codec container (the RSS probe file)
  long rss_buffer_kb = 0;  // only probed on the largest app: text FileSource
  long rss_mctb_kb = 0;    // MCTB FileSource (mmap + madvise behind the frontier)

  /// Binary-vs-text parse speedup (both produce the same TraceBuffer).
  double mctb_parse_speedup() const {
    return mctb_parse_s > 0 ? buffer_parse_s / mctb_parse_s : 0;
  }
};

/// Run `self --rss-probe --trace PATH` and return the child's peak RSS.
/// (/proc/self/exe must be resolved here: inside popen's shell, "self" would
/// be the shell.)
long probe_rss(const std::string& trace_path) {
  char exe[4096];
  const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (n <= 0) return 0;
  exe[n] = '\0';
  const std::string cmd = strf("%s --rss-probe --trace %s", exe, trace_path.c_str());
  std::FILE* p = ::popen(cmd.c_str(), "r");
  if (!p) return 0;
  char line[128];
  long kb = 0;
  while (std::fgets(line, sizeof(line), p)) {
    std::sscanf(line, "RSS_KB=%ld", &kb);
  }
  ::pclose(p);
  return kb;
}

/// Read `path` through a FileSource (text or MCTB, auto-detected) in a fresh
/// process and report its peak RSS.
int rss_probe_main(const std::string& path) {
  trace::FileSource src(path);
  const auto& buf = src.buffer();
  std::printf("RSS_KB=%ld RECORDS=%zu\n", peak_rss_kb(), buf.size());
  return 0;
}

bool verdicts_equal(const analysis::Report& a, const analysis::Report& b) {
  return a.verdicts.critical == b.verdicts.critical && a.verdicts.all_mli == b.verdicts.all_mli;
}

/// The LLVM-Tracer text of one traced run of `app` (trace generation is
/// excluded from every measurement).
std::string trace_text(const apps::App& app, const apps::Params& params) {
  trace::BufferSink sink;
  const ir::Module module = minic::compile(app.source(params));
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  std::string text;
  for (std::size_t i = 0; i < sink.buffer().size(); ++i) sink.buffer().view(i).append_text(text);
  return text;
}

AppBench bench_app(const apps::App& app, const apps::Params& params, bool probe_largest) {
  AppBench out;
  out.app = app.name;
  const std::string text = trace_text(app, params);
  out.text_bytes = text.size();
  const analysis::MclRegion region = app.mcl();

  // Small traces are measured best-of-3 so the CI regression gate compares
  // stable numbers, not one-shot millisecond samples on a noisy runner.
  auto best_of_n = [](int n, auto&& fn) {
    double best = 0;
    for (int r = 0; r < n; ++r) {
      WallTimer t;
      fn();
      const double s = t.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };
  const int reps = text.size() < (8u << 20) ? 3 : 1;
  auto best_of = [&](auto&& fn) { return best_of_n(reps, fn); };

  analysis::AnalysisOptions opts;
  opts.build_ddg = false;

  trace::TraceBuffer buf;
  out.buffer_parse_s = best_of([&] { buf = trace::read_trace_buffer(text, 1); });
  out.buffer_bytes = buf.byte_size();
  out.records = buf.size();
  out.operands = buf.operands().size();

  trace::TraceBuffer par_buf;
  out.parallel_parse_s = best_of([&] { par_buf = trace::read_trace_buffer(text, 4); });

  // MCTB container: serialize once per rep (timed), then decode serial and on
  // 4 workers. The decoded buffer must replay to the exact text bytes.
  std::string mctb;
  out.mctb_write_s = best_of([&] { mctb = trace::mctb_to_bytes(buf); });
  out.mctb_bytes = mctb.size();
  trace::TraceBuffer mctb_buf;
  // The container is 14-60x smaller than the text, so a trace past the text
  // best-of threshold can still decode in single-digit milliseconds; rep the
  // decode timings on the container size or the decode-vs-parse gate flaps
  // on one-shot samples.
  const int decode_reps = mctb.size() < (8u << 20) ? 3 : 1;
  const auto decode = [&](int threads) {
    trace::MctbReadOptions ropts;
    ropts.num_threads = threads;
    mctb_buf = trace::read_mctb(mctb, ropts);
  };
  out.mctb_parse_s = best_of_n(decode_reps, [&] { decode(1); });
  out.mctb_parallel_parse_s = best_of_n(decode_reps, [&] { decode(4); });
  if (mctb_buf.size() != buf.size() || mctb_buf.operands().size() != buf.operands().size()) {
    std::fprintf(stderr, "bench_micro: MCTB round-trip SIZE MISMATCH on %s\n", app.name.c_str());
    std::exit(1);
  }

  // One Session per repetition over the same buffer source so the parse
  // isn't re-paid inside the analyze measurement.
  auto source = std::make_shared<trace::MemorySource>(std::move(par_buf));
  analysis::Report buffer_report;
  out.buffer_analyze_s = best_of([&] {
    buffer_report = analysis::Session().source(source).region(region).options(opts).run();
  });

  // Classification alone.
  auto pre = analysis::preprocess(buf, region);
  analysis::DepOptions dopts;
  dopts.build_ddg = false;
  auto dep = analysis::dep_analysis(buf, pre, region, dopts);
  out.classify_s = best_of([&] { (void)analysis::classify(dep, pre); });

  // The MCTB-decoded buffer must produce identical verdicts.
  const analysis::Report mctb_report =
      analysis::Session().buffer(std::move(mctb_buf)).region(region).options(opts).run();
  if (!verdicts_equal(buffer_report, mctb_report)) {
    std::fprintf(stderr, "bench_micro: VERDICT MISMATCH on %s\n", app.name.c_str());
    std::exit(1);
  }

  if (probe_largest) {
    const std::string path = "/tmp/ac_bench_micro_" + app.name + ".trace";
    write_file(path, text);
    out.rss_buffer_kb = probe_rss(path);
    std::remove(path.c_str());
    // The MCTB probe uses a raw-codec container (the documented
    // fastest-parse configuration), the largest the decoder has to stream.
    const std::string mpath = "/tmp/ac_bench_micro_" + app.name + ".mctb";
    try {
      trace::MctbOptions raw_opts;
      raw_opts.codec = CodecChain{};
      out.mctb_raw_bytes = trace::write_mctb_file(buf, mpath, raw_opts);
      out.rss_mctb_kb = probe_rss(mpath);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bench_micro: mctb rss probe failed: %s\n", e.what());
    }
    std::remove(mpath.c_str());
  }
  return out;
}

void app_json(JsonWriter& w, const AppBench& r) {
  // Nanosecond walls keep the historical "%.0f" BENCH number format; the
  // same-process ratios stay "%.3f".
  w.begin_object();
  w.field("app", r.app);
  w.field("text_bytes", r.text_bytes);
  w.field("records", r.records);
  w.field("operands", r.operands);
  w.raw_field("buffer_parse_ns", strf("%.0f", r.buffer_parse_s * 1e9));
  w.raw_field("parallel_parse_ns", strf("%.0f", r.parallel_parse_s * 1e9));
  w.field("mctb_bytes", r.mctb_bytes);
  w.raw_field("mctb_write_ns", strf("%.0f", r.mctb_write_s * 1e9));
  w.raw_field("mctb_parse_ns", strf("%.0f", r.mctb_parse_s * 1e9));
  w.raw_field("mctb_parallel_parse_ns", strf("%.0f", r.mctb_parallel_parse_s * 1e9));
  w.raw_field("speedup_mctb_parse", strf("%.3f", r.mctb_parse_speedup()));
  w.raw_field("buffer_analyze_ns", strf("%.0f", r.buffer_analyze_s * 1e9));
  w.raw_field("classify_ns", strf("%.0f", r.classify_s * 1e9));
  w.field("buffer_rep_bytes", r.buffer_bytes);
  w.field("peak_rss_buffer_kb", r.rss_buffer_kb);
  w.field("mctb_raw_bytes", r.mctb_raw_bytes);
  w.field("peak_rss_mctb_kb", r.rss_mctb_kb);
  w.raw_field("wall_ns", strf("%.0f", (r.buffer_parse_s + r.buffer_analyze_s) * 1e9));
  w.end_object();
}

struct KernelBench;
void kernel_json(JsonWriter& w, const KernelBench& kb);

std::string to_json(const std::vector<std::pair<int, std::vector<AppBench>>>& groups,
                    const KernelBench& kernels) {
  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.field("bench", "analysis");
  kernel_json(w, kernels);
  if (groups.size() == 1) {
    // Single-scale mode keeps the historical shape (external consumers parse
    // it).
    w.field("scale", groups[0].first);
    w.key("apps").begin_array();
    for (const auto& r : groups[0].second) app_json(w, r);
    w.end_array();
  } else {
    // --scale sweep: one entry per scale, tracking the linearity curve.
    w.key("scales").begin_array();
    for (const auto& [sc, results] : groups) {
      w.begin_object();
      w.field("scale", sc);
      w.key("apps").begin_array();
      for (const auto& r : results) app_json(w, r);
      w.end_array();
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
  out += '\n';
  return out;
}

/// Disabled-telemetry overhead gate: the documented contract is that with
/// telemetry off every AC_SPAN costs one relaxed atomic load. This bounds the
/// aggregate: (per-span disabled cost) x (spans the parse+classify path
/// actually executes) must stay <= 2% of that path's wall time. Resets the
/// process-wide telemetry state — run it after any --profile/--metrics export.
bool telemetry_overhead_ok(const apps::App& app, const apps::Params& params) {
  // Per-span disabled price on this machine, amortized over 1M probes. The
  // empty asm keeps the loop from being collapsed around the dead span.
  auto& tel = telemetry::telemetry();
  tel.disable();
  constexpr int kProbes = 1 << 20;
  WallTimer probe;
  for (int i = 0; i < kProbes; ++i) {
    AC_SPAN("bench.overhead_probe");
    asm volatile("" ::: "memory");
  }
  const double span_cost_s = probe.seconds() / kProbes;

  // Trace once (untimed), then run the instrumented parse+classify path
  // twice: enabled to count the spans it emits, disabled to time it.
  const std::string text = trace_text(app, params);
  const analysis::MclRegion region = app.mcl();

  const auto parse_classify = [&] {
    trace::TraceBuffer buf = trace::read_trace_buffer(text, 4);
    auto pre = analysis::preprocess(buf, region);
    analysis::DepOptions dopts;
    dopts.build_ddg = false;
    auto dep = analysis::dep_analysis(buf, pre, region, dopts);
    (void)analysis::classify(dep, pre);
  };

  tel.reset();
  tel.enable();
  parse_classify();
  tel.disable();
  const std::uint64_t spans = tel.collect().size() + tel.dropped();
  tel.reset();

  WallTimer wall;
  parse_classify();
  const double base_s = wall.seconds();

  const double overhead = base_s > 0 ? span_cost_s * (double)spans / base_s : 0;
  const bool ok = overhead <= 0.02;
  std::printf("check telemetry  disabled span %.1f ns x %llu spans / %.3fs parse+classify "
              "= %.4f%% -> %s\n",
              span_cost_s * 1e9, (unsigned long long)spans, base_s, overhead * 100,
              ok ? "ok" : "OVER 2% BUDGET");
  return ok;
}

/// SIMD codec kernel speedups over the forced-scalar references (dispatched
/// call vs the `scalar::` variant, same process, same buffer — machine-
/// independent ratios like the other gates).
struct KernelBench {
  const char* level = "scalar";
  double shuffle_x = 0;
  double unshuffle_x = 0;
};

KernelBench bench_kernels() {
  KernelBench out;
  out.level = simd_level_name(active_simd_level());

  // MCTB-shaped input: an 8 MiB stride-8 column slab for the plane shuffle.
  constexpr std::size_t kElems = 1u << 20;
  SplitMix64 rng(42);
  std::string plain(kElems * 8, '\0');
  for (auto& ch : plain) ch = static_cast<char>(rng.next());

  auto best_of = [](auto&& fn) {
    double best = 0;
    for (int r = 0; r < 5; ++r) {
      WallTimer t;
      fn();
      const double s = t.seconds();
      if (r == 0 || s < best) best = s;
    }
    return best;
  };

  std::string shuffled, shuffled_ref;
  const double shuf = best_of([&] { shuffled = shuffle_planes(plain.data(), kElems, 8); });
  const double shuf_ref =
      best_of([&] { shuffled_ref = scalar::shuffle_planes(plain.data(), kElems, 8); });
  std::string back(plain.size(), '\0');
  const double unshuf = best_of([&] { unshuffle_planes(shuffled, kElems, 8, back.data()); });
  const bool shuffle_ok = shuffled == shuffled_ref && back == plain;
  const double unshuf_ref =
      best_of([&] { scalar::unshuffle_planes(shuffled, kElems, 8, back.data()); });

  if (!shuffle_ok) {
    std::fprintf(stderr, "bench_micro: SIMD KERNEL MISMATCH vs scalar reference\n");
    std::exit(1);
  }

  out.shuffle_x = shuf > 0 ? shuf_ref / shuf : 0;
  out.unshuffle_x = unshuf > 0 ? unshuf_ref / unshuf : 0;
  return out;
}

void kernel_json(JsonWriter& w, const KernelBench& kb) {
  w.key("simd").begin_object();
  w.field("level", kb.level);
  w.raw_field("shuffle_x", strf("%.3f", kb.shuffle_x));
  w.raw_field("unshuffle_x", strf("%.3f", kb.unshuffle_x));
  w.end_object();
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool sweep = false;
  bool check = false;
  bool probe = false;
  int scale = 1;
  std::string json_path, probe_trace;
  std::string profile_path, metrics_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_micro: missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg == "--scale") {
      scale = std::atoi(next());
      if (scale < 1) scale = 1;
    } else if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--rss-probe") {
      probe = true;
    } else if (arg == "--trace") {
      probe_trace = next();
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr,
                   "usage: bench_micro [--smoke] [--scale N | --sweep] [--json PATH] "
                   "[--check] [--profile TRACE.json] [--metrics METRICS.json]\n");
      return 2;
    }
  }
  if (probe) return rss_probe_main(probe_trace);
  if (!profile_path.empty() || !metrics_path.empty()) telemetry::telemetry().enable();
  if (sweep && check) {
    // The gates run on one result group; silently gating only one sweep
    // group would imply coverage the check doesn't have.
    std::fprintf(stderr, "bench_micro: --check cannot be combined with --sweep\n");
    return 2;
  }

  std::printf("=== bench_micro: text vs MCTB trace representation%s ===\n\n",
              smoke ? " (smoke subset)" : "");

  // --sweep: the linearity-curve profile, one result group per scale.
  std::vector<int> scales = sweep ? std::vector<int>{1, 2, 4} : std::vector<int>{scale};
  std::vector<std::pair<int, std::vector<AppBench>>> groups;
  for (const int sc : scales) {
    std::vector<std::pair<apps::App, apps::Params>> suite;
    for (const auto& app : apps::registry()) {
      if (smoke && app.name != "CG" && app.name != "IS" && app.name != "HACC") continue;
      const apps::Params base = smoke ? app.default_params : app.table2_params;
      suite.emplace_back(app, app.scaled_params(base, sc));
    }

    // Probe peak RSS on the app with the largest trace (measured text size is
    // not known up front; use the last run's sizes by benchmarking in two
    // passes: everything first, then re-run the largest with probes). The
    // subprocess probes are skipped in sweep mode — the curve tracks wall
    // time, and re-running the largest app per scale would double the cost.
    std::vector<AppBench> results;
    for (const auto& [app, params] : suite) {
      results.push_back(bench_app(app, params, /*probe_largest=*/false));
    }
    std::size_t largest = 0;
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i].text_bytes > results[largest].text_bytes) largest = i;
    }
    if (!sweep) {
      results[largest] = bench_app(suite[largest].first, suite[largest].second,
                                   /*probe_largest=*/true);
    }

    if (sweep) std::printf("--- scale %d ---\n", sc);
    TextTable table({"App", "Trace", "MCTB", "Records", "Parse(buf)", "Parse(par)",
                     "Parse(mctb)", "MCTB speedup", "Analyze(buf)", "Classify", "Rep bytes"});
    for (const auto& r : results) {
      table.add_row({r.app, human_bytes(r.text_bytes), human_bytes(r.mctb_bytes),
                     strf("%llu", (unsigned long long)r.records),
                     strf("%.3fs", r.buffer_parse_s), strf("%.3fs", r.parallel_parse_s),
                     strf("%.3fs", r.mctb_parse_s), strf("%.1fx", r.mctb_parse_speedup()),
                     strf("%.3fs", r.buffer_analyze_s), strf("%.4fs", r.classify_s),
                     human_bytes(r.buffer_bytes)});
    }
    std::printf("%s\n", table.render().c_str());

    if (!sweep) {
      const AppBench& big = results[largest];
      std::printf("Largest trace: %s (%s text, %s MCTB, %.1fx smaller on disk). "
                  "Peak RSS reading it through a FileSource in a fresh process: text %s, "
                  "raw-codec MCTB (%s) %s\n\n",
                  big.app.c_str(), human_bytes(big.text_bytes).c_str(),
                  human_bytes(big.mctb_bytes).c_str(),
                  big.mctb_bytes ? (double)big.text_bytes / (double)big.mctb_bytes : 0.0,
                  human_bytes((std::uint64_t)big.rss_buffer_kb * 1024).c_str(),
                  human_bytes(big.mctb_raw_bytes).c_str(),
                  human_bytes((std::uint64_t)big.rss_mctb_kb * 1024).c_str());
    }
    groups.emplace_back(sc, std::move(results));
  }
  const std::vector<AppBench>& results = groups[0].second;

  // Codec kernel dispatch vs forced scalar (honours AC_NO_SIMD: under it the
  // dispatched call IS the scalar reference and every ratio sits near 1.0x).
  const KernelBench kernels = bench_kernels();
  std::printf("SIMD codec kernels (%s dispatch): shuffle %.1fx, unshuffle %.1fx vs scalar on "
              "8 MiB stride-8 columns\n\n",
              kernels.level, kernels.shuffle_x, kernels.unshuffle_x);

  if (!json_path.empty()) {
    write_file(json_path, to_json(groups, kernels));
    std::printf("wrote %s\n", json_path.c_str());
  }

  // Export before --check: the overhead gate resets the telemetry state.
  if (!profile_path.empty()) {
    telemetry::telemetry().write_chrome_trace(profile_path);
    std::printf("telemetry profile written to %s\n", profile_path.c_str());
  }
  if (!metrics_path.empty()) {
    telemetry::metrics().write_json(metrics_path);
    std::printf("metrics written to %s\n", metrics_path.c_str());
  }

  if (check) {
    bool regressed = false;
    // The binary-format gate: the whole point of MCTB is that parse stops
    // being text decoding, so its decode must beat the zero-copy text parse
    // by >=2x on every measured app.
    for (const auto& r : results) {
      const bool bad = r.mctb_parse_speedup() < 2.0;
      std::printf("check %-8s mctb parse %.2fx text parse -> %s\n", r.app.c_str(),
                  r.mctb_parse_speedup(), bad ? "TOO SLOW (< 2x)" : "ok");
      regressed = regressed || bad;
    }
    // SIMD kernel gates: the shuffle pair must actually pay for its intrinsic
    // complexity (>= 1.2x scalar). Skipped when dispatch resolves to scalar
    // (AC_NO_SIMD=1 or a CPU without SSSE3): there the kernels ARE the scalar
    // reference and a ratio gate would only measure noise.
    if (active_simd_level() != SimdLevel::Scalar) {
      const struct {
        const char* name;
        double got;
        double floor;
      } simd_gates[] = {{"shuffle", kernels.shuffle_x, 1.2},
                        {"unshuffle", kernels.unshuffle_x, 1.2}};
      for (const auto& g : simd_gates) {
        const bool bad = g.got < g.floor;
        std::printf("check simd %-12s %.2fx scalar (floor %.2fx, %s) -> %s\n", g.name, g.got,
                    g.floor, kernels.level, bad ? "TOO SLOW" : "ok");
        regressed = regressed || bad;
      }
    } else {
      std::printf("check simd     skipped: scalar dispatch (AC_NO_SIMD or no SIMD CPU)\n");
    }
    // Telemetry overhead gate on the largest measured app (re-traced in the
    // gate; safe here because the --profile/--metrics export already ran).
    std::size_t biggest = 0;
    for (std::size_t i = 1; i < results.size(); ++i) {
      if (results[i].text_bytes > results[biggest].text_bytes) biggest = i;
    }
    for (const auto& app : apps::registry()) {
      if (app.name != results[biggest].app) continue;
      const apps::Params base = smoke ? app.default_params : app.table2_params;
      if (!telemetry_overhead_ok(app, app.scaled_params(base, groups[0].first))) {
        regressed = true;
      }
    }
    if (regressed) {
      std::printf("FAIL: MCTB parse fell under 2x text parse, a SIMD kernel fell under its "
                  "scalar floor, or disabled telemetry cost exceeded 2%%\n");
      return 1;
    }
    std::printf("MCTB parse >= 2x text parse, SIMD kernels at/above scalar floors, disabled "
                "telemetry <= 2%% (%zu app(s) checked)\n",
                results.size());
  }
  return 0;
}
