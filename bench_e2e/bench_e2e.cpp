// bench_e2e: the end-to-end benchmark. Each workload takes all 14 mini-apps
// (at their App::default_params knobs) through one of the pipeline's real
// entry points, checks every output, and reports either the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run):
//
//   verdict-mem   minic::compile -> vm::run_module into trace::BufferSink ->
//                 analysis::Session (threads=1) -> verdicts vs App::expected.
//                 The `harness` default path and the single-threaded
//                 baseline; the traced VM dominates.
//   verdict-text  trace::FileSource(path, 4) -> buffer() -> Session
//                 (threads=4) over a text trace written in set-up. The
//                 paper's file workflow; text parsing dominates and the VM
//                 does nothing in the timed phase.
//   acd-stream    2 closed-loop clients. A job connects a net::RemoteSink to
//                 an in-process net::Server (as `autocheck --connect` does to
//                 acd), replays a trace generated in set-up, fetch_report()s,
//                 and compares the bytes with a local Session report.
//   cr-restart    A CheckpointEngine at L3 protects exactly the set analysis
//                 found in set-up. A job kills the run at a seeded iteration,
//                 recover()s in a fresh engine, restarts, and diffs the output
//                 against the failure-free run.
//
//   bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--work-dir DIR]
//
// One pass takes every app through the workload once, in a seeded order. A
// run first sets up: per app, it builds the inputs and reference output
// (compile, trace, analysis) and runs a first, warm-up job. It then measures
// passes for --seconds. Every job's output is checked; a failed check or an
// exception counts as a failed job and the exit code is 1.
//
// --trace 0 sets up kSetups times and reports setup_s (the sum of every app's
// fastest set-up), pass_s (the sum of every app's fastest job), job_p50_ms
// (the median app's fastest job) and peak_rss_mb. --trace 1 sets up once and
// measures untraced passes, then traced passes. In those, the bench records a
// span around each call it makes into a layer (the layer is the span name's
// prefix: minic, vm, trace, analysis, ckpt, net, bench) and turns on the
// program's own ac::telemetry rings. It writes both into one Chrome trace and
// reports each layer's share of the traced time, the program's work
// counters, span coverage and the tracing overhead.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics.
#include <sys/resource.h>
#include <sys/vfs.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "ckpt/engine.hpp"
#include "minic/compiler.hpp"
#include "net/remote.hpp"
#include "net/server.hpp"
#include "support/error.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

using namespace ac;
namespace fs = std::filesystem;

namespace {

// The workload shape is fixed here, never on the command line, so two runs
// differ only in seed and length.
constexpr int kSetups = 3;          // set-ups per untraced run
constexpr std::size_t kMinPasses = 3;  // per measured phase, however short --seconds is
constexpr int kTextThreads = 4;     // verdict-text read + analysis workers
constexpr int kAcdClients = 2;      // acd-stream closed-loop clients
constexpr double kMinCoverage = 0.95;  // traced passes: share of wall time under layer spans

const char* const kLayers[] = {"minic", "vm", "trace", "analysis", "ckpt", "net", "bench"};

// Program counters (support/metrics.hpp) read before and after every pass.
const char* const kCounters[] = {
    "vm.instructions",    "parse.records_parsed", "parse.bytes_parsed",
    "classify.shard_events", "net.records_merged", "net.chunks_merged",
    "net.client.chunk_bytes_sent", "ckpt.checkpoints", "ckpt.l1_bytes",
    "ckpt.l3_bytes",      "ckpt.async_stalls"};
constexpr std::size_t kNumCounters = std::size(kCounters);
using Counts = std::array<std::uint64_t, kNumCounters>;

Counts read_counters() {
  Counts c{};
  for (std::size_t i = 0; i < kNumCounters; ++i) {
    c[i] = telemetry::metrics().counter_value(kCounters[i]);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Bench spans
// ---------------------------------------------------------------------------

/// A pass, a job, or one call into a layer (named `layer.what`).
struct SpanRec {
  const char* name = nullptr;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t thread = 0;
  std::int32_t parent = -1;
  std::int32_t job = -1;
};

/// Recording is on only during traced passes. A job opens a handful of
/// spans, so one mutex costs nothing measurable.
class SpanLog {
 public:
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  std::int32_t open(const char* name, std::uint32_t thread, std::int32_t parent,
                    std::int32_t job) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    recs_.push_back(SpanRec{name, t, t, thread, parent, job});
    return static_cast<std::int32_t>(recs_.size() - 1);
  }
  void close(std::int32_t id) {
    const std::uint64_t t = now_ns();
    std::lock_guard<std::mutex> lock(mu_);
    recs_[static_cast<std::size_t>(id)].end_ns = t;
  }
  std::vector<SpanRec> snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    return recs_;
  }

 private:
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<SpanRec> recs_;
};

SpanLog g_spans;
std::atomic<std::int32_t> g_next_job{0};
thread_local std::int32_t tl_parent = -1;  // innermost open span on this thread
thread_local std::int32_t tl_job = -1;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t idx = next.fetch_add(1);
  return idx;
}

/// RAII bench span, nested under the thread's innermost open span. A span
/// opened with `job >= 0` starts that job; others inherit the enclosing job.
class Span {
 public:
  explicit Span(const char* name, std::int32_t job = -1) {
    if (!g_spans.enabled()) return;
    saved_parent_ = tl_parent;
    saved_job_ = tl_job;
    if (job >= 0) tl_job = job;
    id_ = g_spans.open(name, thread_index(), tl_parent, tl_job);
    tl_parent = id_;
  }
  ~Span() {
    if (id_ < 0) return;
    g_spans.close(id_);
    tl_parent = saved_parent_;
    tl_job = saved_job_;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::int32_t id() const { return id_; }

 private:
  std::int32_t id_ = -1;
  std::int32_t saved_parent_ = -1;
  std::int32_t saved_job_ = -1;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

using Verdicts = std::map<std::string, analysis::DepType>;

Verdicts verdicts_of(const analysis::Report& report) {
  Verdicts out;
  for (const auto& v : report.critical()) out[v.name] = v.type;
  return out;
}

Verdicts expected_of(const apps::App& app) {
  Verdicts out;
  for (const auto& e : app.expected) out[e.name] = e.type;
  return out;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Closed-loop clients taking jobs concurrently (1 = the calling thread).
  virtual int clients() const { return 1; }
  /// Set-up for one app: build its inputs and reference output from scratch.
  virtual void prepare(std::size_t app) = 0;
  /// Take app `app` through the workload once; true when its output checks.
  /// `draw` is the job's seeded random number.
  virtual bool job(std::size_t app, std::uint64_t draw) = 0;
};

class VerdictMem final : public Workload {
 public:
  void prepare(std::size_t app) override {
    const apps::App& a = apps::registry()[app];
    cases_[app] = {a.source(), a.mcl(), expected_of(a)};
  }

  bool job(std::size_t app, std::uint64_t) override {
    const Case& c = cases_[app];
    ir::Module module;
    {
      Span s("minic.compile");
      module = minic::compile(c.source);
    }
    trace::BufferSink sink;
    {
      Span s("vm.trace_run");
      vm::RunOptions opts;
      opts.sink = &sink;
      vm::run_module(module, opts);
    }
    Span s("analysis.session");
    const analysis::Report report =
        analysis::Session().buffer(sink.take()).region(c.region).run();
    Span check("bench.check");
    return verdicts_of(report) == c.expected;
  }

 private:
  struct Case {
    std::string source;
    analysis::MclRegion region;
    Verdicts expected;
  };
  std::vector<Case> cases_ = std::vector<Case>(apps::registry().size());
};

class VerdictText final : public Workload {
 public:
  explicit VerdictText(fs::path dir) : dir_(std::move(dir)) { fs::create_directories(dir_); }

  void prepare(std::size_t app) override {
    const apps::App& a = apps::registry()[app];
    Case c{(dir_ / (a.name + ".trace")).string(), a.mcl(), expected_of(a)};
    const ir::Module module = minic::compile(a.source());
    trace::FileSink sink(c.path);
    vm::RunOptions opts;
    opts.sink = &sink;
    vm::run_module(module, opts);
    sink.close();
    cases_[app] = std::move(c);
  }

  bool job(std::size_t app, std::uint64_t) override {
    const Case& c = cases_[app];
    auto source = std::make_shared<trace::FileSource>(c.path, kTextThreads);
    {
      Span s("trace.text_parse");
      source->buffer();
    }
    analysis::AnalysisOptions opts;
    opts.threads = kTextThreads;
    Span s("analysis.session");
    const analysis::Report report =
        analysis::Session().source(source).region(c.region).options(opts).run();
    Span check("bench.check");
    return verdicts_of(report) == c.expected;
  }

 private:
  struct Case {
    std::string path;
    analysis::MclRegion region;
    Verdicts expected;
  };
  fs::path dir_;
  std::vector<Case> cases_ = std::vector<Case>(apps::registry().size());
};

class AcdStream final : public Workload {
 public:
  AcdStream() { server_.start(); }

  int clients() const override { return kAcdClients; }

  void prepare(std::size_t app) override {
    const apps::App& a = apps::registry()[app];
    const ir::Module module = minic::compile(a.source());
    trace::BufferSink sink;
    vm::RunOptions opts;
    opts.sink = &sink;
    vm::run_module(module, opts);
    Case c;
    c.trace = sink.take();
    c.spec.region = a.mcl();
    c.spec.with_timings = false;
    trace::TraceBuffer copy;
    copy.append_buffer(c.trace);
    c.expected = analysis::Session()
                     .buffer(std::move(copy))
                     .region(c.spec.region)
                     .run()
                     .to_json(/*with_timings=*/false);
    cases_[app] = std::move(c);
  }

  bool job(std::size_t app, std::uint64_t) override {
    const Case& c = cases_[app];
    std::unique_ptr<net::RemoteSink> sink;
    {
      Span s("net.connect");
      sink = std::make_unique<net::RemoteSink>("127.0.0.1", server_.port());
    }
    {
      Span s("net.stream");
      for (std::size_t i = 0; i < c.trace.size(); ++i) sink->append(c.trace.materialize(i));
    }
    std::string report;
    {
      Span s("net.report_wait");
      report = sink->fetch_report(c.spec);
    }
    {
      Span s("net.close");
      sink->close();
    }
    Span check("bench.check");
    return report == c.expected;
  }

 private:
  struct Case {
    trace::TraceBuffer trace;
    net::ReportSpec spec;
    std::string expected;  // local report bytes, timings omitted
  };
  static net::ServerOptions server_options() {
    net::ServerOptions opts;
    opts.idle_timeout_ms = 0;  // a slow pass must not get its connection reaped
    return opts;
  }
  std::vector<Case> cases_ = std::vector<Case>(apps::registry().size());
  net::Server server_{server_options()};
};

class CrRestart final : public Workload {
 public:
  explicit CrRestart(fs::path dir) : dir_(std::move(dir)) {
    cfg_.dir = (dir_ / "local").string();
    cfg_.partner_dir = (dir_ / "partner").string();
    cfg_.level = ckpt::EngineLevel::L3;
    cfg_.l1_codec = cfg_.l2_codec = CodecChain::parse("rle");
    cfg_.l3_codec = CodecChain::parse("xor+rle+lz");
    // Engine defaults kept: incremental, async writeback, fsync_commits,
    // fixed:1 policy (a commit at every iteration).
    fs::remove_all(dir_);
  }

  void prepare(std::size_t app) override {
    const apps::App& a = apps::registry()[app];
    Case c;
    c.tag = a.name;
    c.module = minic::compile(a.source());
    const analysis::MclRegion region = a.mcl();
    c.region = {region.function, region.begin_line, region.end_line};
    trace::BufferSink sink;
    vm::RunOptions topts;
    topts.sink = &sink;
    vm::run_module(c.module, topts);
    c.protect = analysis::Session().buffer(sink.take()).region(region).run().critical_names();
    vm::RunOptions ropts;
    ropts.mcl = c.region;
    const vm::RunResult ref = vm::run_module(c.module, ropts);
    c.reference_output = ref.output;
    c.iterations = ref.iterations_started;
    if (c.iterations < 2) throw Error(a.name + ": main loop runs fewer than 2 iterations");
    cases_[app] = std::move(c);
  }

  bool job(std::size_t app, std::uint64_t draw) override {
    const Case& c = cases_[app];
    ckpt::EngineConfig cfg = cfg_;
    cfg.tag = c.tag;
    // Kill iteration uniform in [2, iterations]: iteration 1's checkpoint
    // is the earliest a restart can start from.
    const int fail_at =
        2 + static_cast<int>(draw % static_cast<std::uint64_t>(c.iterations - 1));

    std::unique_ptr<ckpt::CheckpointEngine> engine;
    {
      Span s("ckpt.open");
      engine = std::make_unique<ckpt::CheckpointEngine>(cfg);
      engine->reset();
      for (const auto& name : c.protect) engine->protect(name);
    }
    vm::RunResult failed;
    {
      Span s("vm.protected_run");
      vm::RunOptions opts;
      opts.mcl = c.region;
      opts.engine = engine.get();
      opts.fail_at_iteration = fail_at;
      failed = vm::run_module(c.module, opts);
    }
    {
      // The failing process ends here: drain its writer, then drop it.
      Span s("ckpt.flush");
      engine->flush();
      engine.reset();
    }
    if (!failed.failed) throw Error(strf("the kill at iteration %d did not fire", fail_at));
    ckpt::CheckpointImage image;
    {
      Span s("ckpt.recover");
      const ckpt::CheckpointEngine fresh(cfg);
      image = fresh.recover();
    }
    vm::RunResult restarted;
    {
      Span s("vm.restart_run");
      vm::RunOptions opts;
      opts.mcl = c.region;
      opts.restore = &image;
      restarted = vm::run_module(c.module, opts);
    }
    Span check("bench.check");
    return restarted.output == c.reference_output;
  }

 private:
  struct Case {
    std::string tag;
    ir::Module module;
    vm::MclRegion region;
    std::vector<std::string> protect;
    std::string reference_output;
    int iterations = 0;
  };
  fs::path dir_;
  ckpt::EngineConfig cfg_;
  std::vector<Case> cases_ = std::vector<Case>(apps::registry().size());
};

const char* const kWorkloads[] = {"verdict-mem", "verdict-text", "acd-stream", "cr-restart"};

std::unique_ptr<Workload> make_workload(const std::string& name, const fs::path& inputs) {
  if (name == "verdict-mem") return std::make_unique<VerdictMem>();
  if (name == "verdict-text") return std::make_unique<VerdictText>(inputs);
  if (name == "acd-stream") return std::make_unique<AcdStream>();
  if (name == "cr-restart") return std::make_unique<CrRestart>(inputs);
  return nullptr;
}

// ---------------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------------

struct Pass {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::vector<std::pair<std::size_t, double>> job_ms;  // (app, ms) per job
  Counts counts{};
  int failed = 0;

  double seconds() const { return static_cast<double>(end_ns - start_ns) / 1e9; }
};

/// One pass: every app once, in a seeded order; each job's kill iteration
/// (cr-restart) comes from its own seeded draw. Clients take the next job in
/// the order as they finish the last one. A set-up pass prepares each app
/// right before its job (a warm-up, checked like any other) on one client,
/// and times the two together.
Pass run_pass(Workload& w, SplitMix64& rng, bool setup = false) {
  const auto& apps = apps::registry();
  const std::size_t n = apps.size();
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t k = n; k > 1; --k) std::swap(order[k - 1], order[rng.below(k)]);
  std::vector<std::uint64_t> draws(n);
  for (auto& d : draws) d = rng.next();

  Pass p;
  std::mutex mu;
  std::atomic<std::size_t> next{0};
  const Counts before = read_counters();
  p.start_ns = now_ns();
  {
    const Span pass("pass");
    const std::int32_t pass_id = pass.id();
    auto client = [&] {
      tl_parent = pass_id;
      for (std::size_t k; (k = next.fetch_add(1)) < n;) {
        const std::size_t app = order[k];
        const std::uint64_t t0 = now_ns();
        bool ok = false;
        try {
          if (setup) w.prepare(app);
          const Span job("job", g_next_job.fetch_add(1));
          ok = w.job(app, draws[k]);
          if (!ok) std::fprintf(stderr, "bench_e2e: %s: output differs from the reference\n",
                                apps[app].name.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "bench_e2e: %s: %s\n", apps[app].name.c_str(), e.what());
        } catch (...) {
          std::fprintf(stderr, "bench_e2e: %s: unknown exception\n", apps[app].name.c_str());
        }
        const double ms = static_cast<double>(now_ns() - t0) / 1e6;
        std::lock_guard<std::mutex> lock(mu);
        p.job_ms.emplace_back(app, ms);
        if (!ok) ++p.failed;
      }
    };
    if (setup || w.clients() == 1) {
      client();
    } else {
      std::vector<std::thread> threads;
      for (int c = 0; c < w.clients(); ++c) threads.emplace_back(client);
      for (auto& t : threads) t.join();
    }
  }
  p.end_ns = now_ns();
  const Counts after = read_counters();
  for (std::size_t i = 0; i < kNumCounters; ++i) p.counts[i] = after[i] - before[i];
  return p;
}

/// Passes until `seconds` have elapsed (at least kMinPasses).
std::vector<Pass> measure(Workload& w, SplitMix64& rng, double seconds) {
  std::vector<Pass> passes;
  const WallTimer timer;
  while (passes.size() < kMinPasses || timer.seconds() < seconds) {
    passes.push_back(run_pass(w, rng));
  }
  return passes;
}

// ---------------------------------------------------------------------------
// Statistics and span accounting
// ---------------------------------------------------------------------------

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2;
}

/// Total length of the union of [start, end) intervals.
std::uint64_t union_ns(std::vector<std::pair<std::uint64_t, std::uint64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_start = 0;
  std::uint64_t cur_end = 0;
  bool open = false;
  for (const auto& [s, e] : iv) {
    if (open && s <= cur_end) {
      cur_end = std::max(cur_end, e);
      continue;
    }
    if (open) total += cur_end - cur_start;
    cur_start = s;
    cur_end = e;
    open = true;
  }
  if (open) total += cur_end - cur_start;
  return total;
}

/// The layer a bench span belongs to (its name's prefix), or "" for the
/// pass and job spans.
std::string layer_of(const char* name) {
  const char* dot = std::strchr(name, '.');
  return dot ? std::string(name, dot) : std::string();
}

/// Self time of every bench span: its duration minus the union of its
/// children's intervals (a pass's jobs may overlap across clients).
std::vector<std::uint64_t> bench_self_ns(const std::vector<SpanRec>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(spans.size());
  for (const SpanRec& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    self[i] = dur - std::min(dur, union_ns(std::move(children[i])));
  }
  return self;
}

/// Self time per span name of the program's telemetry spans, nested per
/// thread (collect() orders them by thread, then start).
std::map<std::string, std::uint64_t> program_self_ns(const std::vector<telemetry::Span>& spans) {
  std::map<std::string, std::uint64_t> out;
  std::vector<std::size_t> stack;
  std::vector<std::uint64_t> child_ns(spans.size(), 0);
  auto pop = [&] {
    const std::size_t i = stack.back();
    stack.pop_back();
    const std::uint64_t dur = spans[i].end_ns - spans[i].start_ns;
    out[spans[i].name] += dur - std::min(dur, child_ns[i]);
  };
  for (std::size_t i = 0; i < spans.size(); ++i) {
    while (!stack.empty() && (spans[stack.back()].tid != spans[i].tid ||
                              spans[stack.back()].end_ns <= spans[i].start_ns)) {
      pop();
    }
    if (!stack.empty()) child_ns[stack.back()] += spans[i].end_ns - spans[i].start_ns;
    stack.push_back(i);
  }
  while (!stack.empty()) pop();
  return out;
}

/// One Chrome trace: bench spans as process 1 (args: id, parent, job), the
/// program's telemetry spans as process 2.
void write_chrome_trace(const fs::path& path, const std::vector<SpanRec>& bench,
                        const std::vector<telemetry::Span>& program) {
  std::uint64_t t0 = ~0ull;
  for (const SpanRec& s : bench) t0 = std::min(t0, s.start_ns);
  for (const telemetry::Span& s : program) t0 = std::min(t0, s.start_ns);
  auto us = [](std::uint64_t ns) { return strf("%.3f", static_cast<double>(ns) / 1e3); };

  std::string out;
  JsonWriter w(&out);
  w.begin_object();
  w.field("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& [pid, name] : {std::pair{1, "bench"}, std::pair{2, "program"}}) {
    w.begin_object();
    w.field("ph", "M").field("name", "process_name").field("pid", pid);
    w.key("args").begin_object().field("name", name).end_object();
    w.end_object();
  }
  for (std::size_t i = 0; i < bench.size(); ++i) {
    const SpanRec& s = bench[i];
    const std::string layer = layer_of(s.name);
    w.begin_object();
    w.field("ph", "X").field("name", s.name).field("cat", layer.empty() ? "bench" : layer);
    w.field("pid", 1).field("tid", s.thread);
    w.raw_field("ts", us(s.start_ns - t0)).raw_field("dur", us(s.end_ns - s.start_ns));
    w.key("args").begin_object();
    w.field("id", static_cast<std::int64_t>(i)).field("parent", s.parent).field("job", s.job);
    w.end_object();
    w.end_object();
  }
  for (const telemetry::Span& s : program) {
    w.begin_object();
    w.field("ph", "X").field("name", s.name).field("cat", layer_of(s.name));
    w.field("pid", 2).field("tid", s.tid);
    w.raw_field("ts", us(s.start_ns - t0)).raw_field("dur", us(s.end_ns - s.start_ns));
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out.push_back('\n');
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) throw Error("cannot write " + path.string());
  const bool ok = std::fwrite(out.data(), 1, out.size(), f) == out.size();
  if (std::fclose(f) != 0 || !ok) throw Error("short write to " + path.string());
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

const char* filesystem_name(const fs::path& p) {
  struct statfs s {};
  if (statfs(p.c_str(), &s) != 0) return "unknown";
  switch (static_cast<unsigned long>(s.f_type)) {
    case 0x01021994ul: return "tmpfs";
    case 0xEF53ul: return "ext2/3/4";
    case 0x58465342ul: return "xfs";
    case 0x9123683Eul: return "btrfs";
    case 0x794C7630ul: return "overlayfs";
    default: return "other";
  }
}

/// Each app's fastest job over `passes`, in ms. Other tenants of a shared
/// host only ever add time, in bursts of seconds to minutes; the best of N
/// repeats of the same job is the timing that repeats from run to run, where
/// the median pass moved by up to a third.
std::vector<double> best_job_ms(const std::vector<Pass>& passes) {
  std::map<std::size_t, double> best;
  for (const Pass& p : passes) {
    for (const auto& [app, ms] : p.job_ms) {
      const auto [it, fresh] = best.emplace(app, ms);
      if (!fresh) it->second = std::min(it->second, ms);
    }
  }
  std::vector<double> out;
  for (const auto& [app, ms] : best) out.push_back(ms);
  return out;
}

/// One pass's job time: the sum of every app's fastest job, in seconds.
double best_pass_s(const std::vector<Pass>& passes) {
  const std::vector<double> best = best_job_ms(passes);
  return std::accumulate(best.begin(), best.end(), 0.0) / 1e3;
}

std::vector<Metric> end_to_end(const std::vector<Pass>& setups, const std::vector<Pass>& passes) {
  return {{"setup_s", best_pass_s(setups), "s"},
          {"pass_s", best_pass_s(passes), "s"},
          {"job_p50_ms", median(best_job_ms(passes)), "ms"},
          {"peak_rss_mb", peak_rss_mib(), "MiB"}};
}

/// Per-layer metrics of the traced passes; returns the lowest per-pass span
/// coverage through `min_coverage`.
std::vector<Metric> per_layer(const std::vector<Pass>& untraced, const std::vector<Pass>& traced,
                              const std::vector<SpanRec>& spans, double& min_coverage) {
  const double traced_pass = best_pass_s(traced);
  std::vector<Metric> out = {{"traced_pass_s", traced_pass, "s"},
                             {"tracing_overhead", traced_pass / best_pass_s(untraced), "ratio"}};

  // Coverage: the union of layer spans over each pass's wall time.
  min_coverage = 1.0;
  std::vector<double> unattributed_ms;
  for (const Pass& p : traced) {
    std::vector<std::pair<std::uint64_t, std::uint64_t>> iv;
    for (const SpanRec& s : spans) {
      if (!layer_of(s.name).empty() && s.start_ns >= p.start_ns && s.end_ns <= p.end_ns) {
        iv.emplace_back(s.start_ns, s.end_ns);
      }
    }
    const std::uint64_t wall = p.end_ns - p.start_ns;
    const std::uint64_t covered = std::min(wall, union_ns(std::move(iv)));
    unattributed_ms.push_back(static_cast<double>(wall - covered) / 1e6);
    min_coverage = std::min(min_coverage, static_cast<double>(covered) / static_cast<double>(wall));
  }
  out.push_back({"span_coverage", 100.0 * min_coverage, "%"});
  out.push_back({"unattributed_ms", median(unattributed_ms), "ms"});

  // Layer shares of the summed layer self time.
  const std::vector<std::uint64_t> self = bench_self_ns(spans);
  std::map<std::string, double> by_layer;
  double total = 0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string layer = layer_of(spans[i].name);
    if (layer.empty()) continue;
    by_layer[layer] += static_cast<double>(self[i]);
    total += static_cast<double>(self[i]);
  }
  for (const char* layer : kLayers) {
    out.push_back({std::string("share.") + layer, total > 0 ? 100.0 * by_layer[layer] / total : 0,
                   "%"});
  }

  for (std::size_t i = 0; i < kNumCounters; ++i) {
    std::vector<double> v;
    for (const Pass& p : traced) v.push_back(static_cast<double>(p.counts[i]));
    const char* unit = std::strstr(kCounters[i], "bytes") ? "bytes" : "count";
    out.push_back({kCounters[i], median(v), unit});
  }
  return out;
}

/// Span self time per name, in ms per traced pass (stdout, informational).
void print_span_table(const std::vector<SpanRec>& spans,
                      const std::vector<telemetry::Span>& program, std::size_t passes) {
  const double per = 1e6 * static_cast<double>(passes);
  std::map<std::string, std::uint64_t> bench;
  const std::vector<std::uint64_t> self = bench_self_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) bench[spans[i].name] += self[i];
  for (const auto& [name, ns] : bench) {
    std::printf("bench_span.%s_ms %.3f\n", name.c_str(), static_cast<double>(ns) / per);
  }
  for (const auto& [name, ns] : program_self_ns(program)) {
    std::printf("span.%s_ms %.3f\n", name.c_str(), static_cast<double>(ns) / per);
  }
  const std::uint64_t dropped = telemetry::telemetry().dropped();
  if (dropped) std::printf("program spans dropped to ring overflow: %llu\n",
                           static_cast<unsigned long long>(dropped));
}

void print_result(int attempted, int failed, const std::vector<Metric>& metrics) {
  std::string line = strf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, \"metrics\": {",
                          failed == 0 ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    appendf(line, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
            metrics[i].name.c_str(), metrics[i].value, metrics[i].unit.c_str());
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  fs::path work_dir = ".bench_work";
};

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n"
               "                 [--work-dir DIR]\n"
               "workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

int run(const Args& args) {
  const fs::path inputs = args.work_dir / (args.workload + ".inputs");
  std::unique_ptr<Workload> w = make_workload(args.workload, inputs);
  if (!w) return usage();
  fs::create_directories(args.work_dir);
  std::printf("bench_e2e: workload %s, seed %llu, %.3g s, trace %d, work dir %s (%s)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.work_dir.c_str(), filesystem_name(args.work_dir));

  SplitMix64 rng(args.seed);
  int attempted = 0;
  int failed = 0;
  auto tally = [&](const std::vector<Pass>& passes) {
    for (const Pass& p : passes) {
      attempted += static_cast<int>(p.job_ms.size());
      failed += p.failed;
    }
  };

  std::vector<Pass> setups;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    setups.push_back(run_pass(*w, rng, /*setup=*/true));
  }
  tally(setups);

  std::vector<Metric> metrics;
  double coverage = 1.0;
  if (!args.trace) {
    const std::vector<Pass> passes = measure(*w, rng, args.seconds);
    w.reset();  // joins the daemon's and the engines' threads
    tally(passes);
    std::printf("passes %zu, pass seconds:", passes.size());
    for (const Pass& p : passes) std::printf(" %.3f", p.seconds());
    std::printf("\n");
    metrics = end_to_end(setups, passes);
  } else {
    const std::vector<Pass> untraced = measure(*w, rng, args.seconds / 2);
    telemetry::telemetry().reset();
    telemetry::telemetry().enable();
    g_spans.set_enabled(true);
    const std::vector<Pass> traced = measure(*w, rng, args.seconds / 2);
    g_spans.set_enabled(false);
    telemetry::telemetry().disable();
    w.reset();  // no instrumented thread may run while the rings are collected
    tally(untraced);
    tally(traced);

    const std::vector<SpanRec> spans = g_spans.snapshot();
    const std::vector<telemetry::Span> program = telemetry::telemetry().collect();
    const fs::path trace_path = args.work_dir / (args.workload + ".trace.json");
    write_chrome_trace(trace_path, spans, program);
    std::printf("chrome trace: %s (%zu bench spans, %zu program spans)\n", trace_path.c_str(),
                spans.size(), program.size());
    print_span_table(spans, program, traced.size());
    metrics = per_layer(untraced, traced, spans, coverage);
  }
  fs::remove_all(inputs);

  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (coverage < kMinCoverage) {
    std::fprintf(stderr, "bench_e2e: layer spans cover only %.1f%% of a traced pass (< %.0f%%)\n",
                 100.0 * coverage, 100.0 * kMinCoverage);
    return 1;
  }
  print_result(attempted, failed, metrics);
  return failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    try {
      if (arg == "--workload") {
        args.workload = val;
      } else if (arg == "--seed") {
        args.seed = static_cast<std::uint64_t>(parse_i64(val));
      } else if (arg == "--seconds") {
        args.seconds = parse_f64(val);
        if (!(args.seconds > 0)) return usage();
      } else if (arg == "--trace") {
        if (val != "0" && val != "1") return usage();
        args.trace = val == "1";
      } else if (arg == "--work-dir") {
        args.work_dir = val;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (args.workload.empty()) return usage();
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
}
