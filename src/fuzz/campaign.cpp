#include "fuzz/campaign.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <thread>

#include "apps/harness.hpp"
#include "minic/compiler.hpp"
#include "net/protocol.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "trace/mctb.hpp"
#include "trace/writer.hpp"

namespace ac::fuzz {

namespace {

namespace fs = std::filesystem;

// Child exit codes carrying the in-child classification back to the parent.
// Anything else (signals, sanitizer aborts, libc++ terminate) is a Crash.
constexpr int kExitClean = 64;
constexpr int kExitBenign = 65;
constexpr int kExitRecovered = 66;
constexpr int kExitSilent = 67;
constexpr int kExitCrash = 68;

std::string one_line(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ';';
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-app artifact cache
// ---------------------------------------------------------------------------
// Everything a case needs is regenerated deterministically from (app, scale):
// the compiled module, the reference output, the interned trace, and the
// canonical (raw, single-chunk) serializations mutated artifacts are compared
// against. Built once in the campaign parent; children inherit it over fork.

struct AppContext {
  ir::Module module;
  analysis::MclRegion region;
  std::vector<std::string> protect;
  std::string reference_output;
  trace::TraceBuffer buffer;
  std::string canonical_mctb;  // raw codec, one chunk: the equality reference
  ckpt::EngineRecord ckpt_record;
  std::string canonical_ckpt;  // ckpt_record's frame on the raw chain
  std::map<std::string, std::string> mctb_by_codec;
  std::map<std::string, std::string> ckpt_by_codec;
  std::map<std::string, std::string> frame_by_codec;
};

trace::MctbOptions canonical_mctb_options(std::size_t records) {
  trace::MctbOptions o;
  o.codec = CodecChain{};  // raw
  o.chunk_records = records > 0 ? records : 1;
  return o;
}

AppContext& context_for(const std::string& app_name, int scale) {
  static std::map<std::string, AppContext> cache;
  const std::string key = app_name + "/" + std::to_string(scale);
  const auto it = cache.find(key);
  if (it != cache.end()) return it->second;

  const apps::App& app = apps::find_app(app_name);
  const apps::Params params = app.scaled_params(app.default_params, scale);
  AppContext ctx;
  ctx.module = minic::compile(app.source(params));
  ctx.region = app.mcl();

  trace::BufferSink sink;
  {
    vm::RunOptions ropts;
    ropts.sink = &sink;
    ctx.reference_output = vm::run_module(ctx.module, ropts).output;
  }
  ctx.buffer = sink.take();
  ctx.canonical_mctb =
      trace::mctb_to_bytes(ctx.buffer, canonical_mctb_options(ctx.buffer.size()));

  {
    trace::TraceBuffer copy = ctx.buffer;
    analysis::AnalysisOptions aopts;
    aopts.threads = 1;
    const analysis::Report report = analysis::Session()
                                        .buffer(std::move(copy))
                                        .region(ctx.region)
                                        .options(aopts)
                                        .run();
    ctx.protect = report.critical_names();
  }
  if (ctx.protect.empty()) {
    throw Error("fuzz: " + app_name + " has no critical variables to protect");
  }

  // One full checkpoint image of the protected set — the validation store's
  // last commit of a whole run — as the full engine record whose log frame
  // every ckpt-kind case mutates.
  {
    const fs::path dir =
        fs::temp_directory_path() / strf("acfuzz-ctx-%d", static_cast<int>(::getpid()));
    const ckpt::EngineConfig cfg = apps::validation_config(dir.string(), app_name);
    apps::run_with_engine(ctx.module, ctx.region, ctx.protect, cfg);
    ckpt::CheckpointImage last;
    {
      const ckpt::CheckpointEngine store(cfg);
      if (store.has_checkpoint()) last = store.recover();
    }
    std::error_code ec;
    fs::remove_all(dir, ec);
    if (last.empty()) throw Error("fuzz: no checkpoint captured for " + app_name);
    ctx.ckpt_record.base_id = 1;
    ctx.ckpt_record.iteration = last.iteration();
    for (const ckpt::VarSnapshot& v : last.vars()) {
      ctx.ckpt_record.cells.vars.push_back({v.name, {ckpt::DeltaRun{0, v.cells}}});
    }
    ctx.canonical_ckpt = ctx.ckpt_record.to_frame(CodecChain{}, nullptr);
  }

  return cache.emplace(key, std::move(ctx)).first->second;
}

const std::string& mctb_artifact(AppContext& ctx, const std::string& codec) {
  auto it = ctx.mctb_by_codec.find(codec);
  if (it == ctx.mctb_by_codec.end()) {
    trace::MctbOptions o;
    o.codec = CodecChain::parse(codec);
    o.chunk_records = 512;  // several chunks even at unit scale
    it = ctx.mctb_by_codec.emplace(codec, trace::mctb_to_bytes(ctx.buffer, o)).first;
  }
  return it->second;
}

const std::string& ckpt_artifact(AppContext& ctx, const std::string& codec) {
  auto it = ctx.ckpt_by_codec.find(codec);
  if (it == ctx.ckpt_by_codec.end()) {
    it = ctx.ckpt_by_codec
             .emplace(codec, ctx.ckpt_record.to_frame(CodecChain::parse(codec), nullptr))
             .first;
  }
  return it->second;
}

const std::string& frame_artifact(AppContext& ctx, const std::string& codec) {
  auto it = ctx.frame_by_codec.find(codec);
  if (it == ctx.frame_by_codec.end()) {
    it = ctx.frame_by_codec
             .emplace(codec,
                      net::encode_frame(net::FrameType::TraceChunk, mctb_artifact(ctx, codec)))
             .first;
  }
  return it->second;
}

const std::string& artifact_for(AppContext& ctx, const CorpusEntry& e) {
  if (e.kind == "mctb") return mctb_artifact(ctx, e.codec);
  if (e.kind == "ckpt") return ckpt_artifact(ctx, e.codec);
  if (e.kind == "frame") return frame_artifact(ctx, e.codec);
  throw Error("fuzz: unknown case kind '" + e.kind + "'");
}

// ---------------------------------------------------------------------------
// Sandboxed case execution
// ---------------------------------------------------------------------------

void say(int fd, const std::string& msg) {
  if (!msg.empty()) {
    const ssize_t n = ::write(fd, msg.data(), msg.size());
    (void)n;
  }
}

struct ChildStatus {
  bool hang = false;
  bool signaled = false;
  int signal = 0;
  int exit_code = -1;
  std::string detail;
};

/// Fork, run `body(detail_fd)` in the child, `_Exit` with its return code.
/// The parent polls with a deadline: a child still alive at the deadline is
/// SIGKILLed and reported as a hang.
template <typename Body>
ChildStatus run_child(Body&& body, int timeout_ms) {
  int fds[2];
  if (::pipe(fds) != 0) throw Error("fuzz: pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw Error("fuzz: fork failed");
  }
  if (pid == 0) {
    ::close(fds[0]);
    int code = kExitCrash;
    try {
      code = body(fds[1]);
    } catch (const std::exception& e) {
      // A non-ac exception escaping the case body is exactly the bug class
      // the campaign hunts: malformed bytes must become typed errors.
      say(fds[1], std::string("unhandled exception: ") + e.what());
    } catch (...) {
      say(fds[1], "unhandled non-standard exception");
    }
    std::_Exit(code);
  }
  ::close(fds[1]);

  ChildStatus st;
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) break;
    if (r < 0) break;  // should not happen; treat as an immediate exit
    if (std::chrono::steady_clock::now() >= deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &status, 0);
      st.hang = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof buf)) > 0) st.detail.append(buf, n);
  ::close(fds[0]);

  if (!st.hang) {
    if (WIFEXITED(status)) {
      st.exit_code = WEXITSTATUS(status);
    } else if (WIFSIGNALED(status)) {
      st.signaled = true;
      st.signal = WTERMSIG(status);
    }
  }
  return st;
}

CaseResult classify(const ChildStatus& st) {
  if (st.hang) return {Outcome::Hang, "case exceeded its timeout and was killed"};
  if (st.signaled) {
    return {Outcome::Crash, strf("killed by signal %d%s%s", st.signal,
                                 st.detail.empty() ? "" : ": ", st.detail.c_str())};
  }
  switch (st.exit_code) {
    case kExitClean: return {Outcome::CleanError, st.detail};
    case kExitBenign: return {Outcome::Benign, st.detail};
    case kExitRecovered: return {Outcome::Recovered, st.detail};
    case kExitSilent: return {Outcome::SilentCorruption, st.detail};
    case kExitCrash: return {Outcome::Crash, st.detail};
    default:
      return {Outcome::Crash, strf("unexpected exit code %d%s%s", st.exit_code,
                                   st.detail.empty() ? "" : ": ", st.detail.c_str())};
  }
}

/// Decode-side case body (mctb / ckpt / frame): decode the mutated bytes,
/// re-serialize canonically, compare. Runs inside the forked child.
int decode_child(int fd, const CorpusEntry& e, const AppContext& ctx,
                 const std::string& bytes) {
  if (!e.fault.empty()) fault::arm_from_spec(e.fault);
  try {
    if (e.kind == "mctb") {
      trace::MctbReadOptions ropts;
      ropts.num_threads = 1;
      const trace::TraceBuffer decoded = trace::read_mctb(bytes, ropts);
      if (trace::mctb_to_bytes(decoded, canonical_mctb_options(decoded.size())) ==
          ctx.canonical_mctb) {
        return kExitBenign;
      }
      say(fd, "decoded MCTB container differs from the canonical serialization");
      return kExitSilent;
    }
    if (e.kind == "ckpt") {
      // The log walk's view: one whole frame whose CRC holds, then the record.
      trace::MctbFrameView frame;
      if (!trace::read_mctb_frame(bytes, 0, frame)) {
        say(fd, "engine frame rejected (magic, header, length or CRC)");
        return kExitClean;
      }
      if (frame.frame_size != bytes.size()) {
        say(fd, strf("%zu trailing bytes after the engine frame", bytes.size() - frame.frame_size));
        return kExitClean;
      }
      const ckpt::EngineRecord rec = ckpt::EngineRecord::from_frame(frame, nullptr);
      if (rec.to_frame(CodecChain{}, nullptr) == ctx.canonical_ckpt) return kExitBenign;
      say(fd, "decoded checkpoint record differs from the canonical serialization");
      return kExitSilent;
    }
    // frame: a (mutated) ACNP stream. Every surviving frame must pass its
    // CRC; a surviving TraceChunk must decode to the canonical trace.
    net::FrameReader reader;
    reader.feed(bytes.data(), bytes.size());
    bool chunk_ok = false;
    while (auto f = reader.next()) {
      f->verify_crc();
      if (f->type == net::FrameType::TraceChunk) {
        trace::MctbReadOptions ropts;
        ropts.num_threads = 1;
        const trace::TraceBuffer decoded = trace::read_mctb(f->payload, ropts);
        if (trace::mctb_to_bytes(decoded, canonical_mctb_options(decoded.size())) !=
            ctx.canonical_mctb) {
          say(fd, "TraceChunk decoded to a non-canonical trace");
          return kExitSilent;
        }
        chunk_ok = true;
      }
    }
    if (!chunk_ok) {
      say(fd, "no intact TraceChunk in the stream (truncated or retyped)");
      return kExitClean;
    }
    if (reader.buffered() != 0) {
      say(fd, strf("%zu trailing bytes after the last complete frame",
                   reader.buffered()));
      return kExitClean;
    }
    return kExitBenign;
  } catch (const Error& err) {
    say(fd, err.what());
    return kExitClean;
  }
}

// --- crash-kind cases -------------------------------------------------------
// Two phases, each its own child sharing one engine directory tree:
//   A  run the mini-app under the engine with the fault armed (unless it
//      targets recovery) and a fail-stop injected — the "process that died";
//   B  a fresh engine over the same storage recovers, restarts, and compares
//      the final output against the failure-free reference bit for bit.
// A case whose armed fault never fires (its skip outlasts the writes or
// reads it counts) is benign: it tested the restart, not the fault.

bool is_recover_fault(const CorpusEntry& e) {
  return e.fault.rfind("ckpt.recover.", 0) == 0;
}

/// True when the entry's armed fault point has triggered in this process.
bool fault_fired(const CorpusEntry& e) {
  return fault::trigger_count(e.fault.substr(0, e.fault.find('='))) > 0;
}

int crash_child_a(int fd, const CorpusEntry& e, const AppContext& ctx,
                  const ckpt::EngineConfig& cfg) {
  const bool armed = !e.fault.empty() && !is_recover_fault(e);
  if (armed) fault::arm_from_spec(e.fault);
  try {
    apps::run_with_engine(ctx.module, ctx.region, ctx.protect, cfg, /*fail_at=*/3);
  } catch (const Error& err) {
    say(fd, err.what());
    return kExitClean;  // injected throw surfaced as a typed error
  }
  if (armed && !fault_fired(e)) {
    say(fd, "fault never fired");
    return kExitBenign;  // the skip outlasts the run: the case tests nothing
  }
  return kExitRecovered;  // the run survived its fault (a delay): phase B decides
}

int crash_child_b(int fd, const CorpusEntry& e, const AppContext& ctx,
                  const ckpt::EngineConfig& cfg) {
  const bool armed = !e.fault.empty() && is_recover_fault(e);
  if (armed) fault::arm_from_spec(e.fault);
  try {
    ckpt::CheckpointEngine engine(cfg);
    if (!engine.has_checkpoint()) {
      say(fd, "no durable checkpoint to recover");
      return kExitClean;
    }
    const ckpt::CheckpointImage img = engine.recover();
    vm::RunOptions ropts;
    ropts.mcl = ctx.region;
    ropts.restore = &img;
    const vm::RunResult restarted = vm::run_module(ctx.module, ropts);
    if (restarted.output != ctx.reference_output) {
      say(fd, "restart output differs from the failure-free reference");
      return kExitSilent;
    }
    say(fd, strf("recovered iteration %lld, restart output bit-identical",
                 static_cast<long long>(img.iteration())));
    if (armed && !fault_fired(e)) {
      say(fd, "; fault never fired");
      return kExitBenign;
    }
    return kExitRecovered;
  } catch (const Error& err) {
    say(fd, err.what());
    return kExitClean;  // honest typed refusal beats wrong data
  }
}

CaseResult execute_crash_case(const CorpusEntry& e, AppContext& ctx,
                              const CampaignOptions& opts) {
  static std::atomic<std::uint64_t> counter{0};
  const fs::path tmp =
      fs::temp_directory_path() /
      strf("acfuzz-%d-%llu", static_cast<int>(::getpid()),
           static_cast<unsigned long long>(counter.fetch_add(1)));
  std::error_code ec;
  fs::create_directories(tmp / "l1", ec);
  fs::create_directories(tmp / "l2", ec);

  ckpt::EngineConfig cfg;
  cfg.dir = (tmp / "l1").string();
  cfg.partner_dir = (tmp / "l2").string();
  cfg.tag = "fuzz";
  cfg.level = ckpt::EngineLevel::L3;
  cfg.deltas_per_full = 3;
  cfg.async = false;  // deterministic commit order under injected kills
  cfg.set_codecs(CodecChain::parse(e.codec));

  CaseResult out;
  const ChildStatus a = run_child(
      [&](int fd) { return crash_child_a(fd, e, ctx, cfg); }, opts.case_timeout_ms);
  const CaseResult ra = classify(a);
  const bool killed = !a.hang && !a.signaled && a.exit_code == fault::kKillExitCode;
  if (!killed && (ra.outcome == Outcome::Crash || ra.outcome == Outcome::Hang)) {
    out = ra;  // the failing run itself misbehaved beyond the injected fault
  } else {
    const ChildStatus b = run_child(
        [&](int fd) { return crash_child_b(fd, e, ctx, cfg); }, opts.case_timeout_ms);
    out = classify(b);
    if (killed) {
      out.detail = "after injected kill: " + out.detail;
    } else if (ra.outcome == Outcome::Benign && !outcome_is_failure(out.outcome)) {
      // A fault that never fired proves nothing, whatever the restart did;
      // a restart that failed is still a finding.
      out = {Outcome::Benign, ra.detail + "; " + out.detail};
    }
  }
  fs::remove_all(tmp, ec);
  return out;
}

std::string case_line(const CorpusEntry& e, const CaseResult& r) {
  std::string muts;
  for (const Mutation& m : e.mutations) {
    if (!muts.empty()) muts += ';';
    muts += mutation_str(m);
  }
  return strf("%s %s %s fault=[%s] muts=[%s] -> %s", e.app.c_str(), e.kind.c_str(),
              e.codec.c_str(), e.fault.c_str(), muts.c_str(), outcome_name(r.outcome));
}

/// Greedy ddmin over the mutation list: drop any op whose removal preserves
/// the failing outcome, until no single removal does. Mutation lists are
/// short (<= max_mutations), so this stays within a handful of subprocess
/// probes per finding.
CorpusEntry shrink_entry(CorpusEntry e, Outcome want, const CampaignOptions& opts) {
  bool changed = true;
  while (changed && e.mutations.size() > 1) {
    changed = false;
    for (std::size_t i = 0; i < e.mutations.size(); ++i) {
      CorpusEntry candidate = e;
      candidate.mutations.erase(candidate.mutations.begin() + i);
      const CaseResult r = execute_entry(candidate, opts);
      if (r.outcome == want) {
        candidate.detail = one_line(r.detail);
        e = std::move(candidate);
        changed = true;
        break;
      }
    }
  }
  return e;
}

void bump(CampaignResult& res, Outcome o) {
  switch (o) {
    case Outcome::CleanError: ++res.clean_errors; break;
    case Outcome::Benign: ++res.benign; break;
    case Outcome::Recovered: ++res.recovered; break;
    case Outcome::SilentCorruption: ++res.silent; break;
    case Outcome::Crash: ++res.crashes; break;
    case Outcome::Hang: ++res.hangs; break;
  }
}

// The crash-kind scenario menu: every armed-fault shape the campaign draws
// from (a random skip count is appended so faults land on different commits).
constexpr const char* kCrashFaults[] = {
    "ckpt.writeback.pre_rename=kill",
    "ckpt.writeback.post_rename=kill",
    "ckpt.writeback.encode=throw",
    "ckpt.writeback.l2=throw",
    "ckpt.writeback.sync=kill",
    "ckpt.writeback.sync=throw",
    "ckpt.recover.local=throw",
    "ckpt.archive.append=kill",
    "ckpt.archive.append=short",
};

std::vector<std::string> split_csv(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string item =
        s.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    if (!item.empty()) out.push_back(item);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::CleanError: return "clean-error";
    case Outcome::Benign: return "benign";
    case Outcome::Recovered: return "recovered";
    case Outcome::SilentCorruption: return "silent-corruption";
    case Outcome::Crash: return "crash";
    case Outcome::Hang: return "hang";
  }
  return "?";
}

Outcome parse_outcome(const std::string& name) {
  for (const Outcome o : {Outcome::CleanError, Outcome::Benign, Outcome::Recovered,
                          Outcome::SilentCorruption, Outcome::Crash, Outcome::Hang}) {
    if (name == outcome_name(o)) return o;
  }
  throw Error("fuzz: unknown outcome '" + name + "'");
}

bool outcome_is_failure(Outcome o) {
  return o == Outcome::SilentCorruption || o == Outcome::Crash || o == Outcome::Hang;
}

CaseResult execute_entry(const CorpusEntry& e, const CampaignOptions& opts) {
  AppContext& ctx = context_for(e.app, e.scale);
  if (e.kind == "crash") return execute_crash_case(e, ctx, opts);
  std::string bytes = artifact_for(ctx, e);
  apply_mutations(bytes, e.mutations);
  const ChildStatus st = run_child(
      [&](int fd) { return decode_child(fd, e, ctx, bytes); }, opts.case_timeout_ms);
  return classify(st);
}

CampaignResult run_campaign(const CampaignOptions& opts) {
  if (opts.apps.empty() || opts.kinds.empty() || opts.codecs.empty()) {
    throw Error("fuzz: campaign needs at least one app, kind, and codec");
  }
  for (const std::string& k : opts.kinds) {
    if (k != "mctb" && k != "ckpt" && k != "frame" && k != "crash") {
      throw Error("fuzz: unknown case kind '" + k + "'");
    }
  }

  CampaignResult res;
  SplitMix64 rng(opts.seed);
  WallTimer timer;
  const int case_cap =
      opts.max_cases > 0 ? opts.max_cases : (opts.budget_seconds > 0 ? INT_MAX : 64);

  while (res.cases < case_cap &&
         (opts.budget_seconds <= 0 || timer.seconds() < opts.budget_seconds)) {
    CorpusEntry e;
    e.app = opts.apps[rng.below(opts.apps.size())];
    e.kind = opts.kinds[rng.below(opts.kinds.size())];
    e.codec = opts.codecs[rng.below(opts.codecs.size())];
    e.scale = opts.scale;
    e.seed = opts.seed;

    if (e.kind == "crash") {
      std::string f = kCrashFaults[rng.below(std::size(kCrashFaults))];
      const int skip = static_cast<int>(rng.below(4));
      if (skip > 0) f += strf(":skip=%d", skip);
      e.fault = f;
    } else {
      AppContext& ctx = context_for(e.app, e.scale);
      std::string cur = artifact_for(ctx, e);
      const int nmut =
          1 + static_cast<int>(rng.below(std::max(opts.max_mutations, 1)));
      for (int i = 0; i < nmut; ++i) {
        const Mutation m = random_mutation(rng, cur.size());
        e.mutations.push_back(m);
        apply_mutation(cur, m);  // keep sizes honest for subsequent draws
      }
    }

    const CaseResult r = execute_entry(e, opts);
    ++res.cases;
    bump(res, r.outcome);
    res.case_log.push_back(case_line(e, r));
    if (opts.verbose) std::printf("  %s\n", res.case_log.back().c_str());

    if (outcome_is_failure(r.outcome)) {
      e.outcome = outcome_name(r.outcome);
      e.detail = one_line(r.detail);
      if (opts.shrink && e.mutations.size() > 1) e = shrink_entry(e, r.outcome, opts);
      Finding f;
      f.entry = std::move(e);
      if (!opts.corpus_dir.empty()) {
        f.corpus_path = save_corpus_entry(f.entry, opts.corpus_dir);
      }
      res.findings.push_back(std::move(f));
    }
  }
  return res;
}

bool replay_file(const std::string& path, const CampaignOptions& opts, bool verbose) {
  const CorpusEntry e = load_corpus_entry(path);
  const CaseResult r = execute_entry(e, opts);
  const bool match = e.outcome.empty() || e.outcome == outcome_name(r.outcome);
  if (verbose || !match) {
    std::printf("%s %s: %s -> %s%s%s\n", match ? "ok" : "MISMATCH", path.c_str(),
                e.outcome.empty() ? "?" : e.outcome.c_str(), outcome_name(r.outcome),
                r.detail.empty() ? "" : " | ", one_line(r.detail).c_str());
  }
  return match;
}

int replay_corpus_dir(const std::string& dir, const CampaignOptions& opts, bool verbose) {
  const std::vector<std::string> files = list_corpus(dir);
  if (files.empty()) {
    std::printf("fuzz: no .acfz entries under %s\n", dir.c_str());
    return 0;
  }
  int mismatches = 0;
  for (const std::string& f : files) {
    if (!replay_file(f, opts, verbose)) ++mismatches;
  }
  std::printf("fuzz: replayed %zu corpus entr%s, %d mismatch%s\n", files.size(),
              files.size() == 1 ? "y" : "ies", mismatches, mismatches == 1 ? "" : "es");
  return mismatches;
}

int fuzz_main(const std::vector<std::string>& args) {
  CampaignOptions opts;
  std::string replay_one, replay_dir;
  bool budget_set = false;

  const auto need_value = [&](std::size_t i, const std::string& flag) {
    if (i + 1 >= args.size()) throw Error("fuzz: " + flag + " needs a value");
    return args[i + 1];
  };

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--budget") {
      const std::string v = need_value(i++, a);
      try {
        if (!v.empty() && v.back() == 's') {
          opts.budget_seconds = std::stod(v.substr(0, v.size() - 1));
        } else {
          opts.max_cases = std::stoi(v);
        }
      } catch (const std::exception&) {
        throw Error("fuzz: bad --budget '" + v + "' (want e.g. 45s or 200)");
      }
      budget_set = true;
    } else if (a == "--seed") {
      opts.seed = std::stoull(need_value(i++, a));
    } else if (a == "--corpus") {
      opts.corpus_dir = need_value(i++, a);
    } else if (a == "--apps") {
      opts.apps = split_csv(need_value(i++, a));
    } else if (a == "--kinds") {
      opts.kinds = split_csv(need_value(i++, a));
    } else if (a == "--codecs") {
      opts.codecs = split_csv(need_value(i++, a));
    } else if (a == "--scale") {
      opts.scale = std::stoi(need_value(i++, a));
    } else if (a == "--timeout") {
      opts.case_timeout_ms = std::stoi(need_value(i++, a));
    } else if (a == "--replay") {
      replay_one = need_value(i++, a);
    } else if (a == "--replay-corpus") {
      replay_dir = need_value(i++, a);
    } else if (a == "--no-shrink") {
      opts.shrink = false;
    } else if (a == "-v" || a == "--verbose") {
      opts.verbose = true;
    } else if (a == "--list-fault-points") {
      for (const fault::PointInfo& p : fault::catalog()) {
        std::printf("%-32s %s\n", p.name, p.site);
      }
      return 0;
    } else {
      throw Error("fuzz: unknown flag '" + a + "'");
    }
  }

  if (!replay_one.empty()) return replay_file(replay_one, opts, /*verbose=*/true) ? 0 : 1;
  if (!replay_dir.empty()) {
    return replay_corpus_dir(replay_dir, opts, opts.verbose) == 0 ? 0 : 1;
  }

  if (!budget_set) opts.max_cases = 64;
  const CampaignResult res = run_campaign(opts);
  std::printf("fuzz campaign: seed=%llu cases=%d\n",
              static_cast<unsigned long long>(opts.seed), res.cases);
  std::printf(
      "  clean-error=%d benign=%d recovered=%d silent=%d crash=%d hang=%d\n",
      res.clean_errors, res.benign, res.recovered, res.silent, res.crashes, res.hangs);
  for (const Finding& f : res.findings) {
    std::printf("  FINDING %s: %s\n",
                f.entry.outcome.c_str(), f.entry.detail.c_str());
    if (!f.corpus_path.empty()) {
      std::printf("    replay: autocheck --fuzz-campaign --replay %s\n",
                  f.corpus_path.c_str());
    }
  }
  std::printf("fuzz campaign: %s\n", res.ok() ? "clean" : "FINDINGS");
  return res.ok() ? 0 : 1;
}

}  // namespace ac::fuzz
