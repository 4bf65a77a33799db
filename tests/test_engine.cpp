// CheckpointEngine: interval policies, records as log frames (one CRC over
// frame header and payload), report-driven registration,
// arena dirty-cell tracking, and full C/R round-trips through the
// incremental / multi-level paths — including storage degradation
// (a corrupt record in the local log -> its partner replica -> the archive),
// torn log tails, and the fault-injection recovery matrix: all 14 apps x
// {L1,L2,L3} x {raw, chain} codecs, killed at a randomized iteration and
// restarted bit-identically.
#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "apps/harness.hpp"
#include "ckpt/codec.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/policy.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/file.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace/mctb.hpp"
#include "vm/memory.hpp"

#include "helpers.hpp"

namespace ac {
namespace {

using apps::analyze_app;
using apps::App;
using apps::find_app;

// ---------------------------------------------------------------------------
// Interval policies
// ---------------------------------------------------------------------------

TEST(Policy, YoungFormula) {
  EXPECT_DOUBLE_EQ(ckpt::young_period_seconds(2.0, 100.0), 20.0);
  EXPECT_DOUBLE_EQ(ckpt::young_period_seconds(0.0, 100.0), 0.0);
}

TEST(Policy, DalyFormula) {
  // Daly reduces to ~Young for C << M, minus the checkpoint cost itself.
  const double young = ckpt::young_period_seconds(0.5, 1000.0);
  const double daly = ckpt::daly_period_seconds(0.5, 1000.0);
  EXPECT_LT(daly, young);
  EXPECT_GT(daly, young - 1.0);
  // Degenerate regime: checkpoints as expensive as failures — period = MTBF.
  EXPECT_DOUBLE_EQ(ckpt::daly_period_seconds(300.0, 100.0), 100.0);
}

TEST(Policy, FixedInterval) {
  ckpt::FixedIntervalPolicy p(3);
  EXPECT_FALSE(p.due(1, 0));
  EXPECT_FALSE(p.due(2, 0));
  EXPECT_TRUE(p.due(3, 0));
  EXPECT_FALSE(p.due(4, 3));
  EXPECT_TRUE(p.due(6, 3));
  EXPECT_EQ(p.interval_iters(), 3);
}

TEST(Policy, YoungDalyAdaptsToMeasuredCosts) {
  ckpt::YoungDalyPolicy p(1000.0, ckpt::YoungDalyPolicy::Order::Young);
  // No observations yet: protect every iteration.
  EXPECT_EQ(p.interval_iters(), 1);
  EXPECT_TRUE(p.due(1, 0));
  // 1 s iterations, 0.5 s checkpoints, MTBF 1000 s -> sqrt(2*0.5*1000) ~ 31.6.
  for (int i = 0; i < 4; ++i) p.observe_iteration(1.0);
  for (int i = 0; i < 2; ++i) p.observe_checkpoint(0.5);
  EXPECT_GE(p.interval_iters(), 31);
  EXPECT_LE(p.interval_iters(), 32);
  EXPECT_FALSE(p.due(10, 0));
  EXPECT_TRUE(p.due(32, 0));
}

// ---------------------------------------------------------------------------
// Engine record serialization
// ---------------------------------------------------------------------------

ckpt::EngineRecord sample_full() {
  ckpt::EngineRecord rec;
  rec.base_id = 3;
  rec.iteration = 7;
  rec.cells.vars.push_back(ckpt::DeltaVar{"x", {ckpt::DeltaRun{0, {{41, 0}, {42, 0}, {43, 0}}}}});
  rec.cells.vars.push_back(
      ckpt::DeltaVar{"rho", {ckpt::DeltaRun{0, {{0x3FF0000000000000ull, 1}}}}});
  return rec;
}

ckpt::EngineRecord sample_delta() {
  ckpt::EngineRecord rec;
  rec.base_id = 3;
  rec.seq = 2;
  rec.iteration = 9;
  rec.cells.vars.push_back(ckpt::DeltaVar{"x", {ckpt::DeltaRun{1, {{99, 0}, {100, 0}}}}});
  return rec;
}

/// Verify `frame` the way the log walk does, then decode the record.
ckpt::EngineRecord decode(const std::string& frame, const ckpt::CheckpointImage* base = nullptr) {
  trace::MctbFrameView view;
  if (!trace::read_mctb_frame(frame, 0, view) || view.frame_size != frame.size()) {
    throw CheckpointError("not one whole frame");
  }
  return ckpt::EngineRecord::from_frame(view, base);
}

/// Re-seal a hand-edited frame: the CRC field sits after the magic, kind,
/// seq, count, aux, raw size, payload offset and payload size, and covers
/// every other byte.
void reseal(std::string& frame) {
  constexpr std::size_t at = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8;
  std::uint32_t crc = crc32(frame.data(), at);
  crc = crc32(frame.data() + at + 4, frame.size() - at - 4, crc);
  std::memcpy(frame.data() + at, &crc, 4);
}

TEST(EngineRecord, FullRoundTrip) {
  const ckpt::EngineRecord rec = sample_full();
  const std::string frame = rec.to_frame(CodecChain{}, nullptr);
  // Frame header 61, base_id 8, variable count 4; per variable a name length,
  // the name, a run count, one 8-byte run header, the encoded length, 9 bytes
  // a cell.
  EXPECT_EQ(frame.size(), 61u + 8 + 4 + (4 + 1 + 4 + 8 + 4 + 27) + (4 + 3 + 4 + 8 + 4 + 9));
  const ckpt::EngineRecord back = decode(frame);
  EXPECT_TRUE(back.full());
  EXPECT_EQ(back.base_id, 3u);
  EXPECT_EQ(back.iteration, 7);
  EXPECT_EQ(back.image(), rec.image());
  EXPECT_EQ(back.image().iteration(), 7);
  ASSERT_NE(back.image().find("rho"), nullptr);
  EXPECT_EQ(back.image().find("rho")->cells[0].kind, 1);
}

TEST(EngineRecord, DeltaRoundTrip) {
  const ckpt::EngineRecord rec = sample_delta();
  const std::string frame = rec.to_frame(CodecChain{}, nullptr);
  EXPECT_EQ(frame.size(), 61u + 8 + 4 + (4 + 1 + 4 + 8 + 4 + 18));
  const ckpt::EngineRecord back = decode(frame);
  EXPECT_FALSE(back.full());
  EXPECT_EQ(back.seq, 2u);
  EXPECT_EQ(back.iteration, 9);
  ASSERT_EQ(back.cells.vars.size(), 1u);
  ASSERT_EQ(back.cells.vars[0].runs.size(), 1u);
  EXPECT_EQ(back.cells.vars[0].runs[0].index, 1u);
  EXPECT_EQ(back.cells.cell_count(), 2u);
}

/// One CRC covers the frame header and the payload: every single-bit flip
/// and every truncation of a full or a delta frame fails read_mctb_frame,
/// the header fields the log walk reads (kind, seq, the iteration in aux,
/// the codec ids) included.
TEST(EngineRecord, EveryBitFlipFailsTheFrame) {
  const ckpt::EngineRecord full = sample_full();
  const ckpt::CheckpointImage base = full.image();
  for (const char* codec : {"raw", "xor+rle+lz"}) {
    const CodecChain chain = CodecChain::parse(codec);
    for (const std::string& frame :
         {full.to_frame(chain, nullptr), sample_delta().to_frame(chain, &base)}) {
      trace::MctbFrameView view;
      ASSERT_TRUE(trace::read_mctb_frame(frame, 0, view)) << codec;
      int passed = 0;
      for (std::size_t bit = 0; bit < frame.size() * 8; ++bit) {
        std::string flipped = frame;
        flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
        if (trace::read_mctb_frame(flipped, 0, view)) {
          ++passed;
          ADD_FAILURE() << codec << ": flip of bit " << bit << " passes";
        }
      }
      EXPECT_EQ(passed, 0) << codec;
      for (std::size_t n = 0; n < frame.size(); ++n) {
        EXPECT_FALSE(trace::read_mctb_frame(frame.substr(0, n), 0, view)) << codec << " len=" << n;
      }
    }
  }
}

TEST(EngineRecord, CodecChainRoundTrip) {
  const ac::CodecChain chain = ac::CodecChain::parse("xor+rle+lz");

  const ckpt::EngineRecord full = sample_full();
  const std::string full_frame = full.to_frame(chain, nullptr);
  trace::MctbFrameView view;
  ASSERT_TRUE(trace::read_mctb_frame(full_frame, 0, view));
  EXPECT_EQ(view.codec, chain);
  const ckpt::CheckpointImage base = decode(full_frame).image();
  EXPECT_EQ(base, full.image());

  // Delta payloads XOR against the base image's cells; the same base must be
  // supplied on decode, and decoding without it is an error, not garbage.
  const ckpt::EngineRecord delta = sample_delta();
  const std::string frame = delta.to_frame(chain, &base);
  const ckpt::EngineRecord back = decode(frame, &base);
  ASSERT_EQ(back.cells.vars.size(), 1u);
  EXPECT_EQ(back.cells.vars[0].runs[0].cells, delta.cells.vars[0].runs[0].cells);
  EXPECT_THROW(decode(frame), CheckpointError);
}

TEST(EngineRecord, RejectsBadCodecIdInHeader) {
  // Patch the first codec stage id to garbage and re-seal the CRC: the frame
  // header's codec validation itself must reject it (the CRC is fine).
  std::string frame = sample_delta().to_frame(ac::CodecChain::parse("rle"), nullptr);
  const std::size_t nstages_off = trace::kMctbFrameHeaderBytes - 5;
  ASSERT_EQ(static_cast<unsigned char>(frame[nstages_off]), 1u);
  frame[nstages_off + 1] = 0x7F;  // stage id
  reseal(frame);
  trace::MctbFrameView view;
  EXPECT_FALSE(trace::read_mctb_frame_header(frame, 0, view));
  EXPECT_FALSE(trace::read_mctb_frame(frame, 0, view));
}

TEST(EngineRecord, RejectsOtherFrameKindsAndGappedFullRecords) {
  // A sealed frame of another kind — 0x10 tagged the earlier record layout —
  // is not an engine record, whatever its payload.
  const std::string good = sample_full().to_frame(CodecChain{}, nullptr);
  trace::MctbFrameView view;
  ASSERT_TRUE(trace::read_mctb_frame(good, 0, view));
  try {
    decode(trace::mctb_frame(0x10, view.seq, view.aux, view.payload, view.codec));
    FAIL() << "kind 0x10 decoded as an engine record";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("kind 0x10"), std::string::npos) << e.what();
  }

  // A full record whose runs leave a gap does not tile its variable.
  ckpt::EngineRecord gapped = sample_full();
  gapped.cells.vars[0].runs[0].index = 1;
  EXPECT_THROW(decode(gapped.to_frame(CodecChain{}, nullptr)), CheckpointError);
  // The same runs in a delta are fine.
  gapped.seq = 1;
  EXPECT_EQ(decode(gapped.to_frame(CodecChain{}, nullptr)).cells.cell_count(), 4u);
}

TEST(EngineRecord, ApplyDeltaPatchesBase) {
  ckpt::CheckpointImage img = sample_full().image();
  ckpt::apply_delta(img, sample_delta().cells, 9);
  EXPECT_EQ(img.iteration(), 9);
  ASSERT_NE(img.find("x"), nullptr);
  EXPECT_EQ(img.find("x")->cells[0].payload, 41u);   // untouched
  EXPECT_EQ(img.find("x")->cells[1].payload, 99u);   // patched
  EXPECT_EQ(img.find("x")->cells[2].payload, 100u);  // patched
  // Out-of-range run and unknown variable are rejected.
  ckpt::DeltaPatch bad;
  bad.vars.push_back(ckpt::DeltaVar{"x", {ckpt::DeltaRun{2, {{1, 0}, {2, 0}}}}});
  EXPECT_THROW(ckpt::apply_delta(img, bad, 10), CheckpointError);
  ckpt::DeltaPatch unknown;
  unknown.vars.push_back(ckpt::DeltaVar{"nope", {ckpt::DeltaRun{0, {{1, 0}}}}});
  EXPECT_THROW(ckpt::apply_delta(img, unknown, 10), CheckpointError);
}

// ---------------------------------------------------------------------------
// Report-driven registration
// ---------------------------------------------------------------------------

TEST(EngineRegistration, FromReportAndFromJson) {
  const App& app = find_app("HPCCG");
  const apps::AnalysisRun run = analyze_app(app);

  ckpt::EngineConfig cfg;
  cfg.dir = testing::TempDir();
  cfg.tag = "reg_mem";
  ckpt::CheckpointEngine from_report(cfg);
  from_report.register_report(run.report);
  EXPECT_EQ(from_report.protected_names(), run.report.critical_names());

  cfg.tag = "reg_json";
  ckpt::CheckpointEngine from_json(cfg);
  from_json.register_report_json(run.report.to_json());
  EXPECT_EQ(from_json.protected_names(), run.report.critical_names());
}

TEST(EngineRegistration, JsonRejectsGarbage) {
  EXPECT_THROW(ckpt::CheckpointEngine::names_from_json("{\"nope\": []}"), CheckpointError);
  EXPECT_THROW(ckpt::CheckpointEngine::names_from_json("{\"critical\": [unterminated"),
               CheckpointError);
}

// ---------------------------------------------------------------------------
// Arena dirty-cell tracking
// ---------------------------------------------------------------------------

TEST(ArenaEpochs, WritesStampCurrentEpoch) {
  vm::Arena arena;
  const std::uint64_t addr = arena.alloc_global(16);
  // Allocation-time zeroing counts as a write in epoch 1.
  EXPECT_TRUE(arena.dirty_since(addr, 1));

  const std::uint64_t next = arena.advance_epoch();
  EXPECT_EQ(next, 2u);
  EXPECT_FALSE(arena.dirty_since(addr, 2));
  EXPECT_FALSE(arena.dirty_since(addr + 8, 2));

  arena.write(addr, vm::Value::make_int(5));
  EXPECT_TRUE(arena.dirty_since(addr, 2));
  EXPECT_FALSE(arena.dirty_since(addr + 8, 2));
}

// ---------------------------------------------------------------------------
// End-to-end C/R round-trips
// ---------------------------------------------------------------------------

ckpt::EngineConfig engine_cfg(const std::string& tag) {
  ckpt::EngineConfig cfg;
  cfg.dir = testing::TempDir();
  cfg.tag = tag;
  return cfg;
}

// The engine replicates under the same file names, so the partner must be a
// genuinely different directory.
std::string partner_dir() {
  const std::string dir = testing::TempDir() + "/ac_engine_partner";
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(EngineRoundTrip, FullImages) {
  const App& app = find_app("HPCCG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_full");
  cfg.deltas_per_full = 0;
  const auto v = apps::validate_cr(run.module, run.region, run.report.critical_names(),
                                   /*fail_at=*/6, cfg);
  EXPECT_TRUE(v.restart_matches);
  EXPECT_EQ(v.recovered_iteration, 5);
  EXPECT_EQ(v.stats.checkpoints, 5);
  EXPECT_EQ(v.stats.full_checkpoints, 5);
  EXPECT_EQ(v.stats.delta_checkpoints, 0);
  // Every commit *is* a full raw record, so "bytes had every commit been
  // full" is exactly what L1 wrote.
  EXPECT_EQ(v.stats.full_equiv_bytes, v.stats.l1_bytes);
}

TEST(EngineRoundTrip, Incremental) {
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_incr");
  cfg.deltas_per_full = 2;
  const auto v = apps::validate_cr(run.module, run.region, run.report.critical_names(),
                                   /*fail_at=*/6, cfg);
  EXPECT_TRUE(v.restart_matches);
  EXPECT_EQ(v.recovered_iteration, 5);
  EXPECT_EQ(v.stats.checkpoints, v.stats.full_checkpoints + v.stats.delta_checkpoints);
  EXPECT_GT(v.stats.delta_checkpoints, 0);
}

TEST(EngineRoundTrip, PolicyDrivenCadenceStillRecovers) {
  const App& app = find_app("FT");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_policy");
  cfg.policy = std::make_shared<ckpt::FixedIntervalPolicy>(2);
  const auto v = apps::validate_cr(run.module, run.region, run.report.critical_names(),
                                   /*fail_at=*/6, cfg);
  EXPECT_TRUE(v.restart_matches);
  // Commits at iterations 2 and 4; restart rolls back to 4, re-executes 5.
  EXPECT_EQ(v.recovered_iteration, 4);
  EXPECT_EQ(v.stats.checkpoints, 2);
}

TEST(EngineRoundTrip, SparseWritesProduceSmallDeltas) {
  // Only x[it] and the induction/accumulator cells are dirtied per iteration,
  // so delta records must capture far fewer cells than full images would.
  const std::string src =
      "double x[64];\n"
      "int main() {\n"
      "  int it;\n"
      "  double s;\n"
      "  int i;\n"
      "  s = 0.0;\n"
      "  for (i = 0; i < 64; i = i + 1) { x[i] = 1.0; }\n"
      "  //@mcl-begin\n"
      "  for (it = 0; it < 10; it = it + 1) {\n"
      "    x[it] = x[it] + 2.0;\n"
      "    s = s + x[it];\n"
      "  }\n"
      "  //@mcl-end\n"
      "  print_float(s);\n"
      "  return 0;\n"
      "}\n";
  const ir::Module module = minic::compile(src);
  const analysis::MclRegion region = analysis::find_mcl_region(src);

  ckpt::EngineConfig cfg = engine_cfg("eng_sparse");
  cfg.deltas_per_full = 1 << 20;
  ckpt::CheckpointEngine logs(cfg);
  logs.reset();
  const auto r = apps::run_with_engine(module, region, {"x", "s", "it"}, cfg);
  logs.reset();
  EXPECT_EQ(r.run.exit_code, 0);
  EXPECT_GT(r.stats.delta_checkpoints, 0);
  // Full stream would capture 66 cells per commit; sparse deltas carry ~3.
  const std::uint64_t full_cells =
      66u * static_cast<std::uint64_t>(r.stats.checkpoints);
  EXPECT_LT(r.stats.cells_captured, full_cells / 4);
  EXPECT_LT(r.stats.l1_bytes, r.stats.full_equiv_bytes);
}

// ---------------------------------------------------------------------------
// Multi-level degradation
// ---------------------------------------------------------------------------

void spew(const std::string& path, const std::string& data) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), f), data.size());
  std::fclose(f);
}

/// Flip a byte in the middle of frame `i`'s payload in the log at `path`.
/// The frame header stays intact, so a header walk still steps over the
/// frame, but its CRC fails: exactly one record of the log is lost.
void corrupt_frame(const std::string& path, std::size_t i) {
  std::string bytes = read_file_bytes(path);
  trace::MctbFrameView frame;
  std::size_t pos = 0;
  for (std::size_t k = 0;; ++k) {
    ASSERT_TRUE(trace::read_mctb_frame_header(bytes, pos, frame)) << path << " has no frame " << i;
    if (k == i) break;
    pos += frame.frame_size;
  }
  ASSERT_FALSE(frame.payload.empty());
  const std::size_t at =
      static_cast<std::size_t>(frame.payload.data() - bytes.data()) + frame.payload.size() / 2;
  bytes[at] = static_cast<char>(bytes[at] ^ 0xFF);
  spew(path, bytes);
}

TEST(EngineLevels, L2FallsBackToPartnerWhenLocalCorrupt) {
  const App& app = find_app("CG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_l2");
  cfg.partner_dir = partner_dir();
  cfg.level = ckpt::EngineLevel::L2;
  cfg.deltas_per_full = 0;

  std::string reference;
  {
    vm::RunOptions ropts;
    reference = vm::run_module(run.module, ropts).output;
  }
  {
    ckpt::CheckpointEngine engine(cfg);
    engine.reset();
    engine.register_report(run.report);
    vm::RunOptions ropts;
    ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
    ropts.engine = &engine;
    ropts.fail_at_iteration = 4;  // CG's default NITER is 4
    ASSERT_TRUE(vm::run_module(run.module, ropts).failed);
    engine.flush();
  }
  // The node-local copy is corrupted; recovery must route to the partner.
  ckpt::CheckpointEngine restart(cfg);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L1), 0);
  ASSERT_TRUE(restart.has_checkpoint());
  const ckpt::CheckpointImage img = restart.recover();
  restart.reset();
  EXPECT_EQ(img.iteration(), 3);

  vm::RunOptions ropts;
  ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
  ropts.restore = &img;
  EXPECT_EQ(vm::run_module(run.module, ropts).output, reference);
}

TEST(EngineLevels, L3ArchiveIsTheLastResort) {
  const App& app = find_app("IS");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_l3");
  cfg.partner_dir = partner_dir();
  cfg.level = ckpt::EngineLevel::L3;
  cfg.deltas_per_full = 3;

  std::string reference;
  {
    vm::RunOptions ropts;
    reference = vm::run_module(run.module, ropts).output;
  }
  {
    ckpt::CheckpointEngine engine(cfg);
    engine.reset();
    engine.register_report(run.report);
    vm::RunOptions ropts;
    ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
    ropts.engine = &engine;
    ropts.fail_at_iteration = 6;
    ASSERT_TRUE(vm::run_module(run.module, ropts).failed);
    engine.flush();
  }
  // Both the local and the partner log are gone: only the archive remains.
  ckpt::CheckpointEngine restart(cfg);
  std::remove(restart.log_path(ckpt::EngineLevel::L1).c_str());
  std::remove(restart.log_path(ckpt::EngineLevel::L2).c_str());
  ASSERT_TRUE(restart.has_checkpoint());
  const ckpt::CheckpointImage img = restart.recover();
  restart.reset();
  EXPECT_EQ(img.iteration(), 5);

  vm::RunOptions ropts;
  ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
  ropts.restore = &img;
  EXPECT_EQ(vm::run_module(run.module, ropts).output, reference);
}

// A delta corrupted only locally must be healed by the partner replica (same
// recovered iteration as the pristine chain), record by record; corrupted in
// *both* logs, the L3 archive must supply the full chain instead of the
// local chain silently rolling back to the pre-corruption prefix.
class EngineFallback : public test::EngineLogs {
 protected:
  void run_failing(const apps::AnalysisRun& run, const ckpt::EngineConfig& cfg, int fail_at) {
    track(cfg);
    ckpt::CheckpointEngine engine(cfg);
    engine.reset();
    engine.register_report(run.report);
    vm::RunOptions ropts;
    ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
    ropts.engine = &engine;
    ropts.fail_at_iteration = fail_at;
    ASSERT_TRUE(vm::run_module(run.module, ropts).failed);
    engine.flush();
  }
};

TEST_F(EngineFallback, CorruptL1DeltaFallsBackToPartnerReplica) {
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_fb_l2");
  cfg.partner_dir = partner_dir();
  cfg.level = ckpt::EngineLevel::L3;
  cfg.deltas_per_full = 1 << 20;
  cfg.set_codecs(ac::CodecChain::parse("xor+rle"));
  run_failing(run, cfg, /*fail_at=*/6);

  // Commits: full@1, deltas 1..4 (@2..@5). Flip one byte inside L1 delta 2.
  ckpt::CheckpointEngine restart(cfg);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L1), 2);
  const ckpt::CheckpointImage img = restart.recover();
  // The partner copy of delta 2 keeps the chain whole to iteration 5.
  EXPECT_EQ(img.iteration(), 5);

  vm::RunOptions ref;
  const std::string reference = vm::run_module(run.module, ref).output;
  vm::RunOptions ropts;
  ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
  ropts.restore = &img;
  EXPECT_EQ(vm::run_module(run.module, ropts).output, reference);
}

TEST_F(EngineFallback, DeltaCorruptInBothDirsFallsBackToArchive) {
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_fb_l3");
  cfg.partner_dir = partner_dir();
  cfg.level = ckpt::EngineLevel::L3;
  cfg.deltas_per_full = 1 << 20;
  run_failing(run, cfg, /*fail_at=*/6);

  // Both copies of delta 2 are bad: the L1/L2 chain now ends at iteration
  // 2, but the archive still holds every record — recovery must take the
  // deeper source, exactly as engine.hpp documents.
  ckpt::CheckpointEngine restart(cfg);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L1), 2);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L2), 2);
  const ckpt::CheckpointImage img = restart.recover();
  EXPECT_EQ(img.iteration(), 5);

  vm::RunOptions ref;
  const std::string reference = vm::run_module(run.module, ref).output;
  vm::RunOptions ropts;
  ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
  ropts.restore = &img;
  EXPECT_EQ(vm::run_module(run.module, ropts).output, reference);
}

TEST_F(EngineFallback, EachRecordFallsBackOnItsOwn) {
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_fb_per_record");
  cfg.partner_dir = partner_dir();
  cfg.level = ckpt::EngineLevel::L2;
  cfg.deltas_per_full = 1 << 20;
  run_failing(run, cfg, /*fail_at=*/6);

  // Commits: full@1, deltas 1..4 (@2..@5). Delta 2 is bad in the local log
  // and delta 3 in the partner's: the local log alone reaches iteration 2
  // and the partner's 3, but taking each record from whichever copy is good
  // reaches 5.
  ckpt::CheckpointEngine restart(cfg);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L1), 2);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L2), 3);
  const ckpt::CheckpointImage img = restart.recover();
  EXPECT_EQ(img.iteration(), 5);

  vm::RunOptions ref;
  const std::string reference = vm::run_module(run.module, ref).output;
  vm::RunOptions ropts;
  ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
  ropts.restore = &img;
  EXPECT_EQ(vm::run_module(run.module, ropts).output, reference);
}

TEST_F(EngineFallback, DeltasAppendToOneLogPerLevel) {
  // One full record, then deltas only: every level keeps a single log, and
  // after the first commit's two rotations (L1 and L2) nothing is renamed.
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  namespace fs = std::filesystem;
  ckpt::EngineConfig cfg;
  cfg.dir = testing::TempDir() + "/ac_engine_one_log";
  cfg.partner_dir = testing::TempDir() + "/ac_engine_one_log_partner";
  for (const std::string& dir : {cfg.dir, cfg.partner_dir}) {
    fs::remove_all(dir);
    fs::create_directories(dir);
  }
  cfg.tag = "eng_one_log";
  cfg.level = ckpt::EngineLevel::L3;
  cfg.deltas_per_full = 1 << 20;
  fault::arm_from_spec("ckpt.writeback.pre_rename=delay:ms=0");
  run_failing(run, cfg, /*fail_at=*/6);
  const std::uint64_t renames = fault::trigger_count("ckpt.writeback.pre_rename");
  fault::disarm_all();
  EXPECT_EQ(renames, 2u);

  const ckpt::CheckpointEngine restart(cfg);
  const auto files = [](const std::string& dir) {
    std::vector<std::string> out;
    for (const auto& entry : fs::directory_iterator(dir)) out.push_back(entry.path().string());
    std::sort(out.begin(), out.end());
    return out;
  };
  std::vector<std::string> local = {restart.log_path(ckpt::EngineLevel::L1),
                                    restart.log_path(ckpt::EngineLevel::L3)};
  std::sort(local.begin(), local.end());
  EXPECT_EQ(files(cfg.dir), local);
  EXPECT_EQ(files(cfg.partner_dir),
            std::vector<std::string>{restart.log_path(ckpt::EngineLevel::L2)});
  EXPECT_EQ(restart.recover().iteration(), 5);
}

// ---------------------------------------------------------------------------
// Fault-injection recovery matrix: 14 apps x {L1,L2,L3} x {raw, chain}
// ---------------------------------------------------------------------------

class EngineMatrix : public testing::TestWithParam<std::string> {};

TEST_P(EngineMatrix, RandomizedKillRestartsBitIdentical) {
  const App& app = find_app(GetParam());
  const apps::AnalysisRun run = analyze_app(app);
  const auto protect = run.report.critical_names();

  // Deterministic per-app randomization of the kill point (every app's main
  // loop spans at least 4 iterations at unit-test scale, so headers evaluate
  // through iteration 5).
  std::uint64_t seed = 0xC0DEC;
  for (const char c : app.name) seed = seed * 131 + static_cast<std::uint64_t>(c);
  SplitMix64 rng(seed);

  int combo = 0;
  for (const ckpt::EngineLevel level :
       {ckpt::EngineLevel::L1, ckpt::EngineLevel::L2, ckpt::EngineLevel::L3}) {
    for (const std::string codec : {"raw", "chain"}) {
      const int fail_at = static_cast<int>(3 + rng.below(3));  // in [3, 5]
      ckpt::EngineConfig cfg = engine_cfg(ac::strf("eng_matrix_%s_%d", app.name.c_str(), combo));
      cfg.level = level;
      if (level >= ckpt::EngineLevel::L2) cfg.partner_dir = partner_dir();
      cfg.deltas_per_full = 2;  // force delta records into every combo
      cfg.set_codecs(ac::CodecChain::parse(codec));
      const auto v = apps::validate_cr(run.module, run.region, protect, fail_at, cfg);
      EXPECT_TRUE(v.restart_matches)
          << app.name << " level=" << static_cast<int>(level) << " codec=" << codec
          << " fail_at=" << fail_at;
      // The full chain must be recoverable: the engine committed every
      // completed iteration before the kill.
      EXPECT_EQ(v.recovered_iteration, fail_at - 1)
          << app.name << " level=" << static_cast<int>(level) << " codec=" << codec;
      ++combo;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    All14, EngineMatrix,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU", "CoMD",
                    "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(EngineLevels, TornDeltaChainRollsBackToLastGoodPrefix) {
  const App& app = find_app("SP");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_torn");
  cfg.deltas_per_full = 1 << 20;  // one base + delta chain
  {
    ckpt::CheckpointEngine engine(cfg);
    engine.reset();
    engine.register_report(run.report);
    vm::RunOptions ropts;
    ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
    ropts.engine = &engine;
    ropts.fail_at_iteration = 6;
    ASSERT_TRUE(vm::run_module(run.module, ropts).failed);
  }
  // Commits: full@1 then deltas 1..4 (@2..@5). Corrupting delta 3 must cut
  // the recoverable chain at iteration 3 — later deltas depend on it.
  ckpt::CheckpointEngine restart(cfg);
  corrupt_frame(restart.log_path(ckpt::EngineLevel::L1), 3);
  EXPECT_EQ(restart.recover().iteration(), 3);
  restart.reset();
}

// ---------------------------------------------------------------------------
// The L3 archive: walk boundaries and torn tails
// ---------------------------------------------------------------------------

class EngineArchive : public test::EngineLogs {
 protected:
  /// Run an L3 engine to fail_at=6 and delete the L1 and L2 logs afterwards,
  /// so recover() can only take the archive. Returns the archive path.
  std::string archive_only_setup(const apps::AnalysisRun& run, ckpt::EngineConfig& cfg) {
    cfg.level = ckpt::EngineLevel::L3;
    cfg.partner_dir = partner_dir();
    cfg.deltas_per_full = 3;
    track(cfg);
    {
      ckpt::CheckpointEngine engine(cfg);
      engine.reset();
      engine.register_report(run.report);
      vm::RunOptions ropts;
      ropts.mcl = {run.region.function, run.region.begin_line, run.region.end_line};
      ropts.engine = &engine;
      ropts.fail_at_iteration = 6;
      EXPECT_TRUE(vm::run_module(run.module, ropts).failed);
      engine.flush();
    }
    const ckpt::CheckpointEngine engine(cfg);
    std::remove(engine.log_path(ckpt::EngineLevel::L1).c_str());
    std::remove(engine.log_path(ckpt::EngineLevel::L2).c_str());
    return engine.log_path(ckpt::EngineLevel::L3);
  }
};

/// A bare [u32 len][u32 crc][bytes] entry — the archive format before MCTA
/// frames — holding `record`.
std::string len_crc_entry(const std::string& record) {
  std::string out;
  const std::uint32_t len = static_cast<std::uint32_t>(record.size());
  const std::uint32_t crc = crc32(record.data(), record.size());
  out.append(reinterpret_cast<const char*>(&len), 4);
  out.append(reinterpret_cast<const char*>(&crc), 4);
  out.append(record);
  return out;
}

/// Frames followed by a [len][crc] entry: the walk stops at the first entry
/// that is not a frame, so recovery takes the frame prefix — exactly what a
/// torn last frame costs.
TEST_F(EngineArchive, LenCrcEntryAfterFramesEndsTheWalk) {
  const App& app = find_app("LU");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_arch_lencrc_tail");
  const std::string pack = archive_only_setup(run, cfg);

  const std::string frames = read_file_bytes(pack);
  EXPECT_EQ(ckpt::CheckpointEngine(cfg).recover().iteration(), 5);
  std::size_t last_start = 0;
  trace::MctbFrameView view;
  for (std::size_t pos = 0; trace::read_mctb_frame(frames, pos, view); pos += view.frame_size) {
    last_start = pos;
  }
  ASSERT_GT(last_start, 0u);
  const std::string prefix = frames.substr(0, last_start);
  const std::string last_frame = frames.substr(last_start);
  ASSERT_TRUE(trace::read_mctb_frame(last_frame, 0, view));

  spew(pack, prefix + last_frame.substr(0, last_frame.size() / 2));
  const std::int64_t torn_iter = ckpt::CheckpointEngine(cfg).recover().iteration();
  EXPECT_EQ(torn_iter, 4);

  spew(pack, prefix + len_crc_entry(std::string(view.payload)));
  EXPECT_EQ(ckpt::CheckpointEngine(cfg).recover().iteration(), torn_iter);
}

/// An archive of nothing but [len][crc] entries, with no file chain beside
/// it, holds nothing recoverable.
TEST_F(EngineArchive, LenCrcOnlyArchiveDoesNotRecover) {
  const App& app = find_app("LU");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_arch_lencrc_only");
  const std::string pack = archive_only_setup(run, cfg);

  const std::string frames = read_file_bytes(pack);
  std::string entries;
  trace::MctbFrameView view;
  for (std::size_t pos = 0; trace::read_mctb_frame(frames, pos, view); pos += view.frame_size) {
    entries += len_crc_entry(std::string(view.payload));
  }
  ASSERT_FALSE(entries.empty());
  spew(pack, entries);
  EXPECT_THROW(ckpt::CheckpointEngine(cfg).recover(), CheckpointError);
}

/// Frames of kind 0x10, the earlier record layout's tag, are never decoded as
/// records, even sealed with a valid CRC: recovery finds nothing, and a
/// restarted engine cuts them off before its first append.
TEST_F(EngineArchive, FramesOfTheOldKindAreNotRecords) {
  const App& app = find_app("LU");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_arch_old_kind");
  const std::string pack = archive_only_setup(run, cfg);

  const std::string frames = read_file_bytes(pack);
  std::string retagged;
  trace::MctbFrameView view;
  for (std::size_t pos = 0; trace::read_mctb_frame(frames, pos, view); pos += view.frame_size) {
    retagged += trace::mctb_frame(0x10, view.seq, view.aux, view.payload, view.codec);
  }
  ASSERT_EQ(retagged.size(), frames.size());
  spew(pack, retagged);
  EXPECT_THROW(ckpt::CheckpointEngine(cfg).recover(), CheckpointError);

  apps::run_with_engine(run.module, run.region, run.report.critical_names(), cfg,
                        /*fail_at=*/6);
  const ckpt::CheckpointEngine restart(cfg);
  std::remove(restart.log_path(ckpt::EngineLevel::L1).c_str());
  std::remove(restart.log_path(ckpt::EngineLevel::L2).c_str());
  EXPECT_EQ(restart.recover().iteration(), 5);
  // Left in place, the five old frames would precede the five new ones.
  const std::string after = read_file_bytes(pack);
  std::size_t end = 0, records = 0;
  for (; trace::read_mctb_frame(after, end, view); end += view.frame_size) ++records;
  EXPECT_EQ(end, after.size());
  EXPECT_EQ(records, 5u);
}

/// A frame torn mid-append (short write, kill) must cost only the tail
/// record: the walk stops cleanly at the torn frame.
TEST_F(EngineArchive, TornFrameTailRollsBackOneRecord) {
  const App& app = find_app("BT");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_arch_torn");
  const std::string pack = archive_only_setup(run, cfg);

  const std::string v2 = read_file_bytes(pack);
  std::vector<std::size_t> frame_ends;
  trace::MctbFrameView view;
  for (std::size_t pos = 0; trace::read_mctb_frame(v2, pos, view); pos += view.frame_size) {
    frame_ends.push_back(pos + view.frame_size);
  }
  ASSERT_GE(frame_ends.size(), 2u);
  EXPECT_EQ(frame_ends.back(), v2.size());

  // Tear the last frame in half. Records commit once per iteration from
  // iteration 1, so losing the last one recovers exactly one iteration less.
  const std::size_t keep =
      frame_ends[frame_ends.size() - 2] + (v2.size() - frame_ends[frame_ends.size() - 2]) / 2;
  spew(pack, v2.substr(0, keep));
  EXPECT_EQ(ckpt::CheckpointEngine(cfg).recover().iteration(), 4);
}

/// The archive's last full record does not decode: recovery starts from the
/// full record before it and runs that chain to its end.
TEST_F(EngineArchive, CorruptLastFullRecordFallsBackToThePreviousOne) {
  const App& app = find_app("BT");
  const apps::AnalysisRun run = analyze_app(app);
  ckpt::EngineConfig cfg = engine_cfg("eng_arch_last_full");
  const std::string pack = archive_only_setup(run, cfg);
  // deltas_per_full=3: full records at iterations 1 and 5, frames 0 and 4.
  corrupt_frame(pack, 4);
  EXPECT_EQ(ckpt::CheckpointEngine(cfg).recover().iteration(), 4);
}

/// A short write tears an archive append and the run dies. A restarted
/// engine on the same directories, without reset(), appends where every walk
/// reaches: its first append cuts the torn tail off.
TEST_F(EngineArchive, RecordsAppendedAfterATornTailAreReachable) {
  const App& app = find_app("MG");
  const apps::AnalysisRun run = analyze_app(app);
  const auto protect = run.report.critical_names();
  // Every log write passes the append site, three per commit at L3: skip=2
  // tears the first commit's archive append, skip=8 the third commit's.
  for (const int skip : {2, 8}) {
    ckpt::EngineConfig cfg = engine_cfg(strf("eng_arch_torn_restart_%d", skip));
    cfg.partner_dir = partner_dir();
    cfg.level = ckpt::EngineLevel::L3;
      cfg.deltas_per_full = 3;
    track(cfg);
    ckpt::CheckpointEngine restart(cfg);  // names the logs, recovers at the end
    restart.reset();
    fault::arm_from_spec(strf("ckpt.archive.append=short:skip=%d", skip));
    EXPECT_THROW(apps::run_with_engine(run.module, run.region, protect, cfg), CheckpointError);
    fault::disarm_all();
    const std::string pack = restart.log_path(ckpt::EngineLevel::L3);
    {
      const std::string torn = read_file_bytes(pack);
      std::size_t end = 0, frames = 0;
      trace::MctbFrameView view;
      for (; trace::read_mctb_frame(torn, end, view); end += view.frame_size) ++frames;
      EXPECT_EQ(frames, static_cast<std::size_t>(skip / 3)) << "skip=" << skip;
      EXPECT_LT(end, torn.size()) << "skip=" << skip;
    }

    apps::run_with_engine(run.module, run.region, protect, cfg, /*fail_at=*/6);
    std::remove(restart.log_path(ckpt::EngineLevel::L1).c_str());
    std::remove(restart.log_path(ckpt::EngineLevel::L2).c_str());
    EXPECT_EQ(restart.recover().iteration(), 5) << "skip=" << skip;
  }
}

}  // namespace
}  // namespace ac
