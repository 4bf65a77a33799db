// C/R substrate: checkpoint images, the engine's store protocol at L1 and L2
// driven by hand (including failed syncs), the BLCR-style cost model.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>

#include "apps/harness.hpp"
#include "ckpt/blcr.hpp"
#include "ckpt/engine.hpp"
#include "ckpt/image.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/file.hpp"
#include "trace/mctb.hpp"
#include "vm/memory.hpp"

namespace ac::ckpt {
namespace {

CheckpointImage sample_image() {
  CheckpointImage img;
  img.set_iteration(7);
  img.add("x", {{42, 0}, {43, 0}});
  img.add("rho", {{0x3FF0000000000000ull, 1}});  // 1.0 as a Float cell
  return img;
}

TEST(Image, FindsVariablesByName) {
  const CheckpointImage img = sample_image();
  EXPECT_EQ(img.iteration(), 7);
  ASSERT_NE(img.find("rho"), nullptr);
  EXPECT_EQ(img.find("rho")->cells[0].kind, 1);
  EXPECT_EQ(img.find("nope"), nullptr);
}

TEST(Image, ByteSizeCountsCellsAndNames) {
  const CheckpointImage img = sample_image();
  // "x": 1 + 8 + 2*9; "rho": 3 + 8 + 1*9.
  EXPECT_EQ(img.byte_size(), (1u + 8 + 18) + (3u + 8 + 9));
}

// ---------------------------------------------------------------------------
// The engine's store protocol (FTI L1/L2), driven by hand: one protected
// three-cell global `u` in an arena, committed at chosen iterations — exactly
// what the VM hands the engine at an iteration boundary.
// ---------------------------------------------------------------------------

class EngineStore : public testing::Test {
 protected:
  vm::Arena arena_;
  std::vector<ProtectedRegion> regions_;

  void SetUp() override {
    const std::uint64_t addr = arena_.alloc_global(3 * vm::kCellBytes);
    regions_ = {{"u", addr, 3 * vm::kCellBytes}};
  }

  /// The validation store; L2 replicates into a second directory.
  static EngineConfig config(const std::string& tag, EngineLevel level = EngineLevel::L1) {
    EngineConfig cfg = apps::validation_config(testing::TempDir(), tag);
    cfg.level = level;
    if (level >= EngineLevel::L2) cfg.partner_dir = testing::TempDir() + "/ac_ckpt_partner";
    return cfg;
  }

  void TearDown() override { fault::disarm_all(); }

  /// Set u = {v, v+1, v+2}; returns the image a commit of iteration `iter`
  /// must recover to.
  CheckpointImage set_u(std::int64_t iter, std::int64_t v) {
    std::vector<Cell> cells;
    for (std::int64_t i = 0; i < 3; ++i) {
      arena_.write(regions_[0].addr + static_cast<std::uint64_t>(i) * vm::kCellBytes,
                   vm::Value::make_int(v + i));
      cells.push_back(Cell{static_cast<std::uint64_t>(v + i), 0});
    }
    CheckpointImage img;
    img.set_iteration(iter);
    img.add("u", std::move(cells));
    return img;
  }

  /// set_u, then complete iteration `iter`.
  CheckpointImage commit(CheckpointEngine& engine, std::int64_t iter, std::int64_t v) {
    CheckpointImage img = set_u(iter, v);
    EXPECT_TRUE(engine.on_iteration(iter, arena_, regions_));
    return img;
  }
};

TEST_F(EngineStore, ProtocolRoundTrip) {
  CheckpointEngine engine(config("ac_store_proto"));
  engine.reset();
  EXPECT_FALSE(engine.has_checkpoint());
  EXPECT_THROW(engine.recover(), CheckpointError);

  const CheckpointImage first = commit(engine, 1, 40);
  EXPECT_TRUE(engine.has_checkpoint());
  EXPECT_GT(engine.stats().l1_bytes, 0u);
  EXPECT_EQ(engine.recover(), first);

  // Later checkpoints replace earlier ones (latest-wins, like FTI L1).
  const CheckpointImage second = commit(engine, 2, 90);
  EXPECT_EQ(engine.recover(), second);

  engine.reset();
  EXPECT_FALSE(engine.has_checkpoint());
}

TEST_F(EngineStore, L2ReplicatesToPartner) {
  CheckpointEngine engine(config("ac_store_l2_repl", EngineLevel::L2));
  engine.reset();
  const CheckpointImage img = commit(engine, 3, 1);
  EXPECT_GT(engine.stats().l1_bytes, 0u);
  EXPECT_EQ(engine.stats().l2_bytes, engine.stats().l1_bytes);
  EXPECT_EQ(engine.recover(), img);
  engine.reset();
}

TEST_F(EngineStore, L2RecoversFromPartnerWhenLocalLost) {
  const EngineConfig cfg = config("ac_store_l2_lost", EngineLevel::L2);
  CheckpointEngine engine(cfg);
  engine.reset();
  const CheckpointImage img = commit(engine, 3, 1);
  std::remove(engine.log_path(EngineLevel::L1).c_str());  // the "node-local storage" is gone
  EXPECT_TRUE(engine.has_checkpoint());
  EXPECT_EQ(engine.recover(), img);
  engine.reset();
}

TEST_F(EngineStore, L1HasNoFallback) {
  const EngineConfig cfg = config("ac_store_l1_nofallback");
  CheckpointEngine engine(cfg);
  engine.reset();
  commit(engine, 3, 1);
  std::remove(engine.log_path(EngineLevel::L1).c_str());
  EXPECT_FALSE(engine.has_checkpoint());
  EXPECT_THROW(engine.recover(), CheckpointError);
}

TEST_F(EngineStore, KillBetweenL1AndL2RotationDoesNotMixRuns) {
  // Run one leaves a chain in both logs whose deltas each touch one cell.
  EngineConfig cfg = config("ac_store_two_runs", EngineLevel::L2);
  cfg.deltas_per_full = 1 << 20;
  {
    CheckpointEngine first(cfg);
    first.reset();
    commit(first, 1, 10);
    for (std::int64_t iter : {2, 3}) {
      arena_.write(regions_[0].addr + static_cast<std::uint64_t>(iter - 2) * vm::kCellBytes,
                   vm::Value::make_int(iter * 100));
      EXPECT_TRUE(first.on_iteration(iter, arena_, regions_));
    }
    first.flush();
  }
  // A second run on the same logs, without reset(), dies between its first
  // L1 rotation and the L2 one. Its full record must not adopt the first
  // run's partner deltas: recovery is that record alone.
  CheckpointEngine second(cfg);
  const CheckpointImage want = set_u(5, 50);
  fault::arm_from_spec("ckpt.writeback.l2=throw");
  EXPECT_THROW(second.on_iteration(5, arena_, regions_), CheckpointError);
  fault::disarm_all();
  EXPECT_EQ(CheckpointEngine(cfg).recover(), want);
}

TEST_F(EngineStore, FailedSyncFailsTheCommitAndEveryLaterOne) {
  for (const bool async : {false, true}) {
    EngineConfig cfg = config(async ? "ac_store_sync_async" : "ac_store_sync_inline");
    cfg.async = async;
    auto engine_ptr = std::make_unique<CheckpointEngine>(cfg);
    CheckpointEngine& engine = *engine_ptr;
    engine.reset();
    const CheckpointImage first = commit(engine, 1, 10);
    engine.flush();

    // The next write's fdatasync fails once. Inline, that commit throws.
    // With async writeback the captures succeed, the encode delay lets
    // iteration 3 queue behind the failing record, and flush() reports the
    // failure: the queued record must be dropped, not written.
    fault::arm_from_spec("ckpt.writeback.sync=throw:count=1");
    if (async) {
      fault::arm_from_spec("ckpt.writeback.encode=delay:ms=200,count=1");
      EXPECT_TRUE(engine.on_iteration(2, arena_, regions_));
      EXPECT_TRUE(engine.on_iteration(3, arena_, regions_));
      EXPECT_THROW(engine.flush(), CheckpointError);
    } else {
      EXPECT_THROW(engine.on_iteration(2, arena_, regions_), CheckpointError);
      EXPECT_THROW(engine.on_iteration(3, arena_, regions_), CheckpointError);
    }
    EXPECT_EQ(fault::trigger_count("ckpt.writeback.sync"), 1u);
    fault::disarm_all();

    // The fault is spent, yet no later commit may report success.
    EXPECT_THROW(engine.on_iteration(4, arena_, regions_), CheckpointError) << "async=" << async;
    EXPECT_THROW(engine.flush(), CheckpointError);
    EXPECT_EQ(engine.stats().last_persisted_iteration, 1) << "async=" << async;
    // Once the writer has stopped, the logs still end at iteration 1.
    engine_ptr.reset();
    EXPECT_EQ(CheckpointEngine(cfg).recover(), first) << "async=" << async;
  }
}

TEST_F(EngineStore, DirectorySyncFailureFailsTheWrite) {
  // One throwing directory-sync helper serves the MCTB writer's rename and
  // the engine's log rotation: an injected failure surfaces from both.
  fault::arm_from_spec("fs.sync_dir=throw");
  EXPECT_THROW(trace::write_mctb_file(trace::TraceBuffer{}, testing::TempDir() + "/ac_sync_dir.mctb"),
               Error);
  CheckpointEngine engine(config("ac_store_sync_dir"));
  engine.reset();
  EXPECT_THROW(engine.on_iteration(1, arena_, regions_), Error);
  EXPECT_EQ(fault::trigger_count("fs.sync_dir"), 2u);
}

// ---------------------------------------------------------------------------
// BLCR-style cost model
// ---------------------------------------------------------------------------

TEST(Blcr, FootprintAccountsForWholeMachine) {
  MachineState st;
  st.arena_bytes = 8000;
  st.num_frames = 3;
  st.total_regs = 100;
  st.total_slots = 40;
  const BlcrFootprint fp = BlcrSim::footprint(st);
  EXPECT_EQ(fp.memory_bytes, 8000u + 1000u);
  EXPECT_EQ(fp.machine_bytes, 100u * 9 + 40u * 8 + 3u * 24);
  EXPECT_EQ(fp.process_bytes, kProcessImageBase);
  EXPECT_EQ(fp.total(), fp.memory_bytes + fp.machine_bytes + kProcessImageBase);
}

TEST(Blcr, WritesImageOfExactSize) {
  MachineState st;
  st.arena_bytes = 4096;
  st.num_frames = 1;
  st.total_regs = 10;
  st.total_slots = 5;
  const std::string path = testing::TempDir() + "/ac_blcr.img";
  const std::uint64_t written = BlcrSim::write_image(st, path);
  EXPECT_EQ(written, BlcrSim::footprint(st).total());
  EXPECT_EQ(read_file_bytes(path).size(), written);
}

TEST(Blcr, DwarfsSelectiveCheckpoint) {
  // The structural claim behind Table IV: a full image is much larger than a
  // few protected variables.
  MachineState st;
  st.arena_bytes = 1 << 20;
  const CheckpointImage img = sample_image();
  EXPECT_GT(BlcrSim::footprint(st).total(), 1000 * img.byte_size());
}

}  // namespace
}  // namespace ac::ckpt
