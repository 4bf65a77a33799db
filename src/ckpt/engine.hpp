// CheckpointEngine: the report-driven incremental, multi-level, asynchronous
// checkpoint/restart runtime — the downstream consumer of an AutoCheck
// analysis (the paper's stated use-case of emitting FTI-style Protect()
// calls, turned into an actual C/R engine), and the one checkpoint store:
// the paper's §VI-B validation and Table IV storage figures run on it at L1
// with the raw codec and a full image per commit. What it provides:
//
//   * report-driven protection — the set of variables to persist comes
//     straight from an analysis::Report (in-memory or its to_json() output);
//     the VM binds each name to its arena address range at the loop boundary,
//     so only critical bytes are ever captured;
//   * incremental checkpoints — the arena stamps every cell write with an
//     epoch; after a committed snapshot the engine advances the epoch and the
//     next delta persists only cells dirtied since (a full record follows
//     every `deltas_per_full` deltas to bound the recovery chain);
//   * multi-level storage, mirroring FTI's hierarchy, where every level is
//     one append-only log of MCTA frames (trace/mctb.hpp — self-delimiting,
//     one CRC32 over each frame's header and payload, one frame per record;
//     log_path() names each):
//       L1  the local log in `dir`,
//       L2  plus its replica in `partner_dir`, the per-record fallback when
//           a local record is torn, corrupt or missing,
//       L3  plus the archive, which keeps every record ever committed and
//           wins when it recovers a later iteration;
//     a full record starts a fresh L1/L2 log with one atomic replace, and a
//     delta, like every archive record, is one append plus one fdatasync.
//     One walk turns logs into their longest valid chain; it stops at the
//     first entry that is not a whole frame, so a torn tail costs only the
//     records from it on, and the engine's first append to a log cuts such
//     a tail off so the records it appends stay reachable;
//   * asynchronous writeback — capture happens on the VM thread into an
//     in-memory record, persistence on a background writer thread with a
//     double-buffered queue (the VM only stalls when both slots are full);
//     a failed write fails its commit, and nothing is written after it;
//   * pluggable payload codecs (codec.hpp) — each storage level encodes its
//     records through its own codec chain (XOR-vs-base, RLE, LZ, stacked),
//     with the stage ids in the frame header so every store self-describes;
//   * policy-driven cadence — a ckpt::IntervalPolicy (fixed or Young/Daly)
//     decides at each iteration boundary whether to commit.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "ckpt/codec.hpp"
#include "ckpt/image.hpp"
#include "ckpt/policy.hpp"
#include "support/timer.hpp"

namespace ac::analysis {
struct Report;
}
namespace ac::trace {
struct MctbFrameView;
}
namespace ac::vm {
class Arena;
}

namespace ac::ckpt {

/// A critical variable bound to its arena address range — the engine-side
/// equivalent of an FTI_Protect(id, ptr, count) registration.
struct ProtectedRegion {
  std::string name;
  std::uint64_t addr = 0;
  std::uint64_t bytes = 0;
};

/// A contiguous run of dirty cells inside a variable, starting at 8-byte
/// element `index`. Run-length encoding matters: loop nests dirty contiguous
/// array stretches, so a run header amortizes to ~nothing while a per-cell
/// index would cost 4 bytes per 9-byte cell.
struct DeltaRun {
  std::uint32_t index = 0;
  std::vector<Cell> cells;
};

struct DeltaVar {
  std::string name;
  std::vector<DeltaRun> runs;
};

struct DeltaPatch {
  std::vector<DeltaVar> vars;
  std::uint64_t cell_count() const;
};

/// Payload accounting for one serialized record: cell bytes before and after
/// the codec chain (the compression-ratio figure bench_engine reports).
struct EncodedSizes {
  std::uint64_t raw = 0;
  std::uint64_t encoded = 0;
};

/// One durable engine record: seq 0 is a full record, the base of a chain
/// identified by base_id, whose runs tile every variable from index 0; seq
/// 1.. are that base's deltas, the cells written since the record before.
///
/// A record is stored as one MCTA frame (trace/mctb.hpp), its only envelope:
/// the frame header carries seq, the iteration (as `aux`) and the codec
/// chain's stage ids, so every record self-describes and mixed-codec stores
/// all restore; the payload is base_id, then per variable its name, its runs
/// and their cells, plane-shuffled and chain-encoded. One frame CRC covers
/// header and payload.
struct EngineRecord {
  std::uint64_t base_id = 0;
  std::uint32_t seq = 0;
  std::int64_t iteration = -1;
  DeltaPatch cells;
  /// Capture-time snapshot of the full image this delta XORs against. Set by
  /// the engine so the background writer can encode without racing the next
  /// capture; never serialized.
  std::shared_ptr<const CheckpointImage> xor_base;

  bool full() const { return seq == 0; }
  /// A full record's image: each variable's runs laid end to end.
  CheckpointImage image() const;

  /// The record's frame, its cells encoded with `chain`; `base` supplies a
  /// delta's XOR reference cells (a full record XORs against nothing).
  std::string to_frame(const CodecChain& chain, const CheckpointImage* base,
                       EncodedSizes* sizes = nullptr) const;

  /// Decode a frame that trace::read_mctb_frame verified. `base` is required
  /// to decode a delta whose chain has an XOR stage (recovery passes its full
  /// record's image). Throws CheckpointError on a frame of another kind, a
  /// malformed payload, or a full record whose runs leave a gap.
  static EngineRecord from_frame(const trace::MctbFrameView& frame,
                                 const CheckpointImage* base);
};

/// FTI-style reliability level of the engine's storage stack; each level
/// includes the ones below it.
enum class EngineLevel { L1 = 1, L2 = 2, L3 = 3 };

struct EngineConfig {
  std::string dir;          // L1: local checkpoint directory (required)
  std::string partner_dir;  // L2: replica directory (required for L2/L3)
  std::string tag = "engine";
  EngineLevel level = EngineLevel::L1;

  /// Delta records between two full records, which bounds the recovery
  /// chain: a full record every deltas_per_full + 1 commits; 0 makes every
  /// commit full.
  int deltas_per_full = 8;

  /// Persist on a background writer thread (double-buffered); false = inline.
  bool async = true;

  /// Per-level payload codecs (codec.hpp). Defaults are raw; typical tuning
  /// keeps L1 raw or RLE for commit speed and gives the L3 archive the full
  /// XOR+RLE+LZ chain. Records are self-describing, so levels can
  /// disagree freely.
  CodecChain l1_codec;
  CodecChain l2_codec;
  CodecChain l3_codec;

  /// Convenience: the codec for one storage level.
  const CodecChain& codec(EngineLevel lv) const {
    return lv == EngineLevel::L1 ? l1_codec : lv == EngineLevel::L2 ? l2_codec : l3_codec;
  }
  /// Convenience: use `chain` at every level.
  void set_codecs(const CodecChain& chain) { l1_codec = l2_codec = l3_codec = chain; }

  /// Checkpoint cadence; defaults to FixedIntervalPolicy(1).
  std::shared_ptr<IntervalPolicy> policy;
};

struct EngineStats {
  std::int64_t checkpoints = 0;        // records captured (full + delta)
  std::int64_t full_checkpoints = 0;
  std::int64_t delta_checkpoints = 0;
  std::uint64_t cells_captured = 0;    // cells across all records
  std::uint64_t l1_bytes = 0;          // log bytes written per level, whole frames
  std::uint64_t l1_delta_bytes = 0;    // the delta-record share of l1_bytes
  std::uint64_t l2_bytes = 0;
  std::uint64_t l3_bytes = 0;
  std::uint64_t full_equiv_bytes = 0;  // L1 bytes had every commit been a full raw record
  std::uint64_t payload_raw_bytes = 0;      // L1 cell payload before the codec chain
  std::uint64_t payload_encoded_bytes = 0;  // L1 cell payload after the codec chain
  std::int64_t async_stalls = 0;       // VM blocked on a full writeback queue
  std::int64_t last_persisted_iteration = -1;
};

class CheckpointEngine {
 public:
  explicit CheckpointEngine(EngineConfig cfg);
  ~CheckpointEngine();
  CheckpointEngine(const CheckpointEngine&) = delete;
  CheckpointEngine& operator=(const CheckpointEngine&) = delete;

  // --- registration (before the run) -------------------------------------
  /// Protect one variable by name; the VM resolves it to an arena range.
  void protect(const std::string& name);
  /// Protect every critical variable of an analysis report.
  void register_report(const analysis::Report& report);
  /// Same, from the report's to_json() output (the file-based workflow).
  void register_report_json(const std::string& json);
  /// Extract the critical-variable names from Report::to_json() output.
  static std::vector<std::string> names_from_json(const std::string& json);

  const std::vector<std::string>& protected_names() const { return names_; }

  // --- runtime (called by the VM at each completed iteration) ------------
  /// Observes the iteration, and when the policy says so captures a full or
  /// incremental snapshot of `regions` from `arena` and commits it (async or
  /// inline). Returns true when a snapshot was captured. Advances the
  /// arena's write epoch on capture.
  bool on_iteration(std::int64_t completed_iter, vm::Arena& arena,
                    const std::vector<ProtectedRegion>& regions);

  /// Drain the writeback queue; rethrows the first failed commit's error.
  /// After a failed commit nothing more is written, and every later commit
  /// and flush rethrows it.
  void flush();

  // --- restart ------------------------------------------------------------
  bool has_checkpoint() const;
  /// Reassemble the latest recoverable state: a full record plus the valid
  /// deltas after it. The local log and its L2 replica are walked together,
  /// record by record: each record comes from the local copy when that copy
  /// passes its CRC and decodes as the chain's next record (same base_id,
  /// next seq), else from the partner's copy. At L3 the archive competes:
  /// its frame headers are walked first, its payloads are decoded — from its
  /// last full record that decodes — only when those headers promise a later
  /// iteration, and it wins when it recovers one. A torn or non-frame entry
  /// ends a log's walk and costs only the records from it on. Returns a plain
  /// CheckpointImage for vm::RunOptions::restore; throws CheckpointError when
  /// no log holds a decodable full record.
  CheckpointImage recover() const;

  /// Remove this tag's logs at every level (fresh experiment).
  void reset();

  /// The log a level writes: `<dir>/<tag>.eng` (L1), the same name in
  /// partner_dir (L2, empty when no partner_dir is set), `<dir>/<tag>.pack`
  /// (the L3 archive).
  std::string log_path(EngineLevel level) const;

  EngineStats stats() const;
  IntervalPolicy& policy() const { return *cfg_.policy; }
  const EngineConfig& config() const { return cfg_; }

 private:
  EngineConfig cfg_;
  std::vector<std::string> names_;

  // Capture-side state (VM thread only).
  bool have_base_ = false;
  std::uint64_t base_id_ = 0;
  std::uint32_t next_seq_ = 1;
  std::int64_t last_commit_iter_ = 0;
  std::uint64_t delta_epoch_ = 0;  // cells stamped >= this are dirty
  int commits_since_full_ = 0;
  /// Pristine copy of the last full image — the XOR reference for deltas.
  std::shared_ptr<const CheckpointImage> base_image_;
  WallTimer iter_timer_;
  bool iter_timer_live_ = false;

  // Writeback machinery.
  mutable std::mutex mu_;
  mutable std::condition_variable cv_;
  std::deque<EngineRecord> queue_;
  bool writing_ = false;
  bool stop_ = false;
  std::exception_ptr writer_error_;
  EngineStats stats_;
  /// Per level: this engine rotated the log or cut its torn tail, so an
  /// append lands right after the last whole frame. Touched by the persisting
  /// thread, and by reset() once the writer is idle.
  bool log_trimmed_[3] = {false, false, false};
  std::thread writer_;

  EngineRecord capture(std::int64_t iter, vm::Arena& arena,
                       const std::vector<ProtectedRegion>& regions);
  void commit(EngineRecord rec);
  void persist(const EngineRecord& rec);
  /// Write one record's frame to a level's log: `rotate` replaces the log
  /// with a fresh one holding only `frame`, otherwise it is appended.
  void write_log(EngineLevel level, const std::string& frame, bool rotate);
  void writer_loop();
  void drain() const;
  void check_writer_error() const;
};

/// Append one frame to the log at `path`, creating it if needed: one write
/// and one fdatasync. Every log write of the engine goes through here, a
/// rotation's temp file included. Throws CheckpointError on a failed open,
/// a short write or a failed sync.
void append_frame(const std::string& path, std::string_view frame);

/// Apply a delta patch to a base image in place; throws CheckpointError on a
/// variable or cell-index mismatch.
void apply_delta(CheckpointImage& base, const DeltaPatch& patch, std::int64_t iteration);

}  // namespace ac::ckpt
