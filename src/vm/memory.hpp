// Arena memory for the tracing VM.
//
// A single flat address space starting at kBaseAddr: globals are carved out
// first, then an upward-growing bump region serves as the call stack. Frames
// release back to their entry mark on return, so local addresses are reused
// across calls exactly like a real stack — which is what makes the paper's
// Challenge 2 (locals shadowing MLI variables) a real scenario for the
// analysis to solve.
//
// Every 8-byte cell carries a ValueKind tag so loads reproduce the value kind
// that was stored (Int / Float / Addr). Address-kind values are what the
// analysis recognizes as pointer assignments.
//
// Each cell additionally carries a write-epoch stamp: every mutation records
// the arena's current epoch, and the checkpoint engine advances the epoch
// after committing a snapshot — cells stamped later than the last committed
// epoch are exactly the ones an incremental checkpoint must persist.
#pragma once

#include <cstdint>
#include <vector>

#include "trace/value.hpp"

namespace ac::vm {

using trace::Value;
using trace::ValueKind;

constexpr std::uint64_t kBaseAddr = 0x100000;
constexpr std::uint64_t kCellBytes = 8;

class Arena {
 public:
  Arena() = default;

  /// Permanent allocation (module globals); zero-initialized Int cells.
  std::uint64_t alloc_global(std::uint64_t bytes);

  /// Stack allocation for a frame-local variable.
  std::uint64_t alloc_stack(std::uint64_t bytes);

  /// Current stack cursor; pass to release_stack() on function return.
  std::uint64_t stack_mark() const { return top_; }
  void release_stack(std::uint64_t mark);

  Value read(std::uint64_t addr) const;
  void write(std::uint64_t addr, const Value& v);

  /// Raw snapshot/restore of one cell (checkpoint substrate). The kind tag
  /// travels with the payload so restored doubles stay doubles.
  struct RawCell {
    std::uint64_t payload = 0;
    ValueKind kind = ValueKind::Int;
  };
  RawCell read_raw(std::uint64_t addr) const;
  void write_raw(std::uint64_t addr, const RawCell& cell);

  /// Dirty-cell tracking for incremental checkpoints. Every write (including
  /// allocation-time zeroing) stamps its cell with the current epoch; the
  /// engine calls advance_epoch() after committing a snapshot. A cell is
  /// dirty relative to an epoch `e` iff its stamp is >= e.
  std::uint64_t advance_epoch() { return ++epoch_; }
  std::uint64_t cell_epoch(std::uint64_t addr) const;
  bool dirty_since(std::uint64_t addr, std::uint64_t epoch) const {
    return cell_epoch(addr) >= epoch;
  }

  /// Total bytes currently allocated (globals + live stack) — the BLCR-style
  /// process-image size.
  std::uint64_t bytes_in_use() const { return top_ - kBaseAddr; }
  /// High-water mark across the whole run.
  std::uint64_t peak_bytes() const { return peak_ - kBaseAddr; }

  bool valid(std::uint64_t addr) const {
    return addr >= kBaseAddr && addr < top_ && (addr - kBaseAddr) % kCellBytes == 0;
  }

 private:
  // One slot per 8-byte cell.
  std::vector<std::uint64_t> payload_;
  std::vector<ValueKind> kind_;
  std::vector<std::uint64_t> stamp_;  // write epoch of the last mutation
  std::uint64_t epoch_ = 1;
  std::uint64_t top_ = kBaseAddr;
  std::uint64_t peak_ = kBaseAddr;
  bool globals_sealed_ = false;

  std::size_t cell_index(std::uint64_t addr) const;
  std::uint64_t bump(std::uint64_t bytes);
};

}  // namespace ac::vm
