// Compact, interned, structure-of-arrays trace representation.
//
// An owning TraceRecord spends the analysis hot path in the allocator: every
// record owns two std::strings plus a std::vector<Operand> whose operands
// each own a name string (~100+ heap bytes and 3+ allocations per record).
// TraceBuffer stores the same information as three flat arrays —
//
//   records  : PackedRecord[]   32 B each, names as SymbolPool ids,
//                                operands as {offset, count} spans
//   operands : PackedOperand[]  24 B each, one shared array for all records
//   pool     : SymbolPool        every distinct name stored once
//
// — so a parsed trace is a handful of large allocations, replay is a linear
// scan, and name equality is an integer compare. The two arrays are PodArrays
// (support/pod_array.hpp): from 1 MiB they grow by moving pages, and a freed
// one is reused by the next trace rather than faulted in afresh. RecordView
// is the zero-cost cursor over one record and the only record type that
// sinks, the streaming analyzers and the text writer consume; its
// append_text() is the one LLVM-Tracer text renderer. materialize() rebuilds
// an owning TraceRecord for callers that want a value copy.
#pragma once

#include <bit>
#include <cstdint>
#include <vector>

#include "support/pod_array.hpp"
#include "trace/pool.hpp"
#include "trace/record.hpp"

namespace ac::trace {

/// One operand, 24 bytes, name interned. The dynamic value collapses to its
/// 8-byte payload with the kind held in `flags` (reconstructed exactly).
struct PackedOperand {
  std::uint64_t raw = 0;                   // i64 / f64 bits / address
  std::uint32_t name = SymbolPool::npos;   // pool id; npos = unnamed
  std::int32_t index = 0;                  // 1-based for Input slots
  std::int32_t bits = 64;                  // operand width as parsed
  std::uint8_t flags = 0;                  // slot(0..1) | vkind(2..3) | is_reg(4)

  OperandSlot slot() const { return static_cast<OperandSlot>(flags & 0x3); }
  ValueKind vkind() const { return static_cast<ValueKind>((flags >> 2) & 0x3); }
  bool is_reg() const { return (flags & 0x10) != 0; }

  Value value() const {
    switch (vkind()) {
      case ValueKind::Int: return Value::make_int(std::bit_cast<std::int64_t>(raw));
      case ValueKind::Float: return Value::make_float(std::bit_cast<double>(raw));
      case ValueKind::Addr: return Value::make_addr(raw);
    }
    return Value{};
  }
  bool is_addr() const { return vkind() == ValueKind::Addr; }
  std::uint64_t addr() const { return raw; }
  /// Exactly Value::as_i64(): Int -> i, everything else -> (int64)f — which
  /// is 0 for Addr values, whose f field is never set. (Returning the raw
  /// address here would silently diverge from the legacy path.)
  std::int64_t as_i64() const {
    switch (vkind()) {
      case ValueKind::Int: return std::bit_cast<std::int64_t>(raw);
      case ValueKind::Float: return static_cast<std::int64_t>(std::bit_cast<double>(raw));
      case ValueKind::Addr: return 0;
    }
    return 0;
  }

  /// Replace the dynamic value, keeping slot, is_reg, index and name.
  void set_value(const Value& v) {
    raw = raw_of(v);
    flags = static_cast<std::uint8_t>((flags & ~0x0cu) | (static_cast<unsigned>(v.kind) << 2));
  }

  static std::uint8_t pack_flags(OperandSlot slot, ValueKind kind, bool is_reg) {
    return static_cast<std::uint8_t>(static_cast<unsigned>(slot) |
                                     (static_cast<unsigned>(kind) << 2) |
                                     (is_reg ? 0x10u : 0u));
  }

  /// The 8-byte payload of `v` (inverse of value()).
  static std::uint64_t raw_of(const Value& v) {
    switch (v.kind) {
      case ValueKind::Int: return std::bit_cast<std::uint64_t>(v.i);
      case ValueKind::Float: return std::bit_cast<std::uint64_t>(v.f);
      case ValueKind::Addr: return v.addr;
    }
    return 0;
  }
};
static_assert(sizeof(PackedOperand) == 24, "PackedOperand layout regressed");

/// One dynamic instruction, 32 bytes, operands as a span into the shared
/// operand array.
struct PackedRecord {
  std::uint64_t dyn_id = 0;
  std::uint32_t func = SymbolPool::npos;
  std::uint32_t bb = SymbolPool::npos;
  std::uint32_t op_offset = 0;
  std::uint32_t op_count = 0;
  std::int32_t line = 0;
  Opcode opcode = Opcode::Load;
};
static_assert(sizeof(PackedRecord) == 32, "PackedRecord layout regressed");

/// First operand of `rec` in the slot class, or nullptr. `ops` is the
/// record's operand base. One implementation serves RecordView and the
/// analysis replay loops.
inline const PackedOperand* find_operand(const PackedRecord& rec, const PackedOperand* ops,
                                         OperandSlot slot) {
  for (std::uint32_t i = 0; i < rec.op_count; ++i) {
    if (ops[i].slot() == slot) return &ops[i];
  }
  return nullptr;
}

/// Numbered input operand (1-based), or nullptr.
inline const PackedOperand* find_input(const PackedRecord& rec, const PackedOperand* ops,
                                       int idx) {
  for (std::uint32_t i = 0; i < rec.op_count; ++i) {
    if (ops[i].slot() == OperandSlot::Input && ops[i].index == idx) return &ops[i];
  }
  return nullptr;
}

class TraceBuffer;

/// Zero-cost read cursor over one record of a TraceBuffer, or over any packed
/// record + operand span and the SymbolPool its ids index (the VM hands its
/// sink views over its per-site templates and its own pool).
class RecordView {
 public:
  RecordView(const SymbolPool& pool, const PackedRecord& rec, const PackedOperand* ops)
      : pool_(&pool), rec_(&rec), ops_(ops) {}

  std::int32_t line() const { return rec_->line; }
  Opcode opcode() const { return rec_->opcode; }
  std::uint64_t dyn_id() const { return rec_->dyn_id; }
  std::uint32_t func_id() const { return rec_->func; }
  std::string_view func() const { return pool_->view(rec_->func); }
  std::string_view bb() const { return pool_->view(rec_->bb); }

  const PackedOperand* operands_begin() const { return ops_; }
  const PackedOperand* operands_end() const { return ops_ + rec_->op_count; }
  std::size_t operand_count() const { return rec_->op_count; }

  /// First operand in the slot class, or nullptr.
  const PackedOperand* find(OperandSlot slot) const { return find_operand(*rec_, ops_, slot); }

  /// Numbered input operand (1-based), or nullptr.
  const PackedOperand* input(int idx) const { return find_input(*rec_, ops_, idx); }

  std::string_view name(const PackedOperand& op) const { return pool_->view(op.name); }
  const SymbolPool& pool() const { return *pool_; }
  const PackedRecord& packed() const { return *rec_; }

  /// Rebuild the owning-string TraceRecord.
  TraceRecord materialize() const;
  /// Render as an LLVM-Tracer text block (with trailing newline).
  std::string to_text() const;
  /// Same bytes appended to `out` — the allocation-free path the buffered
  /// text writer streams through (no per-record temporary string).
  void append_text(std::string& out) const;

 private:
  const SymbolPool* pool_;
  const PackedRecord* rec_;
  const PackedOperand* ops_;
};

class TraceBuffer {
 public:
  TraceBuffer() = default;

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  RecordView view(std::size_t i) const {
    const PackedRecord& rec = records_[i];
    return RecordView(pool_, rec, operands_.data() + rec.op_offset);
  }

  const SymbolPool& pool() const { return pool_; }
  SymbolPool& pool() { return pool_; }
  const PodArray<PackedRecord>& records() const { return records_; }
  PodArray<PackedRecord>& records() { return records_; }
  const PodArray<PackedOperand>& operands() const { return operands_; }
  PodArray<PackedOperand>& operands() { return operands_; }

  void reserve(std::size_t records, std::size_t operands) {
    records_.reserve(records);
    operands_.reserve(operands);
  }

  /// Drop every record and symbol but keep the arrays' capacity, for a
  /// buffer refilled chunk after chunk.
  void clear() {
    pool_ = SymbolPool();
    records_.clear();
    operands_.clear();
  }

  /// Intern + append one owning record (names in func, bb, operand-name
  /// order).
  void append(const TraceRecord& rec);

  /// Append a record viewed over another pool (the VM's trace templates, a
  /// sink's input), translating its ids through a cached source->this remap
  /// table that is rebuilt whenever either pool changes. Misses are interned
  /// in func, bb, operand-name order, so the pool and the records come out
  /// identical to append(rec.materialize()).
  void append(const RecordView& rec);

  /// Bulk-append `other`'s records: its symbols are merged into this pool in
  /// `other`'s id order (SymbolPool::merge), then its records and operands
  /// are copied with remapped ids, so appending a trace's chunks in input
  /// order builds the pool one parse of the whole trace would. The arrays
  /// grow geometrically, so k appends reallocate O(log k) times.
  void append_buffer(const TraceBuffer& other);

  /// Rebuild record `i` as an owning TraceRecord.
  TraceRecord materialize(std::size_t i) const { return view(i).materialize(); }

  /// Resident footprint of the representation (arrays + arena), for the
  /// memory-accounting columns of bench_micro.
  std::size_t byte_size() const {
    return records_.capacity() * sizeof(PackedRecord) +
           operands_.capacity() * sizeof(PackedOperand) + pool_.byte_size();
  }

 private:
  SymbolPool pool_;
  PodArray<PackedRecord> records_;
  PodArray<PackedOperand> operands_;
  // append(RecordView) cache: source id -> id in pool_ (npos = not yet
  // mapped), valid for the pool pair named by the two uids.
  std::vector<std::uint32_t> view_remap_;
  std::uint64_t view_remap_src_ = 0;
  std::uint64_t view_remap_dst_ = 0;
};

}  // namespace ac::trace
