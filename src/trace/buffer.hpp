// Compact, interned, site-indexed trace representation.
//
// Everything in a record but its values is fixed by the static instruction
// that emitted it: func, bb, line and opcode, and each operand's name, index,
// bits, slot, value kind and register flag. The 14 mini-apps' default-knob
// traces hold 1.5 M records from only ~4 K such sites. So TraceBuffer keeps
// the static part once per site and, per record, only what varies:
//
//   pool     : SymbolPool         every distinct name stored once
//   sites    : Site[]             a record header with names as pool ids, and
//              OperandTemplate[]  its operand templates (16 B each)
//   records  : RecordEntry[]      8 B each: a u32 site id and the u32 offset
//                                 of the record's first value
//   values   : u64[]              one 8-byte payload per operand, its kind
//                                 held by the operand's template
//   dyn_ids  : DynBreak[]         a record's dyn_id only where it is not its
//                                 predecessor's + 1 (the first record's: not 0)
//
// A writer interns each site by content, in first-appearance order, so a
// buffer depends only on its records, never on who wrote it: the VM, the text
// parse, an MCTB decode or an append. The two big columns are PodArrays
// (support/pod_array.hpp): from 1 MiB they grow by moving pages, and a freed
// one is reused by the next trace rather than faulted in afresh. RecordView is
// the zero-cost cursor over one record and the only record type that sinks,
// the streaming analyzers and the text writer consume; its append_text() is
// the one LLVM-Tracer text renderer. materialize() rebuilds an owning
// TraceRecord for callers that want a value copy.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "support/pod_array.hpp"
#include "trace/pool.hpp"
#include "trace/record.hpp"

namespace ac::trace {

/// The 8-byte payload of `v`: i64, f64 bits or the address.
inline std::uint64_t raw_of(const Value& v) {
  switch (v.kind) {
    case ValueKind::Int: return std::bit_cast<std::uint64_t>(v.i);
    case ValueKind::Float: return std::bit_cast<std::uint64_t>(v.f);
    case ValueKind::Addr: return v.addr;
  }
  return 0;
}

/// Inverse of raw_of.
inline Value value_of(ValueKind kind, std::uint64_t raw) {
  switch (kind) {
    case ValueKind::Int: return Value::make_int(std::bit_cast<std::int64_t>(raw));
    case ValueKind::Float: return Value::make_float(std::bit_cast<double>(raw));
    case ValueKind::Addr: return Value::make_addr(raw);
  }
  return Value{};
}

/// The static part of one operand: everything but its value.
struct OperandTemplate {
  std::uint32_t name = SymbolPool::npos;  // pool id; npos = unnamed
  std::int32_t index = 0;                 // 1-based for Input slots
  std::int32_t bits = 64;                 // operand width as parsed
  std::uint8_t flags = 0;                 // slot(0..1) | vkind(2..3) | is_reg(4)

  OperandSlot slot() const { return static_cast<OperandSlot>(flags & 0x3); }
  ValueKind vkind() const { return static_cast<ValueKind>((flags >> 2) & 0x3); }
  bool is_reg() const { return (flags & 0x10) != 0; }

  static std::uint8_t pack_flags(OperandSlot slot, ValueKind kind, bool is_reg) {
    return static_cast<std::uint8_t>(static_cast<unsigned>(slot) |
                                     (static_cast<unsigned>(kind) << 2) |
                                     (is_reg ? 0x10u : 0u));
  }
  bool operator==(const OperandTemplate& o) const {
    return name == o.name && index == o.index && bits == o.bits && flags == o.flags;
  }
};
static_assert(sizeof(OperandTemplate) == 16, "OperandTemplate layout regressed");

/// The static part of one record: its header, and its operand templates as a
/// span of the buffer's template column.
struct Site {
  std::uint32_t func = SymbolPool::npos;
  std::uint32_t bb = SymbolPool::npos;
  std::int32_t line = 0;
  Opcode opcode = Opcode::Load;
  std::uint32_t op_offset = 0;
  std::uint32_t op_count = 0;

  /// Same header (op_offset aside).
  bool same_header(const Site& o) const {
    return func == o.func && bb == o.bb && line == o.line && opcode == o.opcode &&
           op_count == o.op_count;
  }
};
static_assert(sizeof(Site) == 24, "Site layout regressed");

/// One dynamic instruction: its site and the offset of its first value.
struct RecordEntry {
  std::uint32_t site = 0;
  std::uint32_t value_offset = 0;
};
static_assert(sizeof(RecordEntry) == 8, "RecordEntry layout regressed");

/// A record whose dyn_id breaks the +1 run.
struct DynBreak {
  std::uint64_t record = 0;
  std::uint64_t dyn_id = 0;
};

/// Index of the first operand of the `count` templates at `ops` in the slot
/// class, or -1. One implementation serves RecordView and the analysis replay
/// loops.
inline int find_slot(const OperandTemplate* ops, std::uint32_t count, OperandSlot slot) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (ops[i].slot() == slot) return static_cast<int>(i);
  }
  return -1;
}

/// Index of the numbered input operand (1-based), or -1.
inline int find_input(const OperandTemplate* ops, std::uint32_t count, int idx) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (ops[i].slot() == OperandSlot::Input && ops[i].index == idx) return static_cast<int>(i);
  }
  return -1;
}

/// One operand of a record: its template and its value. A default-constructed
/// OperandRef is "no operand" and tests false, so find() results read like
/// pointers: `if (auto op = rec.find(slot)) use(op->addr());`.
class OperandRef {
 public:
  OperandRef() = default;
  OperandRef(const OperandTemplate& t, std::uint64_t raw) : t_(&t), raw_(raw) {}

  explicit operator bool() const { return t_ != nullptr; }
  friend bool operator==(const OperandRef& op, std::nullptr_t) { return !op; }
  const OperandRef* operator->() const { return this; }
  const OperandRef& operator*() const { return *this; }

  const OperandTemplate& tmpl() const { return *t_; }
  std::uint32_t name_id() const { return t_->name; }
  std::int32_t index() const { return t_->index; }
  std::int32_t bits() const { return t_->bits; }
  OperandSlot slot() const { return t_->slot(); }
  ValueKind vkind() const { return t_->vkind(); }
  bool is_reg() const { return t_->is_reg(); }

  std::uint64_t raw() const { return raw_; }
  Value value() const { return value_of(vkind(), raw_); }
  bool is_addr() const { return vkind() == ValueKind::Addr; }
  std::uint64_t addr() const { return raw_; }
  /// Exactly Value::as_i64(): Int -> i, everything else -> (int64)f, which is
  /// 0 for Addr values, whose f field is never set.
  std::int64_t as_i64() const {
    switch (vkind()) {
      case ValueKind::Int: return std::bit_cast<std::int64_t>(raw_);
      case ValueKind::Float: return static_cast<std::int64_t>(std::bit_cast<double>(raw_));
      case ValueKind::Addr: return 0;
    }
    return 0;
  }

 private:
  const OperandTemplate* t_ = nullptr;
  std::uint64_t raw_ = 0;
};

class TraceBuffer;

/// Zero-cost read cursor over one record of a TraceBuffer (TraceBuffer::view;
/// the VM hands a sink views of its staging buffer's one record).
class RecordView {
 public:
  std::int32_t line() const { return site_->line; }
  Opcode opcode() const { return site_->opcode; }
  std::uint64_t dyn_id() const;
  std::uint32_t func_id() const { return site_->func; }
  std::string_view func() const;
  std::string_view bb() const;

  std::size_t operand_count() const { return site_->op_count; }
  OperandRef operand(std::size_t k) const { return {ops_[k], values_[k]}; }

  /// First operand in the slot class, or none.
  OperandRef find(OperandSlot slot) const { return at(find_slot(ops_, site_->op_count, slot)); }

  /// Numbered input operand (1-based), or none.
  OperandRef input(int idx) const { return at(find_input(ops_, site_->op_count, idx)); }

  std::string_view name(const OperandRef& op) const;
  const SymbolPool& pool() const;
  const TraceBuffer& buffer() const { return *buf_; }
  std::size_t index() const { return index_; }
  std::uint32_t site_id() const;
  const Site& site() const { return *site_; }

  /// Rebuild the owning-string TraceRecord.
  TraceRecord materialize() const;
  /// Render as an LLVM-Tracer text block (with trailing newline).
  std::string to_text() const;
  /// Same bytes appended to `out` — the allocation-free path the buffered
  /// text writer streams through (no per-record temporary string).
  void append_text(std::string& out) const;

 private:
  friend class TraceBuffer;
  RecordView(const TraceBuffer& buf, std::size_t index, const Site& site,
             const OperandTemplate* ops, const std::uint64_t* values)
      : buf_(&buf), index_(index), site_(&site), ops_(ops), values_(values) {}

  OperandRef at(int k) const { return k < 0 ? OperandRef() : operand(static_cast<std::size_t>(k)); }

  const TraceBuffer* buf_;
  std::size_t index_;
  const Site* site_;
  const OperandTemplate* ops_;
  const std::uint64_t* values_;
};

class TraceBuffer {
 public:
  TraceBuffer() = default;

  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }

  RecordView view(std::size_t i) const {
    const RecordEntry& e = records_[i];
    const Site& s = sites_[e.site];
    return RecordView(*this, i, s, site_ops_.data() + s.op_offset, values_.data() + e.value_offset);
  }

  const SymbolPool& pool() const { return pool_; }
  SymbolPool& pool() { return pool_; }
  const std::vector<Site>& sites() const { return sites_; }
  const std::vector<OperandTemplate>& templates() const { return site_ops_; }
  const OperandTemplate* templates_of(const Site& s) const { return site_ops_.data() + s.op_offset; }
  const PodArray<RecordEntry>& records() const { return records_; }
  PodArray<RecordEntry>& records() { return records_; }
  const PodArray<std::uint64_t>& values() const { return values_; }
  PodArray<std::uint64_t>& values() { return values_; }
  const std::vector<DynBreak>& dyn_breaks() const { return dyn_breaks_; }

  /// Record i's dyn_id.
  std::uint64_t dyn_id(std::size_t i) const;

  void reserve(std::size_t records, std::size_t values) {
    records_.reserve(records);
    values_.reserve(values);
  }

  /// Drop every record, site and symbol but keep the arrays' capacity, for a
  /// buffer refilled chunk after chunk.
  void clear() {
    pool_ = SymbolPool();
    sites_.clear();
    site_ops_.clear();
    site_index_.clear();
    clear_records();
  }

  /// Drop the records and their values, keeping the sites and symbols: a
  /// staging buffer that holds one record at a time.
  void clear_records() {
    records_.clear();
    values_.clear();
    dyn_breaks_.clear();
  }

  // --- writing ---------------------------------------------------------------

  /// The id of the site with `s`'s header and the `s.op_count` templates at
  /// `ops` (names as ids of this pool; s.op_offset is ignored), interned on
  /// first sight: ids follow first appearance.
  std::uint32_t intern_site(const Site& s, const OperandTemplate* ops);

  /// Append a record of site `site` whose values the writer already pushed at
  /// `value_offset`. Throws TraceFormatError past 4G values.
  void push_record(std::uint32_t site, std::size_t value_offset, std::uint64_t dyn_id) {
    if (values_.size() > 0xffffffffull) [[unlikely]] {
      throw_value_overflow();
    }
    note_dyn(records_.size(), dyn_id);
    records_.push_back(RecordEntry{site, static_cast<std::uint32_t>(value_offset)});
  }

  /// Record `i` (the next record, or one just decoded) has `dyn_id`: store it
  /// when it breaks the +1 run. Calls come in record order.
  void note_dyn(std::uint64_t i, std::uint64_t dyn_id) {
    const std::uint64_t implied =
        dyn_breaks_.empty() ? i : dyn_breaks_.back().dyn_id + (i - dyn_breaks_.back().record);
    if (dyn_id != implied) [[unlikely]] {
      dyn_breaks_.push_back(DynBreak{i, dyn_id});
    }
  }

  /// Intern + append one owning record (names in func, bb, operand-name
  /// order).
  void append(const TraceRecord& rec);

  /// Append a record viewed over another buffer (a sink's input), translating
  /// its site through a cached source->this site table that is rebuilt
  /// whenever either pool is replaced. A miss interns the site's names in
  /// func, bb, operand-name order, so the pool, the sites and the records come
  /// out identical to append(rec.materialize()).
  void append(const RecordView& rec);

  /// Bulk-append `other`'s records: its symbols are merged into this pool in
  /// `other`'s id order (SymbolPool::merge), its sites into this site table in
  /// `other`'s order, then its values are copied and its records remapped, so
  /// appending a trace's chunks in input order builds the buffer one parse of
  /// the whole trace would. The arrays grow geometrically, so k appends
  /// reallocate O(log k) times.
  void append_buffer(const TraceBuffer& other);

  /// Map `other`'s sites into this buffer, whose pool ids are other's through
  /// `names` (empty: the same ids): map[s] is other's site s here.
  std::vector<std::uint32_t> merge_sites(const std::vector<Site>& sites,
                                         const std::vector<OperandTemplate>& templates,
                                         const std::vector<std::uint32_t>& names);

  /// Rebuild record `i` as an owning TraceRecord.
  TraceRecord materialize(std::size_t i) const { return view(i).materialize(); }

  /// What the buffer holds, in bytes: 8 per record, 8 per value, the site
  /// table, the dyn_id breaks and the pool's bytes in use (not capacity).
  std::size_t byte_size() const {
    return records_.size() * sizeof(RecordEntry) + values_.size() * sizeof(std::uint64_t) +
           sites_.size() * sizeof(Site) + site_ops_.size() * sizeof(OperandTemplate) +
           dyn_breaks_.size() * sizeof(DynBreak) + pool_.byte_size();
  }

 private:
  [[noreturn]] static void throw_value_overflow();
  void grow_site_index();

  SymbolPool pool_;
  std::vector<Site> sites_;
  std::vector<OperandTemplate> site_ops_;
  // Open-addressed index of sites_ by content: site id + 1, 0 = empty slot.
  std::vector<std::uint32_t> site_index_;
  PodArray<RecordEntry> records_;
  PodArray<std::uint64_t> values_;
  std::vector<DynBreak> dyn_breaks_;
  // append(RecordView) cache: source site id -> site id here (npos = not yet
  // mapped), valid for the pool pair named by the two uids.
  std::vector<std::uint32_t> site_remap_;
  std::uint64_t remap_src_ = 0;
  std::uint64_t remap_dst_ = 0;
  std::vector<OperandTemplate> scratch_ops_;  // append(TraceRecord)'s templates
};

inline std::string_view RecordView::func() const { return buf_->pool().view(site_->func); }
inline std::string_view RecordView::bb() const { return buf_->pool().view(site_->bb); }
inline std::string_view RecordView::name(const OperandRef& op) const {
  return buf_->pool().view(op.name_id());
}
inline const SymbolPool& RecordView::pool() const { return buf_->pool(); }
inline std::uint32_t RecordView::site_id() const { return buf_->records()[index_].site; }
inline std::uint64_t RecordView::dyn_id() const { return buf_->dyn_id(index_); }

}  // namespace ac::trace
