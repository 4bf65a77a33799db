#include "trace/buffer.hpp"

#include <algorithm>
#include <cinttypes>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::trace {

namespace {

/// Make room for `extra` more elements. An exact-fit reserve would copy the
/// whole array on every append, so grow by at least half the capacity.
template <class T>
void grow(std::vector<T>& vec, std::size_t extra) {
  const std::size_t need = vec.size() + extra;
  if (need > vec.capacity()) vec.reserve(std::max(need, vec.capacity() + vec.capacity() / 2));
}

}  // namespace

void TraceBuffer::append(const TraceRecord& r) {
  PackedRecord rec;
  rec.dyn_id = r.dyn_id;
  rec.func = pool_.intern(r.func);
  rec.bb = pool_.intern(r.bb);
  rec.line = r.line;
  rec.opcode = r.opcode;
  if (operands_.size() + r.operands.size() > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  rec.op_offset = static_cast<std::uint32_t>(operands_.size());
  rec.op_count = static_cast<std::uint32_t>(r.operands.size());
  for (const Operand& op : r.operands) {
    PackedOperand p;
    p.raw = PackedOperand::raw_of(op.value);
    p.name = pool_.intern(op.name);
    p.index = op.index;
    p.bits = op.bits;
    p.flags = PackedOperand::pack_flags(op.slot, op.value.kind, op.is_reg);
    operands_.push_back(p);
  }
  records_.push_back(rec);
}

TraceRecord RecordView::materialize() const {
  TraceRecord out;
  out.line = rec_->line;
  out.func = std::string(func());
  out.bb = std::string(bb());
  out.opcode = rec_->opcode;
  out.dyn_id = rec_->dyn_id;
  out.operands.reserve(rec_->op_count);
  for (const PackedOperand* op = ops_; op != operands_end(); ++op) {
    Operand o;
    o.slot = op->slot();
    o.index = op->index;
    o.bits = op->bits;
    o.value = op->value();
    o.is_reg = op->is_reg();
    o.name = std::string(name(*op));
    out.operands.push_back(std::move(o));
  }
  return out;
}

std::string RecordView::to_text() const {
  std::string out;
  append_text(out);
  return out;
}

void RecordView::append_text(std::string& out) const {
  // The golden trace digests, the writer fixpoint and Record.TextLayout pin
  // these bytes.
  appendf(out, "0,%d,%.*s,%.*s,%d,%" PRIu64 "\n", rec_->line,
          static_cast<int>(func().size()), func().data(), static_cast<int>(bb().size()),
          bb().data(), static_cast<int>(rec_->opcode), rec_->dyn_id);
  for (const PackedOperand* op = ops_; op != operands_end(); ++op) {
    switch (op->slot()) {
      case OperandSlot::Input: appendf(out, "%d", op->index); break;
      case OperandSlot::Callee: out += '0'; break;
      case OperandSlot::Param: out += 'f'; break;
      case OperandSlot::Result: out += 'r'; break;
    }
    const std::string_view nm = name(*op);
    appendf(out, ",%d,%s,%d,%.*s\n", op->bits, value_to_text(op->value()).c_str(),
            op->is_reg() ? 1 : 0, nm.empty() ? 1 : static_cast<int>(nm.size()),
            nm.empty() ? " " : nm.data());
  }
}

void TraceBuffer::append(const RecordView& rec) {
  const SymbolPool& src = rec.pool();
  if (view_remap_src_ != src.uid() || view_remap_dst_ != pool_.uid()) {
    view_remap_.clear();
    view_remap_src_ = src.uid();
    view_remap_dst_ = pool_.uid();
  }
  const auto map = [&](std::uint32_t id) {
    if (id >= src.size()) return SymbolPool::npos;  // npos/absent: unnamed
    if (id >= view_remap_.size()) view_remap_.resize(src.size(), SymbolPool::npos);
    std::uint32_t& mapped = view_remap_[id];
    if (mapped == SymbolPool::npos) mapped = pool_.intern(src.view(id));
    return mapped;
  };
  PackedRecord packed = rec.packed();
  packed.func = map(packed.func);
  packed.bb = map(packed.bb);
  if (operands_.size() + packed.op_count > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  packed.op_offset = static_cast<std::uint32_t>(operands_.size());
  for (const PackedOperand* op = rec.operands_begin(); op != rec.operands_end(); ++op) {
    PackedOperand copy = *op;
    copy.name = map(copy.name);
    operands_.push_back(copy);
  }
  records_.push_back(packed);
}

void TraceBuffer::append_buffer(const TraceBuffer& other) {
  append_remapped(other, pool_.merge(other.pool_));
}

void TraceBuffer::append_remapped(const TraceBuffer& other,
                                  const std::vector<std::uint32_t>& remap) {
  auto remap_id = [&](std::uint32_t id) {
    return id == SymbolPool::npos ? SymbolPool::npos : remap[id];
  };
  if (operands_.size() + other.operands_.size() > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  const auto op_base = static_cast<std::uint32_t>(operands_.size());
  grow(operands_, other.operands_.size());
  for (PackedOperand op : other.operands_) {
    op.name = remap_id(op.name);
    operands_.push_back(op);
  }
  grow(records_, other.records_.size());
  for (PackedRecord rec : other.records_) {
    rec.func = remap_id(rec.func);
    rec.bb = remap_id(rec.bb);
    rec.op_offset += op_base;
    records_.push_back(rec);
  }
}

}  // namespace ac::trace
