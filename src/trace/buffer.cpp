#include "trace/buffer.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::trace {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t site_hash(const Site& s, const OperandTemplate* ops) {
  std::uint64_t h = mix(s.func, s.bb);
  h = mix(h, static_cast<std::uint32_t>(s.line));
  h = mix(h, (std::uint64_t{s.op_count} << 8) | static_cast<std::uint8_t>(s.opcode));
  for (std::uint32_t k = 0; k < s.op_count; ++k) {
    h = mix(h, (std::uint64_t{ops[k].name} << 32) | static_cast<std::uint32_t>(ops[k].index));
    h = mix(h, (std::uint64_t{static_cast<std::uint32_t>(ops[k].bits)} << 8) | ops[k].flags);
  }
  return h * 0xC2B2AE3D27D4EB4Full;
}

}  // namespace

void TraceBuffer::throw_value_overflow() {
  throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
}

std::uint64_t TraceBuffer::dyn_id(std::size_t i) const {
  // The last break at or before i sets the run i belongs to.
  const auto it = std::upper_bound(dyn_breaks_.begin(), dyn_breaks_.end(), std::uint64_t{i},
                                   [](std::uint64_t r, const DynBreak& b) { return r < b.record; });
  if (it == dyn_breaks_.begin()) return i;
  const DynBreak& b = *(it - 1);
  return b.dyn_id + (i - b.record);
}

void TraceBuffer::grow_site_index() {
  const std::size_t cap = std::max<std::size_t>(64, site_index_.size() * 2);
  site_index_.assign(cap, 0);
  for (std::uint32_t id = 0; id < sites_.size(); ++id) {
    std::size_t slot = site_hash(sites_[id], templates_of(sites_[id])) & (cap - 1);
    while (site_index_[slot] != 0) slot = (slot + 1) & (cap - 1);
    site_index_[slot] = id + 1;
  }
}

std::uint32_t TraceBuffer::intern_site(const Site& s, const OperandTemplate* ops) {
  if ((sites_.size() + 1) * 2 > site_index_.size()) grow_site_index();
  const std::size_t mask = site_index_.size() - 1;
  std::size_t slot = site_hash(s, ops) & mask;
  for (; site_index_[slot] != 0; slot = (slot + 1) & mask) {
    const std::uint32_t id = site_index_[slot] - 1;
    const Site& have = sites_[id];
    if (have.same_header(s) && std::equal(ops, ops + s.op_count, templates_of(have))) return id;
  }
  if (sites_.size() >= 0xfffffffeull || site_ops_.size() + s.op_count > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-site TraceBuffer capacity");
  }
  const auto id = static_cast<std::uint32_t>(sites_.size());
  Site stored = s;
  stored.op_offset = static_cast<std::uint32_t>(site_ops_.size());
  site_ops_.insert(site_ops_.end(), ops, ops + s.op_count);
  sites_.push_back(stored);
  site_index_[slot] = id + 1;
  return id;
}

void TraceBuffer::append(const TraceRecord& r) {
  Site s;
  s.func = pool_.intern(r.func);
  s.bb = pool_.intern(r.bb);
  s.line = r.line;
  s.opcode = r.opcode;
  s.op_count = static_cast<std::uint32_t>(r.operands.size());
  scratch_ops_.clear();
  for (const Operand& op : r.operands) {
    OperandTemplate t;
    t.name = pool_.intern(op.name);
    t.index = op.index;
    t.bits = op.bits;
    t.flags = OperandTemplate::pack_flags(op.slot, op.value.kind, op.is_reg);
    scratch_ops_.push_back(t);
  }
  const std::uint32_t site = intern_site(s, scratch_ops_.data());
  const std::size_t offset = values_.size();
  for (const Operand& op : r.operands) values_.push_back(raw_of(op.value));
  push_record(site, offset, r.dyn_id);
}

void TraceBuffer::append(const RecordView& rec) {
  const TraceBuffer& src = rec.buffer();
  if (remap_src_ != src.pool_.uid() || remap_dst_ != pool_.uid()) {
    site_remap_.clear();
    remap_src_ = src.pool_.uid();
    remap_dst_ = pool_.uid();
  }
  const std::uint32_t from = rec.site_id();
  if (from >= site_remap_.size()) site_remap_.resize(src.sites_.size(), SymbolPool::npos);
  std::uint32_t& to = site_remap_[from];
  if (to == SymbolPool::npos) {
    const Site& ss = src.sites_[from];
    const OperandTemplate* sops = src.templates_of(ss);
    Site s = ss;
    s.func = pool_.intern(src.pool_.view(ss.func));
    s.bb = pool_.intern(src.pool_.view(ss.bb));
    scratch_ops_.assign(sops, sops + ss.op_count);
    for (OperandTemplate& t : scratch_ops_) t.name = pool_.intern(src.pool_.view(t.name));
    to = intern_site(s, scratch_ops_.data());
  }
  const std::size_t offset = values_.size();
  const std::uint64_t* v = src.values_.data() + src.records_[rec.index()].value_offset;
  values_.insert(values_.end(), v, v + rec.operand_count());
  push_record(to, offset, rec.dyn_id());
}

std::vector<std::uint32_t> TraceBuffer::merge_sites(const std::vector<Site>& sites,
                                                    const std::vector<OperandTemplate>& templates,
                                                    const std::vector<std::uint32_t>& names) {
  const auto name = [&](std::uint32_t id) {
    return names.empty() || id == SymbolPool::npos ? id : names[id];
  };
  std::vector<std::uint32_t> map(sites.size());
  for (std::size_t i = 0; i < sites.size(); ++i) {
    Site s = sites[i];
    s.func = name(s.func);
    s.bb = name(s.bb);
    scratch_ops_.assign(templates.begin() + s.op_offset,
                        templates.begin() + s.op_offset + s.op_count);
    for (OperandTemplate& t : scratch_ops_) t.name = name(t.name);
    map[i] = intern_site(s, scratch_ops_.data());
  }
  return map;
}

void TraceBuffer::append_buffer(const TraceBuffer& other) {
  const std::vector<std::uint32_t> names = pool_.merge(other.pool_);
  const std::vector<std::uint32_t> sites = merge_sites(other.sites_, other.site_ops_, names);
  if (values_.size() + other.values_.size() > 0xffffffffull) throw_value_overflow();
  const auto value_base = static_cast<std::uint32_t>(values_.size());
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  const std::size_t rec_base = records_.size();
  records_.resize_uninitialized(rec_base + other.records_.size());
  RecordEntry* out = records_.data() + rec_base;
  for (RecordEntry e : other.records_) {
    e.site = sites[e.site];
    e.value_offset += value_base;
    *out++ = e;
  }
  if (!other.empty()) note_dyn(rec_base, other.dyn_id(0));
  for (const DynBreak& b : other.dyn_breaks_) note_dyn(rec_base + b.record, b.dyn_id);
}

TraceRecord RecordView::materialize() const {
  TraceRecord out;
  out.line = site_->line;
  out.func = std::string(func());
  out.bb = std::string(bb());
  out.opcode = site_->opcode;
  out.dyn_id = dyn_id();
  out.operands.reserve(site_->op_count);
  for (std::size_t k = 0; k < operand_count(); ++k) {
    const OperandRef op = operand(k);
    Operand o;
    o.slot = op.slot();
    o.index = op.index();
    o.bits = op.bits();
    o.value = op.value();
    o.is_reg = op.is_reg();
    o.name = std::string(name(op));
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
  // these bytes. Names are appended whole, embedded NULs included.
  const SymbolPool& names = buf_->pool();
  out += "0,";
  append_int(out, site_->line);
  out += ',';
  out += names.view(site_->func);
  out += ',';
  out += names.view(site_->bb);
  out += ',';
  append_int(out, static_cast<int>(site_->opcode));
  out += ',';
  append_int(out, dyn_id());
  out += '\n';
  for (std::uint32_t k = 0; k < site_->op_count; ++k) {
    const OperandTemplate& t = ops_[k];
    switch (t.slot()) {
      case OperandSlot::Input: append_int(out, t.index); break;
      case OperandSlot::Callee: out += '0'; break;
      case OperandSlot::Param: out += 'f'; break;
      case OperandSlot::Result: out += 'r'; break;
    }
    out += ',';
    append_int(out, t.bits);
    out += ',';
    append_value_text(out, value_of(t.vkind(), values_[k]));
    out += t.is_reg() ? ",1," : ",0,";
    const std::string_view nm = names.view(t.name);
    out += nm.empty() ? std::string_view(" ") : nm;  // an unnamed operand is one space
    out += '\n';
  }
}

}  // namespace ac::trace
