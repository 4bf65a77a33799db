#include "analysis/preprocess.hpp"

#include <map>
#include <unordered_map>

#include "support/error.hpp"

namespace ac::analysis {

using trace::Opcode;
using trace::OperandSlot;
using trace::PackedOperand;
using trace::PackedRecord;
using trace::SymbolPool;
using trace::TraceBuffer;

Partition partition_trace(const TraceBuffer& buf, const MclRegion& region) {
  Partition part;
  const std::uint32_t region_func = buf.pool().lookup(region.function);
  const auto& records = buf.records();
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(records.size()); ++i) {
    const PackedRecord& r = records[static_cast<std::size_t>(i)];
    // Alloca records are hoisted to function entry by the compiler; their
    // line is the declaration point, not an executed loop statement (cf. the
    // paper's Fig. 6(c), where LLVM-Tracer reports line -1 for Alloca).
    if (r.opcode == Opcode::Alloca) continue;
    // Id equality is name equality (npos stands for the empty name).
    if (r.func == region_func && region.contains(r.line)) {
      if (part.first_b < 0) part.first_b = i;
      part.last_b = i;
    }
  }
  if (!part.has_loop()) {
    throw AnalysisError("main computation loop region never executes "
                        "(wrong function name or line range?)");
  }
  return part;
}

namespace {

/// The memory address a Load reads or a Store writes, or 0 for other records.
std::uint64_t access_address(const PackedRecord& r, const PackedOperand* ops) {
  const int want = r.opcode == Opcode::Load ? 1 : (r.opcode == Opcode::Store ? 2 : 0);
  if (want == 0) return 0;
  const PackedOperand* op = trace::find_input(r, ops, want);
  return op && op->is_addr() ? op->addr() : 0;
}

}  // namespace

struct MliCollector::Impl {
  MclRegion region;
  MliMode mode;

  // Name resolution. Batch mode binds the (complete, immutable) pool of the
  // buffer being replayed; streaming mode binds the pool of its one-record
  // scratch buffer, which interns names as records arrive.
  const SymbolPool* pool = nullptr;
  std::uint32_t region_func_id = SymbolPool::npos;
  TraceBuffer scratch;

  PreprocessResult out;
  AddressMap amap;
  std::ptrdiff_t idx = -1;       // current record index
  std::ptrdiff_t first_b = -1;   // known as soon as the loop is entered
  std::ptrdiff_t last_b = -1;    // grows until the stream ends

  struct VarFlags {
    std::ptrdiff_t alloca_idx = -1;
    bool accessed_before_loop = false;
    std::ptrdiff_t first_access_in_loop_or_later = -1;
    std::uint64_t base = 0;  // last bound base address (stable for host/globals)
  };
  std::vector<VarFlags> flags;

  AllocaSiteCache alloca_ids;

  // PaperNameMatch state: call-depth tracking needs one record of lookahead
  // to recognize "a Call instruction followed by its function body".
  bool pending_call = false;
  bool pending_has_callee = false;
  std::uint32_t pending_callee = SymbolPool::npos;
  int call_depth = 0;
  int loop_entry_depth = -1;
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::ptrdiff_t> set_a;  // -> first idx
  std::map<std::pair<std::uint32_t, std::uint64_t>, std::ptrdiff_t> set_b;
  std::vector<std::uint32_t> var_name_id;  // canonical var id -> pool id of its name

  Impl(const MclRegion& r, MliMode m) : region(r), mode(m) {}

  void bind_streaming() {
    pool = &scratch.pool();
    region_func_id = scratch.pool().intern(region.function);
  }
  void bind_buffer(const TraceBuffer& buf) {
    pool = &buf.pool();
    region_func_id = pool->lookup(region.function);
  }

  VarFlags& flags_of(int id) {
    if (static_cast<std::size_t>(id) >= flags.size()) flags.resize(static_cast<std::size_t>(id) + 1);
    return flags[static_cast<std::size_t>(id)];
  }

  std::uint32_t name_id_of_var(int id) {
    if (static_cast<std::size_t>(id) >= var_name_id.size()) {
      var_name_id.resize(static_cast<std::size_t>(id) + 1, SymbolPool::npos);
    }
    return var_name_id[static_cast<std::size_t>(id)];
  }

  int canonical_var(std::uint32_t func, std::uint32_t name, int line, std::uint64_t bytes) {
    const int id = alloca_ids.canonical(out.vars, *pool, func, name, line, bytes);
    if (static_cast<std::size_t>(id) >= var_name_id.size()) {
      var_name_id.resize(static_cast<std::size_t>(id) + 1, SymbolPool::npos);
    }
    var_name_id[static_cast<std::size_t>(id)] = name;
    return id;
  }

  void add(const trace::RecordView& rec) {
    scratch.records().clear();
    scratch.operands().clear();
    scratch.append(rec);
    add_packed(scratch.records()[0], scratch.operands().data());
  }

  void add_packed(const PackedRecord& rec, const PackedOperand* ops) {
    if (pending_call) {
      // Ids compare like the legacy strings did (empty name == npos == empty
      // func), so "a Call followed by its function body" is the same test.
      if (pending_has_callee && rec.func == pending_callee) ++call_depth;
      pending_call = false;
    }
    ++idx;
    ++out.records_scanned;

    const bool in_region = rec.opcode != Opcode::Alloca && rec.func == region_func_id &&
                           region.contains(rec.line);
    if (in_region) {
      if (first_b < 0) {
        first_b = idx;
        loop_entry_depth = call_depth;
      }
      last_b = idx;
    }

    if (rec.opcode == Opcode::Call) {
      pending_call = true;
      const PackedOperand* callee = trace::find_operand(rec, ops, OperandSlot::Callee);
      pending_has_callee = callee != nullptr;
      pending_callee = callee ? callee->name : SymbolPool::npos;
    }
    if (rec.opcode == Opcode::Ret) --call_depth;

    if (rec.opcode == Opcode::Alloca) {
      const PackedOperand* result = trace::find_operand(rec, ops, OperandSlot::Result);
      const PackedOperand* size = trace::find_input(rec, ops, 1);
      if (!result || !size || !result->is_addr()) {
        throw AnalysisError("malformed Alloca record");
      }
      const auto bytes = static_cast<std::uint64_t>(size->as_i64());
      const int id = canonical_var(rec.func, result->name, rec.line, bytes);
      amap.bind(result->addr(), bytes, id);
      VarFlags& f = flags_of(id);
      if (f.alloca_idx < 0) f.alloca_idx = idx;
      f.base = result->addr();
      return;
    }

    const std::uint64_t addr = access_address(rec, ops);
    if (addr == 0) return;
    const auto hit = amap.resolve(addr);
    if (!hit) return;

    VarFlags& f = flags_of(hit->var);
    if (first_b < 0) {
      f.accessed_before_loop = true;
    } else if (f.first_access_in_loop_or_later < 0) {
      f.first_access_in_loop_or_later = idx;
    }

    if (mode == MliMode::PaperNameMatch) {
      const std::uint32_t name_id = name_id_of_var(hit->var);
      const std::uint64_t base = addr - static_cast<std::uint64_t>(hit->elem) * 8;
      if (first_b < 0) {
        set_a.emplace(std::make_pair(name_id, base), idx);
      } else if (call_depth <= loop_entry_depth) {
        // Bypass function-call intervals: only host-level accesses collected.
        set_b.emplace(std::make_pair(name_id, base), idx);
      }
    }
  }

  PreprocessResult finish() {
    if (first_b < 0) {
      throw AnalysisError("main computation loop region never executes "
                          "(wrong function name or line range?)");
    }
    out.partition.first_b = first_b;
    out.partition.last_b = last_b;

    out.is_mli.assign(out.vars.size(), 0);
    for (std::size_t id = 0; id < out.vars.size(); ++id) {
      if (id >= flags.size()) continue;
      const VarDef& def = out.vars.def(static_cast<int>(id));
      const VarFlags& f = flags[id];
      const bool host_scope = def.is_global() || def.func == region.function;
      const bool defined_before_loop = host_scope && f.alloca_idx >= 0 && f.alloca_idx < first_b;
      const bool accessed_in_loop =
          f.first_access_in_loop_or_later >= 0 && f.first_access_in_loop_or_later <= last_b;

      bool mli = false;
      if (mode == MliMode::AddressResolved) {
        mli = defined_before_loop && f.accessed_before_loop && accessed_in_loop;
      } else {
        // Name+address matching between the collected sets, restricted to
        // host-scope/global storage introduced before the loop; Part C
        // collections are filtered out by the loop's end index.
        const auto key = std::make_pair(name_id_of_var(static_cast<int>(id)), f.base);
        const auto a = set_a.find(key);
        const auto b = set_b.find(key);
        mli = defined_before_loop && a != set_a.end() && b != set_b.end() &&
              b->second <= last_b;
      }
      if (mli) {
        out.is_mli[id] = 1;
        out.mli.push_back(MliVar{static_cast<int>(id), def.name, def.decl_line, def.bytes});
      }
    }
    return std::move(out);
  }
};

MliCollector::MliCollector(const MclRegion& region, MliMode mode)
    : impl_(new Impl(region, mode)) {
  impl_->bind_streaming();
}

MliCollector::~MliCollector() = default;

void MliCollector::add(const trace::RecordView& rec) { impl_->add(rec); }

PreprocessResult MliCollector::finish() { return impl_->finish(); }

PreprocessResult preprocess(const TraceBuffer& buf, const MclRegion& region, MliMode mode) {
  MliCollector::Impl impl(region, mode);
  impl.bind_buffer(buf);
  const auto& records = buf.records();
  const PackedOperand* ops = buf.operands().data();
  for (const PackedRecord& rec : records) impl.add_packed(rec, ops + rec.op_offset);
  return impl.finish();
}

}  // namespace ac::analysis
