#include "analysis/depanalysis.hpp"

#include <utility>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::analysis {

using trace::Opcode;
using trace::OperandSlot;
using trace::PackedOperand;
using trace::PackedRecord;
using trace::SymbolPool;
using trace::TraceBuffer;

namespace {

/// Most sources one register may carry. Reductions keep provenance small by
/// SSA re-loading, so only a pathological trace (from a file or `acd`) comes
/// near it; such a trace is refused rather than analysed with a source
/// silently dropped.
constexpr std::size_t kMaxProvSources = 1024;

/// Immediate variable provenance of a register: the set of (var, element)
/// sources whose values flow into it (the reg-var map of §IV-B, with the
/// reg-reg map folded in by unioning across arithmetic instructions), in
/// first-seen order.
struct Prov {
  std::vector<std::pair<int, std::int64_t>> sources;

  void add(int var, std::int64_t elem) {
    for (const auto& s : sources) {
      if (s.first == var && s.second == elem) return;
    }
    if (sources.size() == kMaxProvSources) {
      throw AnalysisError(strf("register provenance exceeds %zu sources", kMaxProvSources));
    }
    sources.emplace_back(var, elem);
  }
  void merge(const Prov& other) {
    // `other` is duplicate-free and within the bound, so the first merge of
    // a register is a copy; the dedupe scan runs only from the second on.
    if (sources.empty()) {
      sources = other.sources;
      return;
    }
    for (const auto& s : other.sources) add(s.first, s.second);
  }
};

/// One register of the shallow-bound table: its provenance is visible only
/// to the frame whose generation wrote it.
struct RegSlot {
  std::uint64_t gen = 0;  // 0: never written
  Prov prov;
};

/// A slot as it was before a callee's first write to it, restored at Ret.
struct UndoEntry {
  std::uint32_t reg = 0;
  RegSlot saved;
};

struct AnalysisFrame {
  std::uint32_t func = SymbolPool::npos;
  std::uint32_t pending_dst = SymbolPool::npos;  // caller register awaiting Ret
  std::uint64_t gen = 0;
  std::size_t undo_mark = 0;                     // undo-log depth at entry
};

/// Dense index of a pool id: the absent and npos sentinels take 0 and 1,
/// real ids follow.
std::size_t dense(std::uint32_t id) {
  return id >= SymbolPool::absent ? id - SymbolPool::absent : std::size_t{id} + 2;
}

}  // namespace

struct DepAnalyzer::Impl {
  PreprocessResult& pre;
  MclRegion region;
  DepOptions opts;

  // Name resolution (see MliCollector::Impl): batch binds the buffer's pool,
  // streaming the pool of its one-record scratch buffer.
  const SymbolPool* pool = nullptr;
  bool streaming = false;
  std::uint32_t region_func_id = SymbolPool::npos;
  TraceBuffer scratch;

  DepResult result;
  AddressMap amap;
  std::vector<AnalysisFrame> frames;
  std::ptrdiff_t idx = -1;
  Part part = Part::A;
  int iteration = 0;

  // One-record lookahead: a Call record is form 2 iff the next record
  // executes inside the callee ("a Call instruction followed by its function
  // body"). The pending record is copied (streaming scratch is overwritten).
  bool have_pending_call = false;
  PackedRecord pending_rec;
  std::vector<PackedOperand> pending_ops;

  // Registers, shallow-bound (see depanalysis.hpp): memory is O(pool size +
  // live writes) at any call depth. Undo entries, argument entries and the
  // scratch provenance keep their vectors when reused, so a record allocates
  // nothing in steady state.
  std::vector<RegSlot> regs;
  std::vector<UndoEntry> undo;
  std::size_t undo_top = 0;
  std::uint64_t next_gen = 0;
  Prov scratch_prov;
  std::vector<Prov> arg_provs;
  const Prov no_prov;

  // Alloca-site canonical-id cache (shared implementation with pre-processing).
  AllocaSiteCache alloca_ids;
  // "argN" binding registers, indexed by N-1.
  std::vector<std::uint32_t> arg_ids;
  // DDG node caches: labels are a pure function of the ids, so node ids are
  // resolved without rebuilding label strings per record. -1: no node yet.
  std::vector<int> var_nodes;               // by var id
  std::vector<std::vector<int>> reg_nodes;  // by dense(func), then dense(reg)
  std::uint32_t memo_func = SymbolPool::npos;
  std::vector<int>* memo_func_nodes = nullptr;

  Impl(PreprocessResult& p, const MclRegion& r, const DepOptions& o)
      : pre(p), region(r), opts(o) {
    result.induction.written_in_b.assign(pre.vars.size(), 0);
  }

  void bind_streaming() {
    streaming = true;
    pool = &scratch.pool();
    region_func_id = scratch.pool().intern(region.function);
    push_frame(scratch.pool().intern("main"), SymbolPool::npos);
  }
  void bind_buffer(const TraceBuffer& buf) {
    pool = &buf.pool();
    region_func_id = pool->lookup(region.function);
    push_frame(pool->lookup("main"), SymbolPool::npos);
  }

  AnalysisFrame& frame() {
    AC_CHECK(!frames.empty(), "analysis frame stack underflow");
    return frames.back();
  }

  // --- register table ---------------------------------------------------------

  void push_frame(std::uint32_t func, std::uint32_t pending_dst) {
    frames.push_back(AnalysisFrame{func, pending_dst, ++next_gen, undo_top});
  }

  void pop_frame() {
    const std::size_t mark = frame().undo_mark;
    while (undo_top > mark) {
      UndoEntry& u = undo[--undo_top];
      std::swap(regs[u.reg], u.saved);
    }
    frames.pop_back();
  }

  const Prov& prov_of_reg(std::uint32_t reg) const {
    return reg < regs.size() && regs[reg].gen == frames.back().gen ? regs[reg].prov : no_prov;
  }

  /// Bind `value` to `reg` in the current frame. `value` is swapped in and
  /// comes back holding a spare vector for reuse.
  void write_reg(std::uint32_t reg, Prov& value) {
    // Sentinel ids name no register any record can read.
    if (reg >= SymbolPool::absent) return;
    if (reg >= regs.size()) regs.resize(std::size_t{reg} + 1);
    RegSlot& slot = regs[reg];
    const AnalysisFrame& f = frame();
    if (slot.gen != f.gen) {
      if (frames.size() > 1) {  // the bottom frame never returns: nothing to restore
        if (undo_top == undo.size()) undo.emplace_back();
        UndoEntry& u = undo[undo_top++];
        u.reg = reg;
        std::swap(u.saved, slot);
      }
      slot.gen = f.gen;
    }
    slot.prov.sources.swap(value.sources);
  }

  bool is_mli(int var) const {
    return var >= 0 && static_cast<std::size_t>(var) < pre.is_mli.size() &&
           pre.is_mli[static_cast<std::size_t>(var)];
  }

  bool at_header(const PackedRecord& r) const {
    return part == Part::B && r.func == region_func_id && r.line == region.begin_line;
  }

  void mark_written_in_b(int var) {
    auto& w = result.induction.written_in_b;
    if (static_cast<std::size_t>(var) >= w.size()) w.resize(static_cast<std::size_t>(var) + 1, 0);
    w[static_cast<std::size_t>(var)] = 1;
  }

  void push_event(int var, std::int64_t elem, bool is_write, int line) {
    if (!is_mli(var)) return;
    AccessEvent ev;
    ev.var = var;
    ev.elem = elem;
    ev.t = static_cast<std::uint64_t>(idx);
    ev.line = line;
    ev.iteration = iteration;
    ev.part = part;
    ev.is_write = is_write;
    result.events.push_back(ev);
  }

  int canonical_var(std::uint32_t func, std::uint32_t name, int line, std::uint64_t bytes) {
    return alloca_ids.canonical(pre.vars, *pool, func, name, line, bytes);
  }

  // --- DDG helpers ----------------------------------------------------------

  int ddg_var_node(int var) {
    const auto v = static_cast<std::size_t>(var);
    if (v >= var_nodes.size()) var_nodes.resize(v + 1, -1);
    int& node = var_nodes[v];
    if (node >= 0) return node;
    const VarDef& def = pre.vars.def(var);
    const std::string label = (def.is_global() || def.func == region.function)
                                  ? def.name
                                  : def.func + "." + def.name;
    node = result.complete.node(label, is_mli(var) ? NodeKind::MliVar : NodeKind::OtherVar);
    return node;
  }

  std::string_view func_label(std::uint32_t func) const {
    // The bottom frame is labeled "main" whether or not the trace contains a
    // function of that name (legacy behavior); every other id resolves
    // through the pool.
    return func == SymbolPool::absent ? std::string_view("main") : pool->view(func);
  }

  int ddg_reg_node(std::uint32_t func, std::uint32_t reg) {
    // Consecutive records almost always share their function.
    if (func != memo_func || memo_func_nodes == nullptr) {
      const std::size_t f = dense(func);
      if (f >= reg_nodes.size()) reg_nodes.resize(f + 1);
      memo_func = func;
      memo_func_nodes = &reg_nodes[f];
    }
    std::vector<int>& nodes = *memo_func_nodes;
    const std::size_t r = dense(reg);
    if (r >= nodes.size()) nodes.resize(r + 1, -1);
    int& node = nodes[r];
    if (node >= 0) return node;
    const std::string label =
        std::string(func_label(func)) + "%" + std::string(pool->view(reg));
    node = result.complete.node(label, NodeKind::Register);
    return node;
  }

  // --- record handlers --------------------------------------------------------

  void on_alloca(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    const PackedOperand* size = trace::find_input(r, ops, 1);
    if (!result_op || !size || !result_op->is_addr()) {
      throw AnalysisError("malformed Alloca record");
    }
    const auto bytes = static_cast<std::uint64_t>(size->as_i64());
    const int id = canonical_var(r.func, result_op->name, r.line, bytes);
    amap.bind(result_op->addr(), bytes, id);
    if (static_cast<std::size_t>(id) >= pre.is_mli.size()) {
      pre.is_mli.resize(static_cast<std::size_t>(id) + 1, 0);
    }
  }

  void on_load(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* ptr = trace::find_input(r, ops, 1);
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    if (!ptr || !result_op || !ptr->is_addr()) throw AnalysisError("malformed Load record");
    const auto hit = amap.resolve(ptr->addr());
    scratch_prov.sources.clear();
    if (hit) {
      scratch_prov.add(hit->var, hit->elem);
      if (opts.build_ddg) {
        result.complete.add_edge(ddg_var_node(hit->var), ddg_reg_node(r.func, result_op->name));
      }
      if (at_header(r)) result.induction.cond_read.insert(hit->var);
    }
    write_reg(result_op->name, scratch_prov);
  }

  /// Valid until the next register write or frame change.
  const Prov& prov_of_operand(const PackedOperand& op) const {
    if (!op.is_reg() || op.name == SymbolPool::npos) return no_prov;
    return prov_of_reg(op.name);
  }

  void on_arith(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);
    if (!result_op) return;
    scratch_prov.sources.clear();
    for (std::uint32_t i = 0; i < r.op_count; ++i) {
      const PackedOperand& op = ops[i];
      if (op.slot() != OperandSlot::Input) continue;
      scratch_prov.merge(prov_of_operand(op));
      if (opts.build_ddg && op.is_reg() && op.name != SymbolPool::npos) {
        result.complete.add_edge(ddg_reg_node(r.func, op.name),
                                 ddg_reg_node(r.func, result_op->name));
      }
    }
    write_reg(result_op->name, scratch_prov);
  }

  void on_store(const PackedRecord& r, const PackedOperand* ops) {
    const PackedOperand* value = trace::find_input(r, ops, 1);
    const PackedOperand* ptr = trace::find_input(r, ops, 2);
    if (!value || !ptr || !ptr->is_addr()) throw AnalysisError("malformed Store record");
    ++result.stores_seen;
    const auto hit = amap.resolve(ptr->addr());
    if (!hit) return;

    // Pointer assignment (paper §IV-A): storing an address transfers an
    // alias, it is neither a Read nor a Write of application data.
    if (value->is_addr() && amap.resolve(value->addr())) {
      ++result.pointer_assignments;
      return;
    }

    const Prov& sources = prov_of_operand(*value);
    for (const auto& [svar, selem] : sources.sources) {
      push_event(svar, selem, /*is_write=*/false, r.line);
    }
    push_event(hit->var, hit->elem, /*is_write=*/true, r.line);

    if (opts.build_ddg && value->is_reg() && value->name != SymbolPool::npos) {
      result.complete.add_edge(ddg_reg_node(r.func, value->name), ddg_var_node(hit->var));
    }

    if (part == Part::B) {
      mark_written_in_b(hit->var);
      if (at_header(r)) {
        for (const auto& [svar, selem] : sources.sources) {
          (void)selem;
          if (svar == hit->var) result.induction.self_rmw.insert(hit->var);
        }
      }
    }
  }

  std::uint32_t arg_id(int n) {
    while (static_cast<int>(arg_ids.size()) < n) {
      const std::string name = strf("arg%zu", arg_ids.size() + 1);
      arg_ids.push_back(streaming ? scratch.pool().intern(name) : pool->find(name));
    }
    return arg_ids[static_cast<std::size_t>(n - 1)];
  }

  void on_call(const PackedRecord& r, const PackedOperand* ops, bool with_body) {
    const PackedOperand* callee = trace::find_operand(r, ops, OperandSlot::Callee);
    if (!callee) throw AnalysisError("Call record without callee");
    const PackedOperand* result_op = trace::find_operand(r, ops, OperandSlot::Result);

    if (!with_body) {
      // Form 1: treated like an arithmetic instruction — argument registers
      // feed the result; argument reads of MLI variables are data reads
      // (this is how Outcome consumption by e.g. print_float is observed).
      scratch_prov.sources.clear();
      for (std::uint32_t i = 0; i < r.op_count; ++i) {
        const PackedOperand& op = ops[i];
        if (op.slot() != OperandSlot::Input) continue;
        const Prov& p = prov_of_operand(op);
        for (const auto& [svar, selem] : p.sources) {
          push_event(svar, selem, /*is_write=*/false, r.line);
        }
        scratch_prov.merge(p);
        if (opts.build_ddg && result_op && op.is_reg() && op.name != SymbolPool::npos) {
          result.complete.add_edge(ddg_reg_node(r.func, op.name),
                                   ddg_reg_node(r.func, result_op->name));
        }
      }
      if (result_op) write_reg(result_op->name, scratch_prov);
      return;
    }

    // Form 2: bind each argument's provenance to the callee's incoming
    // registers arg1..argN (the callee's parameter-binding stores complete
    // the argument -> parameter triplet, cf. Fig. 6(b)). The provenance is
    // read before the callee's frame hides the caller's registers. An absent
    // "argN" symbol means no record anywhere references it — the binding
    // would be dead, and write_reg() skips the sentinel.
    int arg_count = 0;
    for (std::uint32_t i = 0; i < r.op_count; ++i) {
      const PackedOperand& op = ops[i];
      if (op.slot() != OperandSlot::Input) continue;
      if (static_cast<std::size_t>(arg_count) == arg_provs.size()) arg_provs.emplace_back();
      arg_provs[static_cast<std::size_t>(arg_count++)].sources = prov_of_operand(op).sources;
    }
    push_frame(callee->name, result_op ? result_op->name : SymbolPool::npos);
    for (int n = 1; n <= arg_count; ++n) {
      write_reg(arg_id(n), arg_provs[static_cast<std::size_t>(n - 1)]);
    }
  }

  void on_ret(const PackedRecord& r, const PackedOperand* ops) {
    if (frames.size() <= 1) return;
    const PackedOperand* value = trace::find_input(r, ops, 1);
    const std::uint32_t pending = frame().pending_dst;
    // Copied out before pop_frame() restores the callee's slots.
    scratch_prov.sources.clear();
    if (value && pending != SymbolPool::npos) scratch_prov.sources = prov_of_operand(*value).sources;
    pop_frame();
    if (pending == SymbolPool::npos) return;
    if (opts.build_ddg && value && value->is_reg() && value->name != SymbolPool::npos) {
      // Bind the callee's return register to the caller's result register
      // so dependency chains survive function boundaries in the DDG.
      result.complete.add_edge(ddg_reg_node(r.func, value->name),
                               ddg_reg_node(frame().func, pending));
    }
    write_reg(pending, scratch_prov);
  }

  void on_br(const PackedRecord& r, const PackedOperand* ops) {
    // A conditional branch at the MCL header line delimits iterations.
    if (at_header(r) && trace::find_input(r, ops, 1) != nullptr) ++iteration;
  }

  void dispatch(const PackedRecord& r, const PackedOperand* ops) {
    ++idx;
    part = pre.partition.part_of(idx);
    switch (r.opcode) {
      case Opcode::Alloca: on_alloca(r, ops); break;
      case Opcode::Load: on_load(r, ops); break;
      case Opcode::Store: on_store(r, ops); break;
      case Opcode::Call: break;  // handled by the lookahead buffer in add()
      case Opcode::Ret: on_ret(r, ops); break;
      case Opcode::Br: on_br(r, ops); break;
      case Opcode::GetElementPtr:
      case Opcode::BitCast:
        break;  // pointer computations: resolution is by runtime address
      default:
        if (trace::is_arithmetic(r.opcode)) on_arith(r, ops);
        break;
    }
  }

  void add_packed(const PackedRecord& r, const PackedOperand* ops) {
    if (have_pending_call) {
      const PackedOperand* callee = trace::find_operand(pending_rec, pending_ops.data(), OperandSlot::Callee);
      const bool with_body = callee && r.func == callee->name;
      have_pending_call = false;
      dispatch_call(pending_rec, pending_ops.data(), with_body);
    }
    if (r.opcode == Opcode::Call) {
      pending_rec = r;
      pending_ops.assign(ops, ops + r.op_count);
      have_pending_call = true;
      return;
    }
    dispatch(r, ops);
  }

  void add(const trace::RecordView& rec) {
    scratch.records().clear();
    scratch.operands().clear();
    scratch.append(rec);
    add_packed(scratch.records()[0], scratch.operands().data());
  }

  void dispatch_call(const PackedRecord& call, const PackedOperand* ops, bool with_body) {
    ++idx;
    part = pre.partition.part_of(idx);
    on_call(call, ops, with_body);
  }

  DepResult finish() {
    if (have_pending_call) {
      have_pending_call = false;
      dispatch_call(pending_rec, pending_ops.data(), /*with_body=*/false);
    }
    result.iterations = iteration;
    return std::move(result);
  }
};

DepAnalyzer::DepAnalyzer(PreprocessResult& pre, const MclRegion& region, const DepOptions& opts)
    : impl_(new Impl(pre, region, opts)) {
  impl_->bind_streaming();
}

DepAnalyzer::~DepAnalyzer() = default;

void DepAnalyzer::add(const trace::RecordView& rec) { impl_->add(rec); }

DepResult DepAnalyzer::finish() { return impl_->finish(); }

DepResult dep_analysis(const TraceBuffer& buf, PreprocessResult& pre, const MclRegion& region,
                       const DepOptions& opts) {
  DepAnalyzer::Impl impl(pre, region, opts);
  impl.bind_buffer(buf);
  const PackedOperand* ops = buf.operands().data();
  for (const PackedRecord& rec : buf.records()) impl.add_packed(rec, ops + rec.op_offset);
  return impl.finish();
}

}  // namespace ac::analysis
