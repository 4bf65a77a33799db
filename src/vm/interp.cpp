#include "vm/interp.hpp"

#include <cinttypes>
#include <cmath>

#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::vm {

using trace::Opcode;
using trace::OperandSlot;

namespace {

/// Trace opcode for a Bin instruction.
Opcode bin_opcode(ir::BinOp op, bool is_float) {
  switch (op) {
    case ir::BinOp::Add: return is_float ? Opcode::FAdd : Opcode::Add;
    case ir::BinOp::Sub: return is_float ? Opcode::FSub : Opcode::Sub;
    case ir::BinOp::Mul: return is_float ? Opcode::FMul : Opcode::Mul;
    case ir::BinOp::Div: return is_float ? Opcode::FDiv : Opcode::SDiv;
    case ir::BinOp::Rem: return is_float ? Opcode::FRem : Opcode::SRem;
    default: return is_float ? Opcode::FCmp : Opcode::ICmp;
  }
}

}  // namespace

Interpreter::Interpreter(const ir::Module& module) : module_(module) {
  global_addr_.reserve(module_.globals.size());
  for (const auto& g : module_.globals) {
    global_addr_.push_back(arena_.alloc_global(static_cast<std::uint64_t>(g.bytes())));
  }
  // Site ids: each function's instructions, then its argument-binding
  // stores; the global Allocas after all functions.
  site_base_.reserve(module_.functions.size());
  for (const auto& fn : module_.functions) {
    site_base_.push_back(num_sites_);
    num_sites_ += fn.instrs.size() + static_cast<std::size_t>(fn.num_params);
  }
  num_sites_ += module_.globals.size();
}

// ---------------------------------------------------------------------------
// Trace emission
// ---------------------------------------------------------------------------

void Interpreter::step() {
  ++result_.steps;
  if (result_.steps > opts_->max_steps) throw VmError("step limit exceeded (runaway program?)");
}

void Interpreter::trace_begin(std::size_t site, std::string_view func, int line, Opcode opcode) {
  site_ = &sites_[site];
  building_ = !site_->built;
  if (building_) {
    // First traced execution: intern in func, bb, operand-name order — the
    // operand names as trace_operand adds them.
    trace::SymbolPool& pool = out_->pool();
    trace::PackedRecord& rec = site_->rec;
    rec.func = pool.intern(func);
    rec.bb = pool.intern(strf("%d:0", line));
    rec.line = line;
    rec.opcode = opcode;
    rec.op_offset = static_cast<std::uint32_t>(site_ops_.size());
    rec.op_count = 0;
  }
}

void Interpreter::trace_operand(OperandSlot slot, int index, bool is_reg,
                                const OperandName& name, const Value& v) {
  if (building_) {
    trace::SymbolPool& pool = out_->pool();
    trace::PackedOperand op;
    op.name = name.number < 0 ? pool.intern(name.text)
                              : pool.intern(strf("%s%ld", name.prefix, name.number));
    op.index = index;
    op.flags = trace::PackedOperand::pack_flags(slot, trace::ValueKind::Int, is_reg);
    site_ops_.push_back(op);
    ++site_->rec.op_count;
  }
  PodArray<trace::PackedOperand>& ops = out_->operands();
  trace::PackedOperand op = site_ops_[site_->rec.op_offset + (ops.size() - op_begin_)];
  op.set_value(v);
  ops.push_back(op);
}

void Interpreter::trace_opnd(const Frame& f, const ir::Opnd& o, int index, const Value& v) {
  const bool is_reg = o.kind == ir::Opnd::Kind::Reg || o.kind == ir::Opnd::Kind::Var;
  trace_input(index, v, is_reg, opnd_name(f, o));
}

void Interpreter::trace_end() {
  site_->built = true;
  if (out_->operands().size() > 0xffffffffull) {
    throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
  }
  trace::PackedRecord rec = site_->rec;
  rec.dyn_id = result_.steps - 1;
  rec.op_offset = static_cast<std::uint32_t>(op_begin_);
  out_->records().push_back(rec);
  if (out_ == &staging_) {
    sink_->append(staging_.view(0));
    staging_.records().clear();
    staging_.operands().clear();
  }
  op_begin_ = out_->operands().size();
}

Interpreter::OperandName Interpreter::opnd_name(const Frame& f, const ir::Opnd& o) const {
  switch (o.kind) {
    case ir::Opnd::Kind::Reg: return reg_name(o.reg);
    case ir::Opnd::Kind::Var:
      return {o.var_is_global ? module_.global(o.var_slot).name : f.fn->local(o.var_slot).name};
    default: return {};
  }
}

void Interpreter::emit_global_allocas() {
  // Globals appear in the trace as Alloca records in a synthetic "<global>"
  // function so the analysis can build its address map for them. Without
  // them an access to a global resolves to no variable, and a global that
  // the loop touches only inside callees (FT's, paper §V-B) could never be
  // found MLI by address.
  const std::size_t base = num_sites_ - module_.globals.size();
  for (std::size_t i = 0; i < module_.globals.size(); ++i) {
    const ir::VarInfo& g = module_.globals[i];
    step();
    if (!sink_) continue;
    trace_begin(base + i, "<global>", g.decl_line, Opcode::Alloca);
    trace_input(1, Value::make_int(g.bytes()), false, {});
    trace_result(Value::make_addr(global_addr_[i]), {g.name});
    trace_end();
  }
}

std::uint64_t Interpreter::slot_address(const Frame& f, int slot, bool is_global) const {
  if (is_global) return global_addr_.at(static_cast<std::size_t>(slot));
  const std::uint64_t addr = f.slot_addr.at(static_cast<std::size_t>(slot));
  if (addr == 0) throw VmError("use of local before its alloca: " + f.fn->local(slot).name);
  return addr;
}

Value Interpreter::eval(const Frame& f, const ir::Opnd& o) const {
  switch (o.kind) {
    case ir::Opnd::Kind::Reg: return f.regs.at(static_cast<std::size_t>(o.reg));
    case ir::Opnd::Kind::ImmI: return Value::make_int(o.imm_i);
    case ir::Opnd::Kind::ImmF: return Value::make_float(o.imm_f);
    case ir::Opnd::Kind::Var:
      return Value::make_addr(slot_address(f, o.var_slot, o.var_is_global));
    case ir::Opnd::Kind::None: break;
  }
  throw VmError("evaluating empty operand");
}

// ---------------------------------------------------------------------------
// Frame management
// ---------------------------------------------------------------------------

void Interpreter::push_frame(const ir::Function& fn, const std::vector<Value>& args,
                             int pending_dst) {
  if (frames_.size() > 512) throw VmError("call stack overflow");
  Frame fr;
  fr.fn = &fn;
  fr.site_base = site_base_[static_cast<std::size_t>(&fn - module_.functions.data())];
  fr.slot_addr.assign(fn.locals.size(), 0);
  fr.regs.assign(static_cast<std::size_t>(fn.num_regs), Value{});
  fr.pc = 0;
  fr.stack_mark = arena_.stack_mark();
  fr.pending_dst = pending_dst;
  frames_.push_back(std::move(fr));

  // Execute the prologue allocas (codegen puts every local's Alloca first).
  Frame& f = top();
  while (f.pc < static_cast<int>(fn.instrs.size()) &&
         fn.instrs[static_cast<std::size_t>(f.pc)].kind == ir::IKind::Alloca) {
    exec_alloca(fn.instrs[static_cast<std::size_t>(f.pc)]);
    ++f.pc;
  }

  // Bind arguments: store each incoming value into its parameter slot, which
  // appears in the trace as a Store of register "arg<i>" into the parameter
  // variable — giving the analysis the argument->parameter correlation that
  // complements the Call record's triplets.
  AC_CHECK(args.size() == static_cast<std::size_t>(fn.num_params), "call arity mismatch");
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::uint64_t addr = f.slot_addr[i];
    arena_.write(addr, args[i]);
    step();
    if (!sink_) continue;
    trace_begin(f.site_base + fn.instrs.size() + i, fn.name, fn.decl_line, Opcode::Store);
    trace_input(1, args[i], true, {{}, "arg", static_cast<long>(i + 1)});
    trace_input(2, Value::make_addr(addr), true, {fn.locals[i].name});
    trace_end();
  }
}

void Interpreter::pop_frame(const Value* ret_value) {
  const int pending = top().pending_dst;
  arena_.release_stack(top().stack_mark);
  frames_.pop_back();
  if (!frames_.empty() && pending >= 0) {
    AC_CHECK(ret_value != nullptr, "non-void call returned no value");
    top().regs.at(static_cast<std::size_t>(pending)) = *ret_value;
  }
}

// ---------------------------------------------------------------------------
// Instruction execution
// ---------------------------------------------------------------------------

void Interpreter::exec_alloca(const ir::Instr& in) {
  Frame& f = top();
  const ir::VarInfo& v = f.fn->local(in.var_slot);
  const std::uint64_t addr = arena_.alloc_stack(static_cast<std::uint64_t>(v.bytes()));
  f.slot_addr[static_cast<std::size_t>(in.var_slot)] = addr;
  result_.peak_memory = std::max(result_.peak_memory, arena_.peak_bytes());

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Alloca);
  trace_input(1, Value::make_int(v.bytes()), false, {});
  trace_result(Value::make_addr(addr), {v.name});
  trace_end();
}

void Interpreter::exec_load(const ir::Instr& in) {
  Frame& f = top();
  const Value ptr = eval(f, in.a);
  if (!ptr.is_addr()) throw VmError("load through a non-pointer value");
  const Value v = arena_.read(ptr.addr);
  f.regs.at(static_cast<std::size_t>(in.dst)) = v;

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Load);
  trace_opnd(f, in.a, 1, ptr);
  trace_result(v, reg_name(in.dst));
  trace_end();
}

void Interpreter::exec_store(const ir::Instr& in) {
  Frame& f = top();
  const Value v = eval(f, in.a);
  const Value ptr = eval(f, in.b);
  if (!ptr.is_addr()) throw VmError("store through a non-pointer value");
  arena_.write(ptr.addr, v);

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Store);
  trace_opnd(f, in.a, 1, v);
  trace_opnd(f, in.b, 2, ptr);
  trace_end();
}

void Interpreter::exec_gep(const ir::Instr& in) {
  Frame& f = top();
  const Value base = eval(f, in.base);
  if (!base.is_addr()) throw VmError("gep on a non-pointer base");
  std::int64_t elem_offset = 0;
  for (std::size_t i = 0; i < in.indices.size(); ++i) {
    const Value idx = eval(f, in.indices[i]);
    if (!idx.is_int()) throw VmError("non-integer array subscript");
    elem_offset += idx.i * in.strides[i];
  }
  const std::uint64_t addr =
      base.addr + static_cast<std::uint64_t>(elem_offset) * kCellBytes;
  f.regs.at(static_cast<std::size_t>(in.dst)) = Value::make_addr(addr);

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::GetElementPtr);
  trace_opnd(f, in.base, 1, base);
  for (std::size_t i = 0; i < in.indices.size(); ++i) {
    // Re-evaluated rather than kept: operands are side-effect free, and
    // untraced runs then need no index vector.
    trace_input(static_cast<int>(i) + 2, eval(f, in.indices[i]),
                in.indices[i].kind == ir::Opnd::Kind::Reg, opnd_name(f, in.indices[i]));
  }
  trace_result(Value::make_addr(addr), reg_name(in.dst));
  trace_end();
}

void Interpreter::exec_bin(const ir::Instr& in) {
  Frame& f = top();
  const Value a = eval(f, in.a);
  const Value b = eval(f, in.b);
  Value out;

  if (in.is_float) {
    const double x = a.as_f64();
    const double y = b.as_f64();
    switch (in.bin) {
      case ir::BinOp::Add: out = Value::make_float(x + y); break;
      case ir::BinOp::Sub: out = Value::make_float(x - y); break;
      case ir::BinOp::Mul: out = Value::make_float(x * y); break;
      case ir::BinOp::Div:
        if (y == 0.0) throw VmError(strf("float division by zero at line %d", in.line));
        out = Value::make_float(x / y);
        break;
      case ir::BinOp::Rem:
        if (y == 0.0) throw VmError(strf("float remainder by zero at line %d", in.line));
        out = Value::make_float(std::fmod(x, y));
        break;
      case ir::BinOp::CmpEQ: out = Value::make_int(x == y); break;
      case ir::BinOp::CmpNE: out = Value::make_int(x != y); break;
      case ir::BinOp::CmpLT: out = Value::make_int(x < y); break;
      case ir::BinOp::CmpLE: out = Value::make_int(x <= y); break;
      case ir::BinOp::CmpGT: out = Value::make_int(x > y); break;
      case ir::BinOp::CmpGE: out = Value::make_int(x >= y); break;
    }
  } else {
    if (a.is_addr() || b.is_addr()) throw VmError(strf("pointer arithmetic at line %d", in.line));
    const std::int64_t x = a.as_i64();
    const std::int64_t y = b.as_i64();
    switch (in.bin) {
      case ir::BinOp::Add: out = Value::make_int(x + y); break;
      case ir::BinOp::Sub: out = Value::make_int(x - y); break;
      case ir::BinOp::Mul: out = Value::make_int(x * y); break;
      case ir::BinOp::Div:
        if (y == 0) throw VmError(strf("integer division by zero at line %d", in.line));
        out = Value::make_int(x / y);
        break;
      case ir::BinOp::Rem:
        if (y == 0) throw VmError(strf("integer remainder by zero at line %d", in.line));
        out = Value::make_int(x % y);
        break;
      case ir::BinOp::CmpEQ: out = Value::make_int(x == y); break;
      case ir::BinOp::CmpNE: out = Value::make_int(x != y); break;
      case ir::BinOp::CmpLT: out = Value::make_int(x < y); break;
      case ir::BinOp::CmpLE: out = Value::make_int(x <= y); break;
      case ir::BinOp::CmpGT: out = Value::make_int(x > y); break;
      case ir::BinOp::CmpGE: out = Value::make_int(x >= y); break;
    }
  }
  f.regs.at(static_cast<std::size_t>(in.dst)) = out;

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line, bin_opcode(in.bin, in.is_float));
  trace_opnd(f, in.a, 1, a);
  trace_opnd(f, in.b, 2, b);
  trace_result(out, reg_name(in.dst));
  trace_end();
}

void Interpreter::exec_cast(const ir::Instr& in) {
  Frame& f = top();
  const Value a = eval(f, in.a);
  Value out;
  if (in.cast == ir::CastKind::SiToFp) {
    out = Value::make_float(static_cast<double>(a.as_i64()));
  } else {
    out = Value::make_int(static_cast<std::int64_t>(a.as_f64()));
  }
  f.regs.at(static_cast<std::size_t>(in.dst)) = out;

  step();
  if (!sink_) return;
  trace_begin(instr_site(f, in), f.fn->name, in.line,
              in.cast == ir::CastKind::SiToFp ? Opcode::SIToFP : Opcode::FPToSI);
  trace_opnd(f, in.a, 1, a);
  trace_result(out, reg_name(in.dst));
  trace_end();
}

void Interpreter::exec_br(const ir::Instr& in) {
  Frame& f = top();

  if (in.kind == ir::IKind::Jmp) {
    step();
    if (sink_) {
      trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Br);
      trace_end();
    }
    f.pc = in.t_true;
    return;
  }

  // Conditional branch at the MCL header line == an iteration boundary.
  const bool is_header = f.fn == mcl_fn_ && in.line == mcl_line_;
  if (is_header) on_header_evaluation();

  const Value cond = eval(f, in.a);
  step();
  if (sink_) {
    trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Br);
    trace_opnd(f, in.a, 1, cond);
    trace_end();
  }

  const bool taken =
      cond.is_float() ? cond.f != 0.0 : (cond.is_addr() ? cond.addr != 0 : cond.i != 0);
  if (is_header && taken) ++result_.iterations_started;
  f.pc = taken ? in.t_true : in.t_false;
}

void Interpreter::exec_call(const ir::Instr& in) {
  Frame& f = top();
  std::vector<Value> args;
  args.reserve(in.args.size());
  for (const auto& a : in.args) args.push_back(eval(f, a));

  // Callee row plus one input row per argument — the head both call forms
  // of Fig. 6 share.
  const auto trace_head = [&] {
    trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Call);
    trace_operand(OperandSlot::Callee, 0, false, {in.callee}, Value::make_addr(0));
    for (std::size_t i = 0; i < args.size(); ++i) {
      const ir::Opnd& a = in.args[i];
      trace_input(static_cast<int>(i) + 1, args[i],
                  a.kind != ir::Opnd::Kind::ImmI && a.kind != ir::Opnd::Kind::ImmF,
                  opnd_name(f, a));
    }
  };

  if (in.is_builtin) {
    const std::optional<Value> ret = run_builtin(in, args);
    if (ret) {
      AC_CHECK(in.dst >= 0, "builtin result dropped");
      f.regs.at(static_cast<std::size_t>(in.dst)) = *ret;
    }
    step();
    if (!sink_) return;
    trace_head();
    if (ret) trace_result(*ret, reg_name(in.dst));
    trace_end();
    return;
  }

  AC_CHECK(in.callee_index >= 0 &&
               static_cast<std::size_t>(in.callee_index) < module_.functions.size(),
           "call to unknown function " + in.callee);
  const ir::Function& callee = module_.functions[static_cast<std::size_t>(in.callee_index)];

  // Call form 2 (Fig. 6(b)): argument operands followed by parameter
  // indicator rows binding each argument value to the formal parameter name,
  // plus a result row naming the destination register. Its value is a
  // placeholder 0, since the callee has not run yet; the analysis binds the
  // callee's returned value to that register at the matching Ret.
  step();
  if (sink_) {
    trace_head();
    for (std::size_t i = 0; i < args.size(); ++i) {
      trace_operand(OperandSlot::Param, 0, true, {callee.locals[i].name}, args[i]);
    }
    if (in.dst >= 0) trace_result(Value::make_int(0), reg_name(in.dst));
    trace_end();
  }

  // Inside the callee the incoming values are registers arg1..argN (the
  // binding stores push_frame traces).
  push_frame(callee, args, in.dst);
}

std::optional<Value> Interpreter::run_builtin(const ir::Instr& in,
                                              const std::vector<Value>& args) {
  auto f1 = [&](double (*fn)(double)) { return Value::make_float(fn(args.at(0).as_f64())); };
  switch (in.builtin) {
    case ir::Builtin::Sqrt: return f1(std::sqrt);
    case ir::Builtin::Fabs: return f1(std::fabs);
    case ir::Builtin::Exp: return f1(std::exp);
    case ir::Builtin::Log: return f1(std::log);
    case ir::Builtin::Sin: return f1(std::sin);
    case ir::Builtin::Cos: return f1(std::cos);
    case ir::Builtin::Floor: return f1(std::floor);
    case ir::Builtin::Pow:
      return Value::make_float(std::pow(args.at(0).as_f64(), args.at(1).as_f64()));
    case ir::Builtin::Timer:
      // Deterministic monotonically increasing pseudo-time, so benchmarks that
      // accumulate timers (HPCCG's t1..t3, miniAMR's timer block) reproduce
      // bit-identical traces on every run.
      timer_counter_ += 0.001;
      return Value::make_float(timer_counter_);
    case ir::Builtin::PrintInt:
      result_.output += strf("%" PRId64 "\n", args.at(0).as_i64());
      return std::nullopt;
    case ir::Builtin::PrintFloat:
      result_.output += strf("%.6f\n", args.at(0).as_f64());
      return std::nullopt;
  }
  throw VmError("unknown builtin: " + in.callee);
}

void Interpreter::exec_ret(const ir::Instr& in) {
  Frame& f = top();
  const bool has_value = !in.a.is_none();
  const Value v = has_value ? eval(f, in.a) : Value{};
  step();
  if (sink_) {
    trace_begin(instr_site(f, in), f.fn->name, in.line, Opcode::Ret);
    if (has_value) trace_opnd(f, in.a, 1, v);
    trace_end();
  }
  if (!has_value) {
    pop_frame(nullptr);
    return;
  }
  if (frames_.size() == 1) result_.exit_code = v.as_i64();
  pop_frame(&v);
}

void Interpreter::exec_instr(const ir::Instr& in) {
  switch (in.kind) {
    case ir::IKind::Alloca: exec_alloca(in); break;
    case ir::IKind::Load: exec_load(in); break;
    case ir::IKind::Store: exec_store(in); break;
    case ir::IKind::Gep: exec_gep(in); break;
    case ir::IKind::Bin: exec_bin(in); break;
    case ir::IKind::Cast: exec_cast(in); break;
    case ir::IKind::Br:
    case ir::IKind::Jmp: exec_br(in); break;
    case ir::IKind::Call: exec_call(in); break;
    case ir::IKind::Ret: exec_ret(in); break;
  }
}

// ---------------------------------------------------------------------------
// MCL instrumentation
// ---------------------------------------------------------------------------

std::vector<ckpt::ProtectedRegion>
Interpreter::resolve_protected(const std::vector<std::string>& names) const {
  // Resolution scope: the MCL host function's live frame, then globals —
  // the same scope in which the paper inserts FTI_Protect calls.
  const Frame& f = frames_.back();
  std::vector<ckpt::ProtectedRegion> out;
  for (const auto& name : names) {
    bool found = false;
    for (std::size_t slot = 0; slot < f.fn->locals.size(); ++slot) {
      if (f.fn->locals[slot].name == name) {
        out.push_back({name, f.slot_addr[slot],
                       static_cast<std::uint64_t>(f.fn->locals[slot].bytes())});
        found = true;
        break;
      }
    }
    if (!found) {
      for (std::size_t g = 0; g < module_.globals.size(); ++g) {
        if (module_.globals[g].name == name) {
          out.push_back({name, global_addr_[g],
                         static_cast<std::uint64_t>(module_.globals[g].bytes())});
          found = true;
          break;
        }
      }
    }
    if (!found) throw CheckpointError("cannot resolve protected variable: " + name);
  }
  return out;
}

void Interpreter::apply_restore(const ckpt::CheckpointImage& img) {
  for (const auto& snap : img.vars()) {
    const ckpt::ProtectedRegion region = resolve_protected({snap.name}).front();
    if (snap.cells.size() * kCellBytes != region.bytes) {
      throw CheckpointError("size mismatch restoring variable: " + snap.name);
    }
    for (std::size_t i = 0; i < snap.cells.size(); ++i) {
      arena_.write_raw(region.addr + i * kCellBytes,
                       Arena::RawCell{snap.cells[i].payload,
                                      static_cast<ValueKind>(snap.cells[i].kind)});
    }
  }
}

ckpt::MachineState Interpreter::machine_state() const {
  ckpt::MachineState st;
  st.arena_bytes = arena_.bytes_in_use();
  st.num_frames = frames_.size();
  for (const auto& f : frames_) {
    st.total_regs += f.regs.size();
    st.total_slots += f.slot_addr.size();
  }
  return st;
}

void Interpreter::on_header_evaluation() {
  // Restore normally fires before the condition loads (see run()); this is
  // the fallback for degenerate headers without loads.
  if (opts_->restore && !restored_) {
    apply_restore(*opts_->restore);
    restored_ = true;
    ++iteration_;
    return;
  }

  ++iteration_;
  const bool completed_an_iteration = iteration_ >= 2;

  if (completed_an_iteration && opts_->on_machine_state) {
    opts_->on_machine_state(machine_state());
  }
  if (completed_an_iteration && opts_->engine) {
    if (!engine_regions_bound_) {
      engine_regions_ = resolve_protected(opts_->engine->protected_names());
      engine_regions_bound_ = true;
    }
    opts_->engine->on_iteration(iteration_ - 1, arena_, engine_regions_);
  }
  if (opts_->fail_at_iteration > 0 && iteration_ == opts_->fail_at_iteration) {
    throw FailStop{iteration_};
  }
}

// ---------------------------------------------------------------------------
// Top-level run loop
// ---------------------------------------------------------------------------

RunResult Interpreter::run(const RunOptions& opts) {
  // One coarse span per run plus a bulk instruction-counter update at the
  // end — the dispatch loop itself stays free of instrumentation.
  AC_SPAN("vm.run");
  opts_ = &opts;
  result_ = RunResult{};
  sink_ = opts.sink;
  if (sink_) {
    sites_.assign(num_sites_, SiteTemplate{});
    out_ = sink_->target() ? sink_->target() : &staging_;
    op_begin_ = out_->operands().size();
  }
  mcl_fn_ = opts.mcl ? module_.find_function(opts.mcl->function) : nullptr;
  mcl_line_ = opts.mcl ? opts.mcl->begin_line : 0;
  const ir::Function* main_fn = module_.find_function("main");
  if (!main_fn) throw VmError("module has no main()");
  if (main_fn->num_params != 0) throw VmError("main() must take no parameters");

  try {
    emit_global_allocas();
    push_frame(*main_fn, {}, -1);
    while (!frames_.empty()) {
      Frame& f = top();
      AC_CHECK(f.pc >= 0 && f.pc < static_cast<int>(f.fn->instrs.size()),
               "pc out of range in " + f.fn->name);
      const ir::Instr& in = f.fn->instrs[static_cast<std::size_t>(f.pc)];

      // Restart path: apply the checkpoint the first time execution reaches
      // the loop header — after the (constant) loop-init store, but *before*
      // the condition loads, so the restored induction value governs whether
      // the loop body runs at all. This is the paper's "reading checkpoints
      // ... right before the main computation loop" insertion point (§II-B).
      if (opts_->restore && !restored_ && f.fn == mcl_fn_ && in.line == mcl_line_ &&
          in.kind != ir::IKind::Store && in.kind != ir::IKind::Alloca) {
        apply_restore(*opts_->restore);
        restored_ = true;
      }

      ++f.pc;  // control-flow instructions overwrite pc below
      exec_instr(in);
    }
  } catch (const FailStop& fs) {
    result_.failed = true;
    result_.iterations_started = fs.iteration - 1;
  } catch (...) {
    // A record cut short by a throw leaves none of its operands behind.
    if (out_) out_->operands().resize(op_begin_);
    throw;
  }
  result_.peak_memory = std::max(result_.peak_memory, arena_.peak_bytes());
  static auto& instrs = telemetry::metrics().counter("vm.instructions");
  instrs.add(result_.steps);
  return result_;
}

RunResult run_module(const ir::Module& module, const RunOptions& opts) {
  Interpreter interp(module);
  return interp.run(opts);
}

}  // namespace ac::vm
