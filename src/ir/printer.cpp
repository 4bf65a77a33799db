#include "ir/ir.hpp"

#include "support/strings.hpp"

namespace ac::ir {

namespace {

std::string opnd_text(const Function& f, const Module& m, const Opnd& o) {
  switch (o.kind) {
    case Opnd::Kind::None: return "_";
    case Opnd::Kind::Reg: return strf("%%%d", o.reg);
    case Opnd::Kind::ImmI: return strf("%lld", static_cast<long long>(o.imm_i));
    case Opnd::Kind::ImmF: return strf("%g", o.imm_f);
    case Opnd::Kind::Var:
      return o.var_is_global ? "@" + m.global(o.var_slot).name : "$" + f.local(o.var_slot).name;
  }
  return "?";
}

const char* bin_name(BinOp op) {
  switch (op) {
    case BinOp::Add: return "add";
    case BinOp::Sub: return "sub";
    case BinOp::Mul: return "mul";
    case BinOp::Div: return "div";
    case BinOp::Rem: return "rem";
    case BinOp::CmpEQ: return "cmpeq";
    case BinOp::CmpNE: return "cmpne";
    case BinOp::CmpLT: return "cmplt";
    case BinOp::CmpLE: return "cmple";
    case BinOp::CmpGT: return "cmpgt";
    case BinOp::CmpGE: return "cmpge";
  }
  return "?";
}

std::string function_text(const Function& f, const Module& m) {
  std::string out = strf("func %s (params=%d, regs=%d)\n", f.name.c_str(), f.num_params, f.num_regs);
  for (std::size_t i = 0; i < f.locals.size(); ++i) {
    const VarInfo& v = f.locals[i];
    out += strf("  local %zu: %s %s", i, v.elem == TypeKind::F64 ? "double" : "int", v.name.c_str());
    for (auto d : v.dims) out += strf("[%lld]", static_cast<long long>(d));
    if (v.is_pointer_param) out += "[]";
    out += "\n";
  }
  for (std::size_t i = 0; i < f.instrs.size(); ++i) {
    const Instr& in = f.instrs[i];
    out += strf("  %3zu @%-3d ", i, in.line);
    auto op = [&](const Opnd& o) { return opnd_text(f, m, o); };
    switch (in.kind) {
      case IKind::Alloca:
        out += strf("alloca %s", op(Opnd::var(in.var_slot, in.var_is_global)).c_str());
        break;
      case IKind::Load:
        out += strf("%%%d = load %s", in.dst, op(in.a).c_str());
        break;
      case IKind::Store:
        out += strf("store %s -> %s", op(in.a).c_str(), op(in.b).c_str());
        break;
      case IKind::Gep: {
        out += strf("%%%d = gep %s", in.dst, op(in.base).c_str());
        for (std::size_t k = 0; k < in.indices.size(); ++k) {
          out += strf(" [%s x%lld]", op(in.indices[k]).c_str(),
                      static_cast<long long>(in.strides[k]));
        }
        break;
      }
      case IKind::Bin:
        out += strf("%%%d = %s%s %s, %s", in.dst, in.is_float ? "f" : "", bin_name(in.bin),
                    op(in.a).c_str(), op(in.b).c_str());
        break;
      case IKind::Cast:
        out += strf("%%%d = %s %s", in.dst,
                    in.cast == CastKind::SiToFp ? "sitofp" : "fptosi", op(in.a).c_str());
        break;
      case IKind::Br:
        out += strf("br %s ? %d : %d", op(in.a).c_str(), in.t_true, in.t_false);
        break;
      case IKind::Jmp:
        out += strf("jmp %d", in.t_true);
        break;
      case IKind::Call: {
        if (in.dst >= 0) out += strf("%%%d = ", in.dst);
        out += strf("call %s%s(", in.is_builtin ? "@" : "", in.callee.c_str());
        for (std::size_t k = 0; k < in.args.size(); ++k) {
          if (k) out += ", ";
          out += op(in.args[k]);
        }
        out += ")";
        break;
      }
      case IKind::Ret:
        out += in.a.is_none() ? "ret" : strf("ret %s", op(in.a).c_str());
        break;
    }
    out += "\n";
  }
  return out;
}

}  // namespace

std::string print_module(const Module& m) {
  std::string out;
  for (std::size_t i = 0; i < m.globals.size(); ++i) {
    const VarInfo& v = m.globals[i];
    out += strf("global %zu: %s %s", i, v.elem == TypeKind::F64 ? "double" : "int", v.name.c_str());
    for (auto d : v.dims) out += strf("[%lld]", static_cast<long long>(d));
    out += "\n";
  }
  for (const auto& f : m.functions) out += function_text(f, m);
  return out;
}

}  // namespace ac::ir
