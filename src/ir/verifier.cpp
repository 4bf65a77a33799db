#include "ir/ir.hpp"

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::ir {

namespace {

class FunctionVerifier {
 public:
  FunctionVerifier(const Module& m, const Function& f) : m_(m), f_(f) {}

  void run() {
    defined_.assign(static_cast<std::size_t>(f_.num_regs), false);
    for (std::size_t i = 0; i < f_.instrs.size(); ++i) check_instr(i, f_.instrs[i]);
    if (f_.instrs.empty() || f_.instrs.back().kind != IKind::Ret) {
      fail("function must end with Ret");
    }
  }

 private:
  const Module& m_;
  const Function& f_;
  std::vector<bool> defined_;

  [[noreturn]] void fail(const std::string& msg) {
    throw Error(strf("verify %s: %s", f_.name.c_str(), msg.c_str()));
  }

  void check_var(int slot, bool is_global) {
    if (is_global) {
      if (slot < 0 || slot >= static_cast<int>(m_.globals.size())) fail("global slot out of range");
    } else {
      if (slot < 0 || slot >= static_cast<int>(f_.locals.size())) fail("local slot out of range");
    }
  }

  void check_use(const Opnd& o) {
    switch (o.kind) {
      case Opnd::Kind::Reg:
        if (o.reg < 0 || o.reg >= f_.num_regs) fail("register out of range");
        if (!defined_[static_cast<std::size_t>(o.reg)]) fail(strf("use of %%%d before def", o.reg));
        break;
      case Opnd::Kind::Var:
        check_var(o.var_slot, o.var_is_global);
        break;
      default:
        break;
    }
  }

  void define(int reg) {
    if (reg < 0 || reg >= f_.num_regs) fail("def register out of range");
    if (defined_[static_cast<std::size_t>(reg)]) fail(strf("register %%%d defined twice", reg));
    defined_[static_cast<std::size_t>(reg)] = true;
  }

  void check_target(int t) {
    if (t < 0 || t >= static_cast<int>(f_.instrs.size())) fail("branch target out of range");
  }

  void check_instr(std::size_t idx, const Instr& in) {
    (void)idx;
    switch (in.kind) {
      case IKind::Alloca:
        check_var(in.var_slot, in.var_is_global);
        if (in.var_is_global) fail("Alloca of a global");
        break;
      case IKind::Load:
        check_use(in.a);
        if (in.a.is_none()) fail("Load without address");
        define(in.dst);
        break;
      case IKind::Store:
        check_use(in.a);
        check_use(in.b);
        if (in.b.is_none()) fail("Store without address");
        break;
      case IKind::Gep: {
        check_use(in.base);
        if (in.indices.size() != in.strides.size()) fail("Gep indices/strides mismatch");
        for (const auto& ix : in.indices) check_use(ix);
        define(in.dst);
        break;
      }
      case IKind::Bin:
        check_use(in.a);
        check_use(in.b);
        define(in.dst);
        break;
      case IKind::Cast:
        check_use(in.a);
        define(in.dst);
        break;
      case IKind::Br:
        check_use(in.a);
        check_target(in.t_true);
        check_target(in.t_false);
        break;
      case IKind::Jmp:
        check_target(in.t_true);
        break;
      case IKind::Call: {
        for (const auto& a : in.args) check_use(a);
        if (in.is_builtin) {
          if (builtin_name(in.builtin) != in.callee) fail("call to unknown builtin " + in.callee);
        } else if (in.callee_index < 0 ||
                   static_cast<std::size_t>(in.callee_index) >= m_.functions.size() ||
                   m_.functions[static_cast<std::size_t>(in.callee_index)].name != in.callee) {
          fail("call to unknown function " + in.callee);
        }
        if (in.dst >= 0) define(in.dst);
        break;
      }
      case IKind::Ret:
        if (!in.a.is_none()) check_use(in.a);
        break;
    }
  }
};

}  // namespace

void verify_module(const Module& m) {
  if (!m.find_function("main")) throw Error("verify: module has no main function");
  for (const auto& f : m.functions) FunctionVerifier(m, f).run();
}

}  // namespace ac::ir
