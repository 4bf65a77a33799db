#include "minic/codegen.hpp"

#include <map>

#include "support/error.hpp"
#include "support/strings.hpp"

namespace ac::minic {

const BuiltinSig* find_builtin(const std::string& name) {
  // The list's type names, as spelled in AC_BUILTINS_LIST.
  constexpr Ty Void = Ty::Void, Int = Ty::Int, Double = Ty::Double;
  static const std::map<std::string, BuiltinSig> table = {
#define AC_BUILTIN_SIG(Id, name, ret, ...) {#name, {ir::Builtin::Id, ret, {__VA_ARGS__}}},
      AC_BUILTINS_LIST(AC_BUILTIN_SIG)
#undef AC_BUILTIN_SIG
  };
  auto it = table.find(name);
  return it == table.end() ? nullptr : &it->second;
}

namespace {

using ir::Instr;
using ir::IKind;
using ir::Opnd;

ir::TypeKind to_elem(Ty t) { return t == Ty::Double ? ir::TypeKind::F64 : ir::TypeKind::I64; }

/// A typed rvalue produced by expression codegen.
struct TypedVal {
  Opnd opnd;
  Ty type = Ty::Int;
  bool is_array_name = false;  // array decay value (only legal as a call arg)
  // for array-name values:
  int var_slot = -1;
  bool var_is_global = false;
  bool is_pointer_param = false;
};

/// Where a resolved identifier lives.
struct Binding {
  bool is_global = false;
  int slot = -1;
  const ir::VarInfo* info = nullptr;
};

class FuncCodegen {
 public:
  FuncCodegen(const Program& prog, const FuncDecl& fn, ir::Module& mod,
              const std::map<std::string, int>& global_slots)
      : prog_(prog), fn_(fn), mod_(mod), global_slots_(global_slots) {}

  ir::Function run() {
    out_.name = fn_.name;
    out_.decl_line = fn_.line;
    out_.returns_void = fn_.return_type == Ty::Void;
    out_.returns_float = fn_.return_type == Ty::Double;

    scopes_.emplace_back();
    for (const auto& p : fn_.params) {
      ir::VarInfo v;
      v.name = p.name;
      v.elem = to_elem(p.type);
      v.is_pointer_param = p.is_array;
      v.decl_line = p.line;
      const int slot = static_cast<int>(out_.locals.size());
      if (!scopes_.back().emplace(p.name, slot).second) {
        fail(p.line, "duplicate parameter '" + p.name + "'");
      }
      out_.locals.push_back(v);
    }
    out_.num_params = static_cast<int>(fn_.params.size());

    // Hoist all allocas (params + every declared local) to function entry,
    // like clang -O0; the paper's Challenge-2 relies on locals being
    // introduced by Alloca records at call entry.
    collect_locals(*fn_.body);
    for (int slot = 0; slot < static_cast<int>(out_.locals.size()); ++slot) {
      Instr in;
      in.kind = IKind::Alloca;
      in.line = out_.locals[static_cast<std::size_t>(slot)].decl_line;
      in.var_slot = slot;
      emit(std::move(in));
    }

    gen_stmt(*fn_.body);

    // Implicit return for void functions / fallthrough. A non-void function
    // falling off the end returns 0 (traps are not worth modelling here).
    Instr ret;
    ret.kind = IKind::Ret;
    ret.line = fn_.line;
    if (!out_.returns_void) {
      ret.a = out_.returns_float ? Opnd::imm_float(0.0) : Opnd::imm_int(0);
    }
    emit(std::move(ret));
    return std::move(out_);
  }

 private:
  const Program& prog_;
  const FuncDecl& fn_;
  ir::Module& mod_;
  const std::map<std::string, int>& global_slots_;
  ir::Function out_;

  std::vector<std::map<std::string, int>> scopes_;
  std::vector<std::vector<int>> break_patches_;
  std::vector<std::vector<int>> continue_patches_;

  [[noreturn]] void fail(int line, const std::string& msg) {
    throw CompileError(strf("line %d: in %s: %s", line, fn_.name.c_str(), msg.c_str()));
  }

  int emit(Instr in) {
    out_.instrs.push_back(std::move(in));
    return static_cast<int>(out_.instrs.size()) - 1;
  }

  int new_reg() { return out_.num_regs++; }

  int here() const { return static_cast<int>(out_.instrs.size()); }

  // -- local collection (pre-pass, same walk order as gen_stmt) -------------

  void collect_locals(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Decl: {
        ir::VarInfo v;
        v.name = s.name;
        v.elem = to_elem(s.decl_type);
        v.dims.assign(s.dims.begin(), s.dims.end());
        v.decl_line = s.line;
        out_.locals.push_back(v);
        break;
      }
      case StmtKind::Block:
        for (const auto& child : s.body) collect_locals(*child);
        break;
      case StmtKind::If:
        collect_locals(*s.then_branch);
        if (s.else_branch) collect_locals(*s.else_branch);
        break;
      case StmtKind::While:
        collect_locals(*s.loop_body);
        break;
      case StmtKind::For:
        if (s.for_init) collect_locals(*s.for_init);
        collect_locals(*s.loop_body);
        break;
      default:
        break;
    }
  }

  // -- name resolution -------------------------------------------------------

  Binding resolve(int line, const std::string& name) {
    for (auto it = scopes_.rbegin(); it != scopes_.rend(); ++it) {
      auto found = it->find(name);
      if (found != it->end()) {
        Binding b;
        b.slot = found->second;
        b.info = &out_.locals[static_cast<std::size_t>(found->second)];
        return b;
      }
    }
    auto g = global_slots_.find(name);
    if (g != global_slots_.end()) {
      Binding b;
      b.is_global = true;
      b.slot = g->second;
      b.info = &mod_.globals[static_cast<std::size_t>(g->second)];
      return b;
    }
    fail(line, "use of undeclared identifier '" + name + "'");
  }

  Ty elem_ty(const ir::VarInfo& v) const {
    return v.elem == ir::TypeKind::F64 ? Ty::Double : Ty::Int;
  }

  // -- conversions -----------------------------------------------------------

  TypedVal coerce(TypedVal v, Ty want, int line) {
    if (v.is_array_name) fail(line, "array used as a value");
    if (v.type == want) return v;
    if (want == Ty::Void) fail(line, "cannot convert to void");
    // Fold immediates without emitting a cast.
    if (v.opnd.kind == Opnd::Kind::ImmI && want == Ty::Double) {
      v.opnd = Opnd::imm_float(static_cast<double>(v.opnd.imm_i));
      v.type = Ty::Double;
      return v;
    }
    if (v.opnd.kind == Opnd::Kind::ImmF && want == Ty::Int) {
      v.opnd = Opnd::imm_int(static_cast<std::int64_t>(v.opnd.imm_f));
      v.type = Ty::Int;
      return v;
    }
    Instr in;
    in.kind = IKind::Cast;
    in.line = line;
    in.cast = want == Ty::Double ? ir::CastKind::SiToFp : ir::CastKind::FpToSi;
    in.a = v.opnd;
    in.dst = new_reg();
    emit(std::move(in));
    TypedVal out;
    out.opnd = Opnd::make_reg(out_.instrs.back().dst);
    out.type = want;
    return out;
  }

  // -- lvalue addressing ------------------------------------------------------

  /// Computes the address for an assignment target / array element.
  /// For scalars returns a direct Var operand; for elements a Gep result reg.
  struct LValue {
    Opnd addr;  // Var (scalar) or Reg (gep result)
    Ty type = Ty::Int;
  };

  LValue gen_lvalue(const Expr& e) {
    if (e.kind == ExprKind::VarRef) {
      Binding b = resolve(e.line, e.name);
      if (b.info->is_array() || b.info->is_pointer_param) {
        fail(e.line, "cannot assign to array '" + e.name + "' without a subscript");
      }
      LValue lv;
      lv.addr = Opnd::var(b.slot, b.is_global);
      lv.type = elem_ty(*b.info);
      return lv;
    }
    if (e.kind == ExprKind::Index) {
      return gen_element_addr(e);
    }
    fail(e.line, "expression is not assignable");
  }

  LValue gen_element_addr(const Expr& e) {
    Binding b = resolve(e.line, e.name);
    const ir::VarInfo& v = *b.info;
    LValue lv;
    lv.type = elem_ty(v);

    std::vector<Opnd> indices;
    for (const auto& sub : e.args) {
      TypedVal idx = coerce(gen_expr(*sub), Ty::Int, sub->line);
      indices.push_back(idx.opnd);
    }

    Instr gep;
    gep.kind = IKind::Gep;
    gep.line = e.line;
    if (v.is_pointer_param) {
      if (indices.size() != 1) fail(e.line, "pointer parameter '" + e.name + "' takes one subscript");
      // Load the pointer value, then index through it.
      Instr ld;
      ld.kind = IKind::Load;
      ld.line = e.line;
      ld.a = Opnd::var(b.slot, b.is_global);
      ld.dst = new_reg();
      const int preg = ld.dst;
      emit(std::move(ld));
      gep.base = Opnd::make_reg(preg);
      gep.strides = {1};
    } else {
      if (!v.is_array()) fail(e.line, "subscript on non-array '" + e.name + "'");
      if (indices.size() != v.dims.size()) {
        fail(e.line, strf("'%s' needs %zu subscripts, got %zu", e.name.c_str(), v.dims.size(),
                          indices.size()));
      }
      gep.base = Opnd::var(b.slot, b.is_global);
      gep.strides.resize(indices.size());
      std::int64_t stride = 1;
      for (std::size_t i = indices.size(); i-- > 0;) {
        gep.strides[i] = stride;
        stride *= v.dims[i];
      }
    }
    gep.indices = std::move(indices);
    gep.dst = new_reg();
    const int areg = gep.dst;
    emit(std::move(gep));
    lv.addr = Opnd::make_reg(areg);
    return lv;
  }

  // -- expressions ------------------------------------------------------------

  TypedVal gen_expr(const Expr& e) {
    switch (e.kind) {
      case ExprKind::IntLit: {
        TypedVal v;
        v.opnd = Opnd::imm_int(e.int_val);
        v.type = Ty::Int;
        return v;
      }
      case ExprKind::FloatLit: {
        TypedVal v;
        v.opnd = Opnd::imm_float(e.float_val);
        v.type = Ty::Double;
        return v;
      }
      case ExprKind::VarRef: {
        Binding b = resolve(e.line, e.name);
        if (b.info->is_array() || b.info->is_pointer_param) {
          // Array decay: only meaningful as a call argument; gen_call handles it.
          TypedVal v;
          v.is_array_name = true;
          v.var_slot = b.slot;
          v.var_is_global = b.is_global;
          v.is_pointer_param = b.info->is_pointer_param;
          v.type = elem_ty(*b.info);
          return v;
        }
        Instr ld;
        ld.kind = IKind::Load;
        ld.line = e.line;
        ld.a = Opnd::var(b.slot, b.is_global);
        ld.dst = new_reg();
        const int reg = ld.dst;
        emit(std::move(ld));
        TypedVal v;
        v.opnd = Opnd::make_reg(reg);
        v.type = elem_ty(*b.info);
        return v;
      }
      case ExprKind::Index: {
        LValue lv = gen_element_addr(e);
        Instr ld;
        ld.kind = IKind::Load;
        ld.line = e.line;
        ld.a = lv.addr;
        ld.dst = new_reg();
        const int reg = ld.dst;
        emit(std::move(ld));
        TypedVal v;
        v.opnd = Opnd::make_reg(reg);
        v.type = lv.type;
        return v;
      }
      case ExprKind::Unary:
        return gen_unary(e);
      case ExprKind::Binary:
        return gen_binary(e);
      case ExprKind::Assign:
        return gen_assign(e);
      case ExprKind::Call:
        return gen_call(e);
    }
    fail(e.line, "internal: unhandled expression kind");
  }

  TypedVal gen_unary(const Expr& e) {
    TypedVal v = gen_expr(*e.lhs);
    if (v.is_array_name) fail(e.line, "array used as a value");
    if (e.un == UnOp::Neg) {
      Instr in;
      in.kind = IKind::Bin;
      in.line = e.line;
      in.bin = ir::BinOp::Sub;
      in.is_float = v.type == Ty::Double;
      in.a = in.is_float ? Opnd::imm_float(0.0) : Opnd::imm_int(0);
      in.b = v.opnd;
      in.dst = new_reg();
      const int reg = in.dst;
      emit(std::move(in));
      TypedVal out;
      out.opnd = Opnd::make_reg(reg);
      out.type = v.type;
      return out;
    }
    // !x  ==>  x == 0
    Instr in;
    in.kind = IKind::Bin;
    in.line = e.line;
    in.bin = ir::BinOp::CmpEQ;
    in.is_float = v.type == Ty::Double;
    in.a = v.opnd;
    in.b = in.is_float ? Opnd::imm_float(0.0) : Opnd::imm_int(0);
    in.dst = new_reg();
    const int reg = in.dst;
    emit(std::move(in));
    TypedVal out;
    out.opnd = Opnd::make_reg(reg);
    out.type = Ty::Int;
    return out;
  }

  /// Normalize a value to int 0/1 (for && / ||).
  TypedVal to_bool(TypedVal v, int line) {
    if (v.is_array_name) fail(line, "array used in a condition");
    Instr in;
    in.kind = IKind::Bin;
    in.line = line;
    in.bin = ir::BinOp::CmpNE;
    in.is_float = v.type == Ty::Double;
    in.a = v.opnd;
    in.b = in.is_float ? Opnd::imm_float(0.0) : Opnd::imm_int(0);
    in.dst = new_reg();
    const int reg = in.dst;
    emit(std::move(in));
    TypedVal out;
    out.opnd = Opnd::make_reg(reg);
    out.type = Ty::Int;
    return out;
  }

  TypedVal gen_binary(const Expr& e) {
    if (e.bin == BinaryOp::And || e.bin == BinaryOp::Or) {
      // Eager evaluation (no short-circuit), documented in docs/minic.md.
      TypedVal l = to_bool(gen_expr(*e.lhs), e.line);
      TypedVal r = to_bool(gen_expr(*e.rhs), e.line);
      Instr in;
      in.kind = IKind::Bin;
      in.line = e.line;
      in.a = l.opnd;
      in.b = r.opnd;
      in.dst = new_reg();
      const int reg = in.dst;
      if (e.bin == BinaryOp::And) {
        in.bin = ir::BinOp::Mul;  // both 0/1: a&&b == a*b
        emit(std::move(in));
        TypedVal out;
        out.opnd = Opnd::make_reg(reg);
        out.type = Ty::Int;
        return out;
      }
      in.bin = ir::BinOp::Add;  // a||b == (a+b) != 0
      emit(std::move(in));
      Instr ne;
      ne.kind = IKind::Bin;
      ne.line = e.line;
      ne.bin = ir::BinOp::CmpNE;
      ne.a = Opnd::make_reg(reg);
      ne.b = Opnd::imm_int(0);
      ne.dst = new_reg();
      const int reg2 = ne.dst;
      emit(std::move(ne));
      TypedVal out;
      out.opnd = Opnd::make_reg(reg2);
      out.type = Ty::Int;
      return out;
    }

    TypedVal l = gen_expr(*e.lhs);
    TypedVal r = gen_expr(*e.rhs);
    if (l.is_array_name || r.is_array_name) fail(e.line, "array used as a value");

    const bool is_cmp = e.bin >= BinaryOp::EQ && e.bin <= BinaryOp::GE;
    Ty operand_ty = (l.type == Ty::Double || r.type == Ty::Double) ? Ty::Double : Ty::Int;
    if (e.bin == BinaryOp::Rem) {
      if (operand_ty == Ty::Double) fail(e.line, "'%' requires integer operands");
    }
    l = coerce(l, operand_ty, e.line);
    r = coerce(r, operand_ty, e.line);

    Instr in;
    in.kind = IKind::Bin;
    in.line = e.line;
    in.is_float = operand_ty == Ty::Double;
    in.a = l.opnd;
    in.b = r.opnd;
    switch (e.bin) {
      case BinaryOp::Add: in.bin = ir::BinOp::Add; break;
      case BinaryOp::Sub: in.bin = ir::BinOp::Sub; break;
      case BinaryOp::Mul: in.bin = ir::BinOp::Mul; break;
      case BinaryOp::Div: in.bin = ir::BinOp::Div; break;
      case BinaryOp::Rem: in.bin = ir::BinOp::Rem; break;
      case BinaryOp::EQ: in.bin = ir::BinOp::CmpEQ; break;
      case BinaryOp::NE: in.bin = ir::BinOp::CmpNE; break;
      case BinaryOp::LT: in.bin = ir::BinOp::CmpLT; break;
      case BinaryOp::LE: in.bin = ir::BinOp::CmpLE; break;
      case BinaryOp::GT: in.bin = ir::BinOp::CmpGT; break;
      case BinaryOp::GE: in.bin = ir::BinOp::CmpGE; break;
      default: fail(e.line, "internal: bad binary op");
    }
    in.dst = new_reg();
    const int reg = in.dst;
    emit(std::move(in));
    TypedVal out;
    out.opnd = Opnd::make_reg(reg);
    out.type = is_cmp ? Ty::Int : operand_ty;
    return out;
  }

  TypedVal gen_assign(const Expr& e) {
    TypedVal rhs = gen_expr(*e.rhs);
    LValue lv = gen_lvalue(*e.lhs);
    rhs = coerce(rhs, lv.type, e.line);
    Instr st;
    st.kind = IKind::Store;
    st.line = e.line;
    st.a = rhs.opnd;
    st.b = lv.addr;
    emit(std::move(st));
    return rhs;  // assignments yield the stored value
  }

  TypedVal gen_call(const Expr& e) {
    const BuiltinSig* builtin = find_builtin(e.name);
    const FuncDecl* user = nullptr;
    int user_index = -1;
    if (!builtin) {
      for (std::size_t i = 0; i < prog_.functions.size(); ++i) {
        if (prog_.functions[i].name == e.name) {
          user = &prog_.functions[i];
          user_index = static_cast<int>(i);
          break;
        }
      }
      if (!user) fail(e.line, "call to undeclared function '" + e.name + "'");
    }

    const std::size_t arity = builtin ? builtin->params.size() : user->params.size();
    if (e.args.size() != arity) {
      fail(e.line, strf("'%s' expects %zu arguments, got %zu", e.name.c_str(), arity,
                        e.args.size()));
    }

    Instr call;
    call.kind = IKind::Call;
    call.line = e.line;
    call.callee = e.name;
    call.is_builtin = builtin != nullptr;
    if (builtin) call.builtin = builtin->id;
    call.callee_index = user_index;  // module functions follow prog_.functions order

    for (std::size_t i = 0; i < e.args.size(); ++i) {
      TypedVal arg = gen_expr(*e.args[i]);
      const bool want_array = user && user->params[i].is_array;
      const Ty want_ty = builtin ? builtin->params[i]
                                 : (user->params[i].type);
      if (want_array) {
        if (!arg.is_array_name) fail(e.line, strf("argument %zu of '%s' must be an array", i + 1, e.name.c_str()));
        if (arg.type != want_ty) fail(e.line, strf("array element type mismatch in argument %zu of '%s'", i + 1, e.name.c_str()));
        if (arg.is_pointer_param) {
          // Pass a pointer parameter through: load its value.
          Instr ld;
          ld.kind = IKind::Load;
          ld.line = e.line;
          ld.a = Opnd::var(arg.var_slot, arg.var_is_global);
          ld.dst = new_reg();
          const int reg = ld.dst;
          emit(std::move(ld));
          call.args.push_back(Opnd::make_reg(reg));
        } else {
          // Array decay: &a[0] via a zero-index GEP (as clang emits).
          Instr gep;
          gep.kind = IKind::Gep;
          gep.line = e.line;
          gep.base = Opnd::var(arg.var_slot, arg.var_is_global);
          gep.indices = {Opnd::imm_int(0)};
          gep.strides = {1};
          gep.dst = new_reg();
          const int reg = gep.dst;
          emit(std::move(gep));
          call.args.push_back(Opnd::make_reg(reg));
        }
      } else {
        if (arg.is_array_name) fail(e.line, strf("argument %zu of '%s' is an array but a scalar is expected", i + 1, e.name.c_str()));
        arg = coerce(arg, want_ty, e.line);
        call.args.push_back(arg.opnd);
      }
    }

    const Ty ret = builtin ? builtin->ret : user->return_type;
    TypedVal out;
    if (ret != Ty::Void) {
      call.dst = new_reg();
      out.opnd = Opnd::make_reg(call.dst);
      out.type = ret;
    } else {
      out.type = Ty::Void;
    }
    emit(std::move(call));
    return out;
  }

  // -- statements --------------------------------------------------------------

  void gen_stmt(const Stmt& s) {
    switch (s.kind) {
      case StmtKind::Empty:
        return;
      case StmtKind::Decl:
        gen_decl(s);
        return;
      case StmtKind::ExprStmt:
        gen_expr(*s.expr);
        return;
      case StmtKind::Block: {
        scopes_.emplace_back();
        for (const auto& child : s.body) gen_stmt(*child);
        scopes_.pop_back();
        return;
      }
      case StmtKind::If:
        gen_if(s);
        return;
      case StmtKind::While:
        gen_while(s);
        return;
      case StmtKind::For:
        gen_for(s);
        return;
      case StmtKind::Return:
        gen_return(s);
        return;
      case StmtKind::Break: {
        if (break_patches_.empty()) fail(s.line, "'break' outside a loop");
        Instr jmp;
        jmp.kind = IKind::Jmp;
        jmp.line = s.line;
        jmp.t_true = -1;
        break_patches_.back().push_back(emit(std::move(jmp)));
        return;
      }
      case StmtKind::Continue: {
        if (continue_patches_.empty()) fail(s.line, "'continue' outside a loop");
        Instr jmp;
        jmp.kind = IKind::Jmp;
        jmp.line = s.line;
        jmp.t_true = -1;
        continue_patches_.back().push_back(emit(std::move(jmp)));
        return;
      }
    }
  }

  void gen_decl(const Stmt& s) {
    // Slots were assigned by collect_locals in this exact walk order.
    const int slot = find_decl_slot(s);
    if (!scopes_.back().emplace(s.name, slot).second) {
      fail(s.line, "redeclaration of '" + s.name + "' in the same scope");
    }
    if (s.init) {
      TypedVal v = gen_expr(*s.init);
      v = coerce(v, s.decl_type, s.line);
      Instr st;
      st.kind = IKind::Store;
      st.line = s.line;
      st.a = v.opnd;
      st.b = Opnd::var(slot, false);
      emit(std::move(st));
    }
  }

  /// Recover the slot assigned to this Decl during collect_locals. Decl walk
  /// order is identical, so we track a running cursor.
  int find_decl_slot(const Stmt& s) {
    if (decl_cursor_ < out_.num_params) decl_cursor_ = out_.num_params;
    const int slot = decl_cursor_++;
    const ir::VarInfo& v = out_.locals.at(static_cast<std::size_t>(slot));
    AC_CHECK(v.name == s.name, "decl slot walk order mismatch for " + s.name);
    return slot;
  }
  int decl_cursor_ = 0;

  TypedVal gen_condition(const Expr& e) {
    TypedVal v = gen_expr(e);
    if (v.is_array_name) fail(e.line, "array used in a condition");
    if (v.type == Ty::Double) v = to_bool(v, e.line);
    if (v.type == Ty::Void) fail(e.line, "void value used in a condition");
    return v;
  }

  void gen_if(const Stmt& s) {
    TypedVal cond = gen_condition(*s.expr);
    Instr br;
    br.kind = IKind::Br;
    br.line = s.expr->line;
    br.a = cond.opnd;
    br.t_true = -1;
    br.t_false = -1;
    const int br_idx = emit(std::move(br));

    out_.instrs[static_cast<std::size_t>(br_idx)].t_true = here();
    gen_stmt(*s.then_branch);
    if (s.else_branch) {
      Instr skip;
      skip.kind = IKind::Jmp;
      skip.line = s.line;
      skip.t_true = -1;
      const int skip_idx = emit(std::move(skip));
      out_.instrs[static_cast<std::size_t>(br_idx)].t_false = here();
      gen_stmt(*s.else_branch);
      out_.instrs[static_cast<std::size_t>(skip_idx)].t_true = here();
    } else {
      out_.instrs[static_cast<std::size_t>(br_idx)].t_false = here();
    }
  }

  void gen_while(const Stmt& s) {
    const int header = here();
    TypedVal cond = gen_condition(*s.expr);
    Instr br;
    br.kind = IKind::Br;
    br.line = s.expr->line;
    br.a = cond.opnd;
    br.t_true = -1;
    br.t_false = -1;
    const int br_idx = emit(std::move(br));
    out_.instrs[static_cast<std::size_t>(br_idx)].t_true = here();

    break_patches_.emplace_back();
    continue_patches_.emplace_back();
    gen_stmt(*s.loop_body);

    Instr back;
    back.kind = IKind::Jmp;
    back.line = s.line;
    back.t_true = header;
    emit(std::move(back));

    const int exit = here();
    out_.instrs[static_cast<std::size_t>(br_idx)].t_false = exit;
    for (int idx : break_patches_.back()) out_.instrs[static_cast<std::size_t>(idx)].t_true = exit;
    for (int idx : continue_patches_.back()) out_.instrs[static_cast<std::size_t>(idx)].t_true = header;
    break_patches_.pop_back();
    continue_patches_.pop_back();
  }

  void gen_for(const Stmt& s) {
    scopes_.emplace_back();  // for-init declarations scope to the loop
    if (s.for_init) gen_stmt(*s.for_init);

    const int header = here();
    int br_idx = -1;
    if (s.expr) {
      TypedVal cond = gen_condition(*s.expr);
      Instr br;
      br.kind = IKind::Br;
      br.line = s.expr->line;
      br.a = cond.opnd;
      br.t_true = -1;
      br.t_false = -1;
      br_idx = emit(std::move(br));
      out_.instrs[static_cast<std::size_t>(br_idx)].t_true = here();
    }

    break_patches_.emplace_back();
    continue_patches_.emplace_back();
    gen_stmt(*s.loop_body);

    const int step_at = here();
    if (s.for_step) gen_expr(*s.for_step);
    Instr back;
    back.kind = IKind::Jmp;
    back.line = s.line;
    back.t_true = header;
    emit(std::move(back));

    const int exit = here();
    if (br_idx >= 0) out_.instrs[static_cast<std::size_t>(br_idx)].t_false = exit;
    for (int idx : break_patches_.back()) out_.instrs[static_cast<std::size_t>(idx)].t_true = exit;
    for (int idx : continue_patches_.back()) out_.instrs[static_cast<std::size_t>(idx)].t_true = step_at;
    break_patches_.pop_back();
    continue_patches_.pop_back();
    scopes_.pop_back();
  }

  void gen_return(const Stmt& s) {
    Instr ret;
    ret.kind = IKind::Ret;
    ret.line = s.line;
    if (fn_.return_type == Ty::Void) {
      if (s.expr) fail(s.line, "void function returning a value");
    } else {
      if (!s.expr) fail(s.line, "non-void function must return a value");
      TypedVal v = coerce(gen_expr(*s.expr), fn_.return_type, s.line);
      ret.a = v.opnd;
    }
    emit(std::move(ret));
  }
};

}  // namespace

ir::Module codegen(const Program& prog) {
  ir::Module mod;
  std::map<std::string, int> global_slots;
  for (const auto& g : prog.globals) {
    if (find_builtin(g.name)) throw CompileError(strf("line %d: global '%s' shadows a builtin", g.line, g.name.c_str()));
    ir::VarInfo v;
    v.name = g.name;
    v.elem = to_elem(g.type);
    v.dims.assign(g.dims.begin(), g.dims.end());
    v.decl_line = g.line;
    if (!global_slots.emplace(g.name, static_cast<int>(mod.globals.size())).second) {
      throw CompileError(strf("line %d: duplicate global '%s'", g.line, g.name.c_str()));
    }
    mod.globals.push_back(v);
  }

  for (const auto& f : prog.functions) {
    if (find_builtin(f.name)) {
      throw CompileError(strf("line %d: function '%s' shadows a builtin", f.line, f.name.c_str()));
    }
    if (mod.function_index.count(f.name)) {
      throw CompileError(strf("line %d: duplicate function '%s'", f.line, f.name.c_str()));
    }
    mod.function_index.emplace(f.name, static_cast<int>(mod.functions.size()));
    mod.functions.emplace_back();  // reserve index so order matches prog.functions
  }
  for (std::size_t i = 0; i < prog.functions.size(); ++i) {
    FuncCodegen cg(prog, prog.functions[i], mod, global_slots);
    mod.functions[i] = cg.run();
  }
  if (!mod.find_function("main")) throw CompileError("program has no main function");
  return mod;
}

}  // namespace ac::minic
