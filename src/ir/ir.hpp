// The mini-IR targeted by the MiniC frontend and executed by the tracing VM.
//
// The IR is deliberately `clang -O0`-shaped, because that is what LLVM-Tracer
// instruments and what the paper's analysis assumes:
//   * every variable (local, parameter, global) is a memory object introduced
//     by an Alloca (or global definition);
//   * every use is an explicit Load into a fresh virtual register and every
//     definition is an explicit Store — so data flows variable -> register ->
//     arithmetic -> register -> variable exactly as in Fig. 5 of the paper;
//   * array element access goes through GetElementPtr address computation.
//
// Registers are function-local, single static assignment (each instruction
// that produces a value defines a fresh register id). Control flow is by
// instruction-index branch targets; there are no phi nodes (loops round-trip
// values through memory, as -O0 code does).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "ir/builtins.hpp"

namespace ac::ir {

enum class TypeKind : std::uint8_t { I64, F64 };

/// Bytes per scalar element; both i64 and f64 are 8 bytes in this IR.
constexpr std::int64_t kElemBytes = 8;

/// A declared variable: scalar, (multi-dimensional) array, or pointer-shaped
/// function parameter (array parameters decay to pointers as in C).
struct VarInfo {
  std::string name;
  TypeKind elem = TypeKind::I64;
  std::vector<std::int64_t> dims;  // empty = scalar
  bool is_pointer_param = false;   // param declared as T name[]
  int decl_line = 0;

  std::int64_t elem_count() const {
    std::int64_t n = 1;
    for (auto d : dims) n *= d;
    return n;
  }
  /// Storage footprint: pointer params hold one 8-byte address.
  std::int64_t bytes() const { return is_pointer_param ? kElemBytes : elem_count() * kElemBytes; }
  bool is_array() const { return !dims.empty(); }
};

/// Instruction operand.
struct Opnd {
  enum class Kind : std::uint8_t { None, Reg, ImmI, ImmF, Var } kind = Kind::None;
  int reg = -1;             // Kind::Reg
  std::int64_t imm_i = 0;   // Kind::ImmI
  double imm_f = 0.0;       // Kind::ImmF
  int var_slot = -1;        // Kind::Var — index into function locals or module globals
  bool var_is_global = false;

  static Opnd none() { return {}; }
  static Opnd make_reg(int r) {
    Opnd o;
    o.kind = Kind::Reg;
    o.reg = r;
    return o;
  }
  static Opnd imm_int(std::int64_t v) {
    Opnd o;
    o.kind = Kind::ImmI;
    o.imm_i = v;
    return o;
  }
  static Opnd imm_float(double v) {
    Opnd o;
    o.kind = Kind::ImmF;
    o.imm_f = v;
    return o;
  }
  static Opnd var(int slot, bool is_global) {
    Opnd o;
    o.kind = Kind::Var;
    o.var_slot = slot;
    o.var_is_global = is_global;
    return o;
  }
  bool is_none() const { return kind == Kind::None; }
};

enum class IKind : std::uint8_t {
  Alloca,  // materialize local `var_slot`'s storage (emitted at its decl line)
  Load,    // dst = *addr          (addr = Var direct or Reg from Gep)
  Store,   // *addr = a
  Gep,     // dst = &base[indices...] flattened with `strides`
  Bin,     // dst = a <binop> b
  Cast,    // dst = cast(a)        (SIToFP / FPToSI)
  Br,      // conditional branch on a to t_true / t_false
  Jmp,     // unconditional branch to t_true
  Call,    // dst = callee(args...)
  Ret,     // return a (or void)
};

enum class BinOp : std::uint8_t {
  Add, Sub, Mul, Div, Rem,          // arithmetic (int or float via is_float)
  CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE,  // comparisons, result i64 0/1
};

enum class CastKind : std::uint8_t { SiToFp, FpToSi };

struct Instr {
  IKind kind = IKind::Bin;
  int line = 0;       // source line for the trace record
  int dst = -1;       // result register, -1 if none

  // Bin / Cast / Load / Store / Br / Ret operands.
  Opnd a, b;
  BinOp bin = BinOp::Add;
  bool is_float = false;  // selects FAdd/FCmp/... vs Add/ICmp/...
  CastKind cast = CastKind::SiToFp;

  // Alloca / direct variable addressing.
  int var_slot = -1;
  bool var_is_global = false;

  // Gep.
  Opnd base;                          // Var or Reg (pointer param value)
  std::vector<Opnd> indices;          // one per dimension used
  std::vector<std::int64_t> strides;  // element strides matching `indices`

  // Br / Jmp.
  int t_true = -1;
  int t_false = -1;

  // Call.
  std::string callee;             // callee name, as traced
  std::vector<Opnd> args;
  bool is_builtin = false;
  Builtin builtin{};              // is_builtin: which one
  int callee_index = -1;          // otherwise: index into Module::functions
};

struct Function {
  std::string name;
  int decl_line = 0;
  std::vector<VarInfo> locals;  // params first, then declared locals
  int num_params = 0;
  int num_regs = 0;
  bool returns_float = false;
  bool returns_void = true;
  std::vector<Instr> instrs;

  const VarInfo& local(int slot) const { return locals.at(static_cast<std::size_t>(slot)); }
};

struct Module {
  std::vector<VarInfo> globals;
  std::vector<Function> functions;
  std::map<std::string, int> function_index;

  const Function* find_function(const std::string& name) const {
    auto it = function_index.find(name);
    return it == function_index.end() ? nullptr : &functions[static_cast<std::size_t>(it->second)];
  }
  const VarInfo& global(int slot) const { return globals.at(static_cast<std::size_t>(slot)); }
};

/// Human-readable IR dump for debugging and golden tests.
std::string print_module(const Module& m);

/// Structural checks: branch targets in range, registers defined before use,
/// operand slots valid, exactly one terminating Ret path per function.
/// Throws ac::Error with a description on the first violation.
void verify_module(const Module& m);

}  // namespace ac::ir
