// MiniC -> mini-IR code generation (with integrated semantic checking).
//
// Emission is `-O0`-shaped on purpose (see src/ir/ir.hpp): allocas are hoisted
// to function entry, every variable access is an explicit Load/Store, and
// array accesses go through GetElementPtr — producing traces with exactly the
// instruction mix the paper's analysis consumes (Table I).
#pragma once

#include "ir/builtins.hpp"
#include "ir/ir.hpp"
#include "minic/ast.hpp"

namespace ac::minic {

/// Lower a parsed program; throws ac::CompileError on semantic errors
/// (undeclared identifiers, type errors, arity mismatches, bad subscripts).
ir::Module codegen(const Program& prog);

struct BuiltinSig {
  ir::Builtin id;
  Ty ret;
  std::vector<Ty> params;
};

/// MiniC signature of a builtin of ir/builtins.hpp; nullptr for any other
/// name.
const BuiltinSig* find_builtin(const std::string& name);

}  // namespace ac::minic
