// Dynamic instruction trace records, mirroring LLVM-Tracer's textual block
// format (paper Fig. 1 and Fig. 6).
//
// One dynamic instruction == one block:
//
//   0,<line>,<function>,<bb>,<opcode>,<dyn_id>
//   <slot>,<bits>,<value>,<is_reg>,<name>
//   ...
//
// where <slot> is an operand index ("1","2",...), "0" for a call's callee,
// "f" for a call parameter (paper's "parameter indicator"), or "r" for the
// instruction result. Values print as decimal ints, %.6f floats, or 0x-hex
// addresses.
//
// TraceRecord is the owning value form of one block: hand-built records in
// tests, and what TraceBuffer::materialize() returns. Sinks, readers and the
// analysis all work on the site-indexed RecordView (trace/buffer.hpp), whose
// append_text() is the one renderer of the block format above.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/opcode.hpp"
#include "trace/value.hpp"

namespace ac::trace {

enum class OperandSlot : std::uint8_t {
  Input,    // numbered operand: 1, 2, ...
  Callee,   // slot "0": the called function of a Call record
  Param,    // slot "f": formal parameter binding of call form 2
  Result,   // slot "r": the instruction result
};

struct Operand {
  OperandSlot slot = OperandSlot::Input;
  int index = 0;       // 1-based for Input slots; 0 otherwise
  int bits = 64;       // operand width
  Value value;         // dynamic value at execution time
  bool is_reg = false; // register/variable (named) vs immediate
  std::string name;    // register number, variable name, function or parameter name

  static Operand input(int idx, Value v, bool reg, std::string nm, int bits = 64);
  static Operand result(Value v, std::string nm, int bits = 64);
  static Operand callee(std::string fn);
  static Operand param(Value v, std::string nm, int bits = 64);
};

struct TraceRecord {
  std::int32_t line = 0;       // source line (-1 when unknown, cf. Fig. 6(c))
  std::string func;            // enclosing function
  std::string bb;              // basic-block label "line:col"
  Opcode opcode = Opcode::Load;
  std::uint64_t dyn_id = 0;    // dynamic instruction id (execution order)
  std::vector<Operand> operands;
};

}  // namespace ac::trace
