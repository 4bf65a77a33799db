#include "trace/opcode.hpp"

namespace ac::trace {

std::string opcode_name(Opcode op) {
  switch (op) {
#define AC_OPCODE_NAME(name, num, cls) \
  case Opcode::name: return #name;
    AC_OPCODES(AC_OPCODE_NAME)
#undef AC_OPCODE_NAME
  }
  return "Unknown";
}

bool is_arithmetic(Opcode op) {
  switch (op) {
#define AC_OPCODE_ARITH(name, num, cls) \
  case Opcode::name: return OpClass::cls != OpClass::Other;
    AC_OPCODES(AC_OPCODE_ARITH)
#undef AC_OPCODE_ARITH
  }
  return false;
}

}  // namespace ac::trace
