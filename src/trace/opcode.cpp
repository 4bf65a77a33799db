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

bool is_known_opcode(int num) {
  switch (num) {
#define AC_OPCODE_NUMBER(name, num, cls) case num:
    AC_OPCODES(AC_OPCODE_NUMBER)
#undef AC_OPCODE_NUMBER
      return true;
    default:
      return false;
  }
}

}  // namespace ac::trace
