// LLVM 3.4 opcode numbering as emitted by LLVM-Tracer and shown in the
// paper's Figures 1 and 6 (Load=27, Store=28, Alloca=26, Call=49, Mul=12 ...).
#pragma once

#include <cstdint>
#include <string>

namespace ac::trace {

/// How the dependency replay treats an opcode (the class column below).
enum class OpClass : std::uint8_t {
  Other,    // control flow, memory, calls, pointer computations
  Arith,    // the arithmetic instructions of Table I: reg-reg map sources
  Compare,  // also reg-reg map sources, so that comparison flags keep data provenance
};

// V(name, LLVM 3.4 number, class): every opcode a trace may carry. The enum,
// the names, the arithmetic set and the number check all come from this list.
#define AC_OPCODES(V)               \
  V(Ret, 1, Other)                  \
  V(Br, 2, Other)                   \
  V(Add, 8, Arith)                  \
  V(FAdd, 9, Arith)                 \
  V(Sub, 10, Arith)                 \
  V(FSub, 11, Arith)                \
  V(Mul, 12, Arith)                 \
  V(FMul, 13, Arith)                \
  V(UDiv, 14, Arith)                \
  V(SDiv, 15, Arith)                \
  V(FDiv, 16, Arith)                \
  V(URem, 17, Arith)                \
  V(SRem, 18, Arith)                \
  V(FRem, 19, Arith)                \
  V(Alloca, 26, Other)              \
  V(Load, 27, Other)                \
  V(Store, 28, Other)               \
  V(GetElementPtr, 29, Other)       \
  V(FPToSI, 34, Arith)              \
  V(SIToFP, 36, Arith)              \
  V(BitCast, 43, Other)             \
  V(ICmp, 46, Compare)              \
  V(FCmp, 47, Compare)              \
  V(Call, 49, Other)

enum class Opcode : std::uint8_t {
#define AC_OPCODE_ENUM(name, num, cls) name = num,
  AC_OPCODES(AC_OPCODE_ENUM)
#undef AC_OPCODE_ENUM
};

/// Mnemonic ("Load", "Mul", ...) for reports and tests.
std::string opcode_name(Opcode op);

/// True for the Arith and Compare classes: the reg-reg map sources.
bool is_arithmetic(Opcode op);

/// Bit n is set for each opcode number n in AC_OPCODES.
inline constexpr std::uint64_t kKnownOpcodeBits = 0
#define AC_OPCODE_BIT(name, num, cls) | (std::uint64_t{1} << num)
    AC_OPCODES(AC_OPCODE_BIT)
#undef AC_OPCODE_BIT
    ;
#define AC_OPCODE_BELOW_64(name, num, cls) static_assert(num < 64, "kKnownOpcodeBits holds 64");
AC_OPCODES(AC_OPCODE_BELOW_64)
#undef AC_OPCODE_BELOW_64

/// True when `num` is one of the opcode numbers in AC_OPCODES: one bit test,
/// made for every record a trace parse or decode reads.
inline bool is_known_opcode(int num) {
  return num >= 0 && num < 64 && ((kKnownOpcodeBits >> num) & 1) != 0;
}

}  // namespace ac::trace
