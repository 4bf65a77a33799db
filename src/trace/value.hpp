// Runtime value representation shared by the VM and the trace format.
//
// LLVM-Tracer prints operand values as decimal integers, fixed-point floats
// (e.g. "44.000000") or hexadecimal memory addresses (e.g. "0x7ffcf3f25a70").
// We keep the kind explicit so the analysis can recognize pointer values
// (pointer assignment handling, §IV-A of the paper) without guessing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ac::trace {

enum class ValueKind : std::uint8_t { Int, Float, Addr };

struct Value {
  ValueKind kind = ValueKind::Int;
  std::int64_t i = 0;   // valid when kind == Int
  double f = 0.0;       // valid when kind == Float
  std::uint64_t addr = 0;  // valid when kind == Addr

  static Value make_int(std::int64_t v) {
    Value out;
    out.kind = ValueKind::Int;
    out.i = v;
    return out;
  }
  static Value make_float(double v) {
    Value out;
    out.kind = ValueKind::Float;
    out.f = v;
    return out;
  }
  static Value make_addr(std::uint64_t a) {
    Value out;
    out.kind = ValueKind::Addr;
    out.addr = a;
    return out;
  }

  bool is_addr() const { return kind == ValueKind::Addr; }
  bool is_int() const { return kind == ValueKind::Int; }
  bool is_float() const { return kind == ValueKind::Float; }

  /// Numeric view used by VM arithmetic when mixing int/double.
  double as_f64() const { return kind == ValueKind::Float ? f : static_cast<double>(i); }
  std::int64_t as_i64() const { return kind == ValueKind::Int ? i : static_cast<std::int64_t>(f); }

  bool operator==(const Value& o) const {
    if (kind != o.kind) return false;
    switch (kind) {
      case ValueKind::Int: return i == o.i;
      case ValueKind::Float: return f == o.f;
      case ValueKind::Addr: return addr == o.addr;
    }
    return false;
  }
};

/// Append the text form of `v`, exactly as it appears in a trace operand
/// field: a decimal int, a %.6f float or a 0x-hex address. The one value
/// renderer, on std::to_chars, so LC_NUMERIC never changes the spelling.
void append_value_text(std::string& out, const Value& v);

/// append_value_text into a fresh string.
std::string value_to_text(const Value& v);

/// Inverse of value_to_text; autodetects 0x / '.' / plain decimal.
Value value_from_text(std::string_view text);

}  // namespace ac::trace
