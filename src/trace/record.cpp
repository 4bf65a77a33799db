#include "trace/record.hpp"

#include <charconv>

#include "support/strings.hpp"

namespace ac::trace {

void append_value_text(std::string& out, const Value& v) {
  switch (v.kind) {
    case ValueKind::Int: append_int(out, v.i); return;
    case ValueKind::Float: {
      // std::to_chars with a precision is printf's %.6f. The longest
      // spelling, -DBL_MAX's, is 317 bytes.
      char buf[320];
      out.append(buf, std::to_chars(buf, buf + sizeof buf, v.f, std::chars_format::fixed, 6).ptr);
      return;
    }
    case ValueKind::Addr:
      out += "0x";
      append_int(out, v.addr, 16);
      return;
  }
  out += '0';
}

std::string value_to_text(const Value& v) {
  std::string out;
  append_value_text(out, v);
  return out;
}

Value value_from_text(std::string_view text) {
  text = trim(text);
  if (starts_with(text, "0x")) return Value::make_addr(parse_hex(text));
  if (text.find('.') != std::string_view::npos ||
      text.find("inf") != std::string_view::npos ||
      text.find("nan") != std::string_view::npos) {
    return Value::make_float(parse_f64(text));
  }
  return Value::make_int(parse_i64(text));
}

Operand Operand::input(int idx, Value v, bool reg, std::string nm, int bits) {
  Operand op;
  op.slot = OperandSlot::Input;
  op.index = idx;
  op.bits = bits;
  op.value = v;
  op.is_reg = reg;
  op.name = std::move(nm);
  return op;
}

Operand Operand::result(Value v, std::string nm, int bits) {
  Operand op;
  op.slot = OperandSlot::Result;
  op.bits = bits;
  op.value = v;
  op.is_reg = true;
  op.name = std::move(nm);
  return op;
}

Operand Operand::callee(std::string fn) {
  Operand op;
  op.slot = OperandSlot::Callee;
  op.value = Value::make_addr(0);
  op.is_reg = false;
  op.name = std::move(fn);
  return op;
}

Operand Operand::param(Value v, std::string nm, int bits) {
  Operand op;
  op.slot = OperandSlot::Param;
  op.bits = bits;
  op.value = v;
  op.is_reg = true;
  op.name = std::move(nm);
  return op;
}

}  // namespace ac::trace
