#include "trace/record.hpp"

#include <cinttypes>

#include "support/strings.hpp"

namespace ac::trace {

std::string value_to_text(const Value& v) {
  switch (v.kind) {
    case ValueKind::Int: return strf("%" PRId64, v.i);
    case ValueKind::Float: return strf("%.6f", v.f);
    case ValueKind::Addr: return strf("0x%" PRIx64, v.addr);
  }
  return "0";
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

const Operand* TraceRecord::find(OperandSlot slot) const {
  for (const auto& op : operands) {
    if (op.slot == slot) return &op;
  }
  return nullptr;
}

const Operand* TraceRecord::input(int idx) const {
  for (const auto& op : operands) {
    if (op.slot == OperandSlot::Input && op.index == idx) return &op;
  }
  return nullptr;
}

std::vector<const Operand*> TraceRecord::params() const {
  std::vector<const Operand*> out;
  for (const auto& op : operands) {
    if (op.slot == OperandSlot::Param) out.push_back(&op);
  }
  return out;
}

bool TraceRecord::is_call_with_body() const {
  return opcode == Opcode::Call && find(OperandSlot::Param) != nullptr;
}

std::string TraceRecord::to_text() const {
  std::string out;
  append_text(out);
  return out;
}

void TraceRecord::append_text(std::string& out) const {
  appendf(out, "0,%d,%s,%s,%d,%" PRIu64 "\n", line, func.c_str(), bb.c_str(),
          static_cast<int>(opcode), dyn_id);
  for (const auto& op : operands) {
    switch (op.slot) {
      case OperandSlot::Input: appendf(out, "%d", op.index); break;
      case OperandSlot::Callee: out += '0'; break;
      case OperandSlot::Param: out += 'f'; break;
      case OperandSlot::Result: out += 'r'; break;
    }
    appendf(out, ",%d,%s,%d,%s\n", op.bits, value_to_text(op.value).c_str(),
            op.is_reg ? 1 : 0, op.name.empty() ? " " : op.name.c_str());
  }
}

}  // namespace ac::trace
