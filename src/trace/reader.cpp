#include "trace/reader.hpp"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "support/error.hpp"
#include "support/executor.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"

namespace ac::trace {

namespace {

bool is_block_header(std::string_view line) {
  if (!starts_with(line, "0,")) return false;
  // Headers have 6 fields; callee operand lines ("0,bits,value,is_reg,name")
  // have 5. Count commas without allocating.
  int commas = 0;
  for (char c : line) commas += (c == ',');
  return commas >= 5;
}

// --- zero-copy TraceBuffer parse -------------------------------------------

/// Walk lines with a single cursor — no materialized line vector.
struct LineCursor {
  std::string_view text;
  std::size_t pos = 0;

  bool next(std::string_view& line) {
    if (pos >= text.size()) return false;
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      line = text.substr(pos);
      pos = text.size();
    } else {
      line = text.substr(pos, nl - pos);
      pos = nl + 1;
    }
    return true;
  }
};

/// First six comma-separated fields plus the total field count (enough to
/// parse headers and operand lines and to tell them apart, without a
/// per-line vector).
struct Fields {
  std::string_view v[6];
  std::size_t count = 0;
};

void split_fields(std::string_view line, Fields& out) {
  out.count = 0;
  std::size_t start = 0;
  while (true) {
    const std::size_t pos = line.find(',', start);
    const std::string_view field =
        pos == std::string_view::npos ? line.substr(start) : line.substr(start, pos - start);
    if (out.count < 6) out.v[out.count] = field;
    ++out.count;
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
}

/// Numeric field `what` of `line`, parsed into T with a range check (bool
/// takes only 0 and 1, a Value its own int/float/hex spelling). A value
/// never wraps or saturates into range: every failure is a TraceFormatError
/// naming the field.
template <class T>
T parse_field(std::string_view text, const char* what, std::string_view line) {
  try {
    if constexpr (std::is_same_v<T, Value>) {
      return value_from_text(text);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
      return parse_u64(text);
    } else {
      const std::int64_t v = parse_i64(text);
      if constexpr (std::is_same_v<T, bool>) {
        if (v == 0 || v == 1) return v == 1;
      } else if (std::in_range<T>(v)) {
        return static_cast<T>(v);
      }
    }
  } catch (const Error& e) {
    throw TraceFormatError(strf("bad %s in '%.*s': %s", what, static_cast<int>(line.size()),
                                line.data(), e.what()));
  }
  const std::string_view value = trim(text);
  throw TraceFormatError(strf("%s '%.*s' out of range in '%.*s'", what,
                              static_cast<int>(value.size()), value.data(),
                              static_cast<int>(line.size()), line.data()));
}

/// Append every block of `text` to `buf`. Throws TraceFormatError on a
/// malformed header, operand line or numeric field.
void parse_text_into(std::string_view text, TraceBuffer& buf) {
  SymbolPool& pool = buf.pool();
  std::vector<PackedRecord>& records = buf.records();
  std::vector<PackedOperand>& operands = buf.operands();

  LineCursor cursor{text, 0};
  Fields f;
  std::string_view line;
  bool have = cursor.next(line);
  while (have) {
    if (trim(line).empty()) {
      have = cursor.next(line);
      continue;
    }
    split_fields(line, f);
    if (f.count < 6 || trim(f.v[0]) != "0") {
      throw TraceFormatError("bad block header: '" + std::string(line) + "'");
    }
    PackedRecord rec;
    rec.line = parse_field<std::int32_t>(f.v[1], "source line", line);
    rec.func = pool.intern(trim(f.v[2]));
    rec.bb = pool.intern(trim(f.v[3]));
    const auto opnum = parse_field<std::int32_t>(f.v[4], "opcode", line);
    if (!is_known_opcode(opnum)) {
      throw TraceFormatError(strf("unknown opcode %d at dyn record '%s'", opnum,
                                  std::string(line).c_str()));
    }
    rec.opcode = static_cast<Opcode>(opnum);
    rec.dyn_id = parse_field<std::uint64_t>(f.v[5], "dyn_id", line);
    if (operands.size() > 0xffffffffull) {
      throw TraceFormatError("trace exceeds the 4G-operand TraceBuffer capacity");
    }
    rec.op_offset = static_cast<std::uint32_t>(operands.size());

    while ((have = cursor.next(line))) {
      if (trim(line).empty()) continue;
      split_fields(line, f);
      // A new block starts with "0," and >= 6 fields; callee operand lines
      // ("0,bits,value,is_reg,name") have 5.
      if (trim(f.v[0]) == "0" && f.count >= 6) break;
      if (f.count < 5) {
        throw TraceFormatError("operand line needs 5 fields: '" + std::string(line) + "'");
      }
      PackedOperand op;
      OperandSlot slot = OperandSlot::Input;
      const std::string_view slot_field = trim(f.v[0]);
      if (slot_field == "r") {
        slot = OperandSlot::Result;
      } else if (slot_field == "f") {
        slot = OperandSlot::Param;
      } else if (slot_field == "0") {
        slot = OperandSlot::Callee;
      } else {
        op.index = parse_field<std::int32_t>(slot_field, "operand index", line);
        if (op.index <= 0) {
          throw TraceFormatError("bad operand index in '" + std::string(line) + "'");
        }
      }
      op.bits = parse_field<std::int32_t>(f.v[1], "operand bits", line);
      const auto value = parse_field<Value>(f.v[2], "operand value", line);
      op.raw = PackedOperand::raw_of(value);
      op.name = pool.intern(trim(f.v[4]));
      op.flags = PackedOperand::pack_flags(slot, value.kind,
                                           parse_field<bool>(f.v[3], "operand is_reg", line));
      operands.push_back(op);
    }
    rec.op_count = static_cast<std::uint32_t>(operands.size()) - rec.op_offset;
    records.push_back(rec);
  }
}

/// Partition `text` into ~target-byte ranges that start on block-header
/// lines, so no instruction block is split (paper §V-A) — byte ranges, not
/// line indices.
std::vector<std::pair<std::size_t, std::size_t>> chunk_at_block_boundaries(
    std::string_view text, std::size_t target) {
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  std::size_t begin = 0;
  while (begin < text.size()) {
    std::size_t end = begin + target;
    if (end >= text.size()) {
      end = text.size();
    } else {
      const std::size_t nl = text.find('\n', end);
      end = nl == std::string_view::npos ? text.size() : nl + 1;
      while (end < text.size()) {
        const std::size_t eol = text.find('\n', end);
        const std::string_view line =
            text.substr(end, (eol == std::string_view::npos ? text.size() : eol) - end);
        if (is_block_header(line)) break;
        end = eol == std::string_view::npos ? text.size() : eol + 1;
      }
    }
    chunks.emplace_back(begin, end);
    begin = end;
  }
  return chunks;
}

/// Bulk per-chunk metric update — the record loop itself stays untouched.
void note_chunk_parsed(std::size_t records, std::size_t bytes) {
  static auto& recs = telemetry::metrics().counter("parse.records_parsed");
  static auto& bs = telemetry::metrics().counter("parse.bytes_parsed");
  static auto& chunks = telemetry::metrics().counter("parse.chunks");
  recs.add(records);
  bs.add(bytes);
  chunks.add(1);
}

}  // namespace

TraceBuffer read_trace_buffer(std::string_view text, int threads, const ParseProgress& progress) {
  // One thread parses in 8 MiB chunks, so its peak is the output plus one
  // chunk of input. More threads cut ~4 chunks per worker, unless the input
  // is too small to be worth splitting.
  constexpr std::size_t kSegment = 8u << 20;
  constexpr std::size_t kMinSplit = 256u << 10;
  threads = std::clamp(threads, 1, 256);  // a runaway request must not exhaust thread stacks
  std::size_t target = kSegment;
  if (threads > 1) {
    target = text.size() < kMinSplit
                 ? text.size()
                 : text.size() / (static_cast<std::size_t>(threads) * 4) + 1;
  }
  const auto chunks = chunk_at_block_boundaries(text, target);

  // Workers parse chunks into private buffers; the calling thread is
  // run_chunks' in-order consumer, so symbols join the output pool in input
  // order and every thread count yields the same buffer, ids included. One
  // thread is the serial parse: run_chunks runs each chunk inline and it
  // parses straight into the output, so no chunk buffer sits beside it. The
  // in-flight bound keeps at most ~2 parsed-but-unspliced chunks per worker
  // alive. A parse error cancels unclaimed chunks and resurfaces here as the
  // lowest failing chunk's error — the one the first bad block raises.
  TraceBuffer out;
  std::vector<TraceBuffer> partial(threads > 1 ? chunks.size() : 0);
  ExecutorOptions eopts;
  eopts.threads = threads;
  eopts.max_in_flight = static_cast<std::size_t>(threads) * 2;
  run_chunks(
      chunks.size(), eopts,
      [&](std::size_t c) {
        AC_SPAN("parse.chunk");
        const std::string_view sub =
            text.substr(chunks[c].first, chunks[c].second - chunks[c].first);
        TraceBuffer& dst = partial.empty() ? out : partial[c];
        const std::size_t before = dst.size();
        // Records average ~70 text bytes; a mild underestimate keeps the
        // final capacity close to the size without a counting pre-pass.
        if (before == 0) dst.reserve(sub.size() / 96 + 1, sub.size() / 32 + 1);
        parse_text_into(sub, dst);
        note_chunk_parsed(dst.size() - before, sub.size());
      },
      [&](std::size_t c) {
        if (!partial.empty()) {
          if (c == 0) {
            out = std::move(partial[0]);  // merging into an empty pool keeps every id
          } else {
            AC_SPAN("parse.splice");
            out.append_buffer(partial[c]);
            partial[c] = TraceBuffer();  // release chunk memory as it is consumed
          }
        }
        if (c == 0 && chunks.size() > 1) {
          // Size the output once, extrapolating chunk 0's record/operand
          // density over the whole input (5% headroom).
          const double scale = static_cast<double>(text.size()) /
                               static_cast<double>(chunks[0].second) * 1.05;
          out.reserve(static_cast<std::size_t>(static_cast<double>(out.size()) * scale) + 1,
                      static_cast<std::size_t>(static_cast<double>(out.operands().size()) *
                                               scale) +
                          1);
        }
        if (progress) progress(chunks[c].first, chunks[c].second);
      });
  return out;
}

}  // namespace ac::trace
