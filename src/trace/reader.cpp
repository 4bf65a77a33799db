#include "trace/reader.hpp"

#include <sys/stat.h>

#include <cstdio>
#include <thread>
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

/// Append every block of `text` to `buf`. Throws TraceFormatError on a
/// malformed header or operand line.
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
    rec.line = static_cast<std::int32_t>(parse_i64(f.v[1]));
    rec.func = pool.intern(trim(f.v[2]));
    rec.bb = pool.intern(trim(f.v[3]));
    const int opnum = static_cast<int>(parse_i64(f.v[4]));
    if (!is_known_opcode(opnum)) {
      throw TraceFormatError(strf("unknown opcode %d at dyn record '%s'", opnum,
                                  std::string(line).c_str()));
    }
    rec.opcode = static_cast<Opcode>(opnum);
    rec.dyn_id = static_cast<std::uint64_t>(parse_i64(f.v[5]));
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
        op.index = static_cast<std::int32_t>(parse_i64(slot_field));
        if (op.index <= 0) {
          throw TraceFormatError("bad operand index in '" + std::string(line) + "'");
        }
      }
      op.bits = static_cast<std::int32_t>(parse_i64(f.v[1]));
      const Value value = value_from_text(f.v[2]);
      op.raw = PackedOperand::raw_of(value);
      op.name = pool.intern(trim(f.v[4]));
      op.flags = PackedOperand::pack_flags(slot, value.kind, parse_i64(f.v[3]) != 0);
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

TraceBuffer read_trace_buffer(std::string_view text, const ParseProgress& progress) {
  TraceBuffer buf;
  constexpr std::size_t kSegment = 8u << 20;
  if (text.size() <= kSegment) {
    AC_SPAN("parse.chunk");
    // Records average ~70 text bytes; a mild underestimate keeps the final
    // capacity close to the size without a counting pre-pass.
    buf.reserve(text.size() / 96 + 1, text.size() / 32 + 1);
    parse_text_into(text, buf);
    note_chunk_parsed(buf.size(), text.size());
    if (progress) progress(0, text.size());
    return buf;
  }
  // Segmented: parse the first block-aligned segment, extrapolate the
  // record/operand density to size the arrays once (5% headroom), then stream
  // the rest, releasing consumed input pages as we go.
  const auto chunks = chunk_at_block_boundaries(text, kSegment);
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    AC_SPAN("parse.chunk");
    const std::size_t before = buf.size();
    parse_text_into(text.substr(chunks[c].first, chunks[c].second - chunks[c].first), buf);
    note_chunk_parsed(buf.size() - before, chunks[c].second - chunks[c].first);
    if (c == 0) {
      const double scale =
          static_cast<double>(text.size()) / static_cast<double>(chunks[0].second) * 1.05;
      buf.reserve(static_cast<std::size_t>(static_cast<double>(buf.size()) * scale) + 1,
                  static_cast<std::size_t>(static_cast<double>(buf.operands().size()) * scale) + 1);
    }
    if (progress) progress(chunks[c].first, chunks[c].second);
  }
  return buf;
}

TraceBuffer read_trace_buffer_parallel(std::string_view text, int num_threads,
                                       const ParseProgress& progress) {
  if (text.size() < (1u << 18)) return read_trace_buffer(text, progress);

  int threads =
      num_threads > 0 ? num_threads : static_cast<int>(std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  if (threads > 256) threads = 256;  // a runaway request must not exhaust thread stacks
  if (threads == 1) return read_trace_buffer(text, progress);
  const std::size_t want_chunks = static_cast<std::size_t>(threads) * 4;

  const auto chunks = chunk_at_block_boundaries(text, text.size() / want_chunks + 1);
  if (chunks.size() < 2) return read_trace_buffer(text, progress);
  const std::size_t n = chunks.size();

  // Pipelined producer/consumer on the shared chunk executor (no concat
  // barrier): workers claim chunks, parse them into private buffers and
  // bulk-merge their symbols into the shared pool (SymbolPool::merge is
  // mutex-protected, so merges overlap with other workers still parsing); the
  // calling thread is the executor's in-order consumer, splicing chunk c into
  // the output the moment it is ready — while later chunks are still being
  // parsed. append_remapped only touches the record/operand arrays, never the
  // pool, so the splice runs concurrently with in-flight merges. The in-flight
  // bound keeps at most ~2 parsed-but-unspliced chunks per worker alive, so a
  // slow consumer cannot accumulate every partial buffer at once; a parse
  // error cancels unclaimed chunks and resurfaces here with its original
  // type and message — identical to the serial parse of the same bytes.
  TraceBuffer out;
  std::vector<TraceBuffer> partial(n);
  std::vector<std::vector<std::uint32_t>> remaps(n);
  bool reserved = false;

  ExecutorOptions eopts;
  eopts.threads = threads;
  eopts.max_in_flight = static_cast<std::size_t>(threads) * 2;
  run_chunks(
      n, eopts,
      [&](std::size_t c) {
        const std::string_view sub =
            text.substr(chunks[c].first, chunks[c].second - chunks[c].first);
        {
          AC_SPAN("parse.chunk");
          partial[c].reserve(sub.size() / 96 + 1, sub.size() / 32 + 1);
          parse_text_into(sub, partial[c]);
          note_chunk_parsed(partial[c].size(), sub.size());
        }
        AC_SPAN("parse.merge");
        remaps[c] = out.pool().merge(partial[c].pool());
      },
      [&](std::size_t c) {
        if (!reserved) {
          // Size the output arrays once, extrapolating the first chunk's
          // record/operand density over the whole input (5% headroom).
          const double scale = static_cast<double>(text.size()) /
                               static_cast<double>(chunks[0].second - chunks[0].first) * 1.05;
          out.reserve(
              static_cast<std::size_t>(static_cast<double>(partial[0].size()) * scale) + 1,
              static_cast<std::size_t>(static_cast<double>(partial[0].operands().size()) *
                                       scale) +
                  1);
          reserved = true;
        }
        {
          AC_SPAN("parse.splice");
          out.append_remapped(partial[c], remaps[c]);
        }
        partial[c] = TraceBuffer();  // release chunk memory as it is consumed
        if (progress) progress(chunks[c].first, chunks[c].second);
      });
  return out;
}

std::string read_file_bytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw Error("cannot open file: " + path);
  // fopen succeeds on a directory, whose seek-to-end "size" is garbage: only
  // a regular file's size is trusted.
  struct stat st{};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    throw Error("not a regular file: " + path);
  }
  std::string data(static_cast<std::size_t>(st.st_size), '\0');
  if (!data.empty() && std::fread(data.data(), 1, data.size(), f) != data.size()) {
    std::fclose(f);
    throw Error("short read from file: " + path);
  }
  std::fclose(f);
  return data;
}

}  // namespace ac::trace
