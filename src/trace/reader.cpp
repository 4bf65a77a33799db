#include "trace/reader.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
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

// --- the text scan ------------------------------------------------------------

/// The blanks trim() strips, less the '\n' that ends a line: ' ', '\t',
/// '\v', '\f' and '\r'. One compare rejects every byte above ' '.
bool is_blank(char c) {
  constexpr std::uint64_t kBlanks = 1ull << ' ' | 1ull << '\t' | 1ull << '\v' | 1ull << '\f' |
                                    1ull << '\r';
  const auto u = static_cast<unsigned char>(c);
  return u <= ' ' && ((kBlanks >> u) & 1) != 0;
}

const char* skip_blanks(const char* p, const char* end) {
  while (p != end && is_blank(*p)) ++p;
  return p;
}

bool ends_field(const char* p, const char* end) { return p == end || *p == ',' || *p == '\n'; }

/// The ',' or '\n' (or the end) after the field that starts at p.
const char* field_end(const char* p, const char* end) {
  while (!ends_field(p, end)) ++p;
  return p;
}

/// [b, e) less its leading and trailing blanks.
std::string_view trimmed(const char* b, const char* e) {
  b = skip_blanks(b, e);
  while (e != b && is_blank(e[-1])) --e;
  return {b, static_cast<std::size_t>(e - b)};
}

/// A last-id memo and a direct-mapped cache in front of SymbolPool::intern.
/// Consecutive records repeat their function and block, and a trace holds a
/// few hundred distinct names, so almost every name resolves with one compare
/// against bytes already in the pool. A miss interns, so ids keep their
/// first-seen order.
class NameCache {
 public:
  explicit NameCache(SymbolPool& pool) : pool_(pool) { slots_.fill(SymbolPool::npos); }

  std::uint32_t intern(std::string_view name) {
    if (name.empty()) return SymbolPool::npos;
    std::uint32_t& slot = slots_[slot_of(name)];
    if (slot == SymbolPool::npos || pool_.view(slot) != name) slot = pool_.intern(name);
    return slot;
  }

  /// intern(), first trying `last`, the id the same field resolved to last.
  std::uint32_t intern(std::string_view name, std::uint32_t& last) {
    if (last == SymbolPool::npos || pool_.view(last) != name) last = intern(name);
    return last;
  }

 private:
  static constexpr unsigned kSlotBits = 10;

  static std::size_t slot_of(std::string_view s) {
    std::uint64_t head = 0, tail = 0;
    if (s.size() >= 8) {
      std::memcpy(&head, s.data(), 8);
      std::memcpy(&tail, s.data() + s.size() - 8, 8);
    } else {
      for (std::size_t i = 0; i < s.size(); ++i) {
        head |= std::uint64_t{static_cast<unsigned char>(s[i])} << (8 * i);
      }
    }
    const std::uint64_t h = (head ^ (tail * 0x9E3779B97F4A7C15ull) ^ s.size()) *
                            0xC2B2AE3D27D4EB4Full;
    return static_cast<std::size_t>(h >> (64 - kSlotBits));
  }

  SymbolPool& pool_;
  std::array<std::uint32_t, std::size_t{1} << kSlotBits> slots_;
};

/// One forward scan over a chunk of trace text. Each line is read once, left
/// to right, and each field is parsed where it sits: integers by the
/// scan_digits kernel, floats by parse_f64, names through a NameCache. Only a
/// line that opens with "0" looks ahead, across its next four fields, because
/// a sixth field is what makes it a block header rather than a callee operand
/// ("0,bits,value,is_reg,name"). Every malformed header, operand line or
/// numeric field throws TraceFormatError naming the field.
///
/// Each record's site is found through a successor memo: the site that
/// followed the previous record's site last time. Its header and operand
/// templates are checked field by field as the record is read, names as
/// bytes against the pool, so a hit interns nothing. The first field that
/// differs ends the check; the record's site is then interned by content
/// (TraceBuffer::intern_site) once the record ends.
class TextScan {
 public:
  TextScan(std::string_view text, TraceBuffer& buf)
      : p_(text.data()), end_(text.data() + text.size()), buf_(buf), names_(buf.pool()) {}

  /// Append every block of the text to the buffer.
  void run() {
    bool open = false;  // a record is taking operands
    while (p_ != end_) {
      line_ = p_;
      counted_ = false;
      p_ = skip_blanks(p_, end_);
      if (p_ == end_) break;
      if (*p_ == '\n') {  // a blank line
        ++p_;
        continue;
      }
      const char first = *p_;
      const char* after = skip_blanks(p_ + 1, end_);
      const bool single = ends_field(after, end_);
      if (first == '0' && single) {
        p_ = after;
        const char* f[4];  // fields 1-4
        int n = 0;
        while (n < 4 && p_ != end_ && *p_ == ',') {
          f[n++] = p_ + 1;
          p_ = field_end(p_ + 1, end_);
        }
        if (n == 4 && p_ != end_ && *p_ == ',') {
          if (open) finish();
          header(f);
          open = true;
        } else if (n == 4 && open) {
          callee(f);
        } else {
          fail(open ? "operand line needs 5 fields: '" : "bad block header: '");
        }
      } else if (!open) {
        fail("bad block header: '");
      } else if ((first == 'r' || first == 'f') && single) {
        p_ = after;
        operand(first == 'r' ? OperandSlot::Result : OperandSlot::Param);
      } else {
        operand(OperandSlot::Input);
      }
      if (p_ != end_ && *p_ == ',') {  // extra fields end the line unread
        const void* nl = std::memchr(p_, '\n', static_cast<std::size_t>(end_ - p_));
        p_ = nl ? static_cast<const char*>(nl) : end_;
      }
      if (p_ != end_) ++p_;  // the '\n'
    }
    if (open) finish();
  }

 private:
  /// How a field is spelled: parse_i64's, parse_u64's or value_from_text's
  /// syntax.
  enum class Syntax { Signed, Unsigned, Value };

  /// "0,line,func,bb,opcode,dyn_id": fields 1-4 start at f, dyn_id after p_.
  void header(const char* const f[4]) {
    counted_ = true;
    const char* dyn = p_ + 1;
    p_ = f[0];
    key_.line = int_field<std::int32_t>("source line");
    const std::string_view func = trimmed(f[1], f[2] - 1);
    const std::string_view bb = trimmed(f[2], f[3] - 1);
    p_ = f[3];
    const auto opnum = int_field<std::int32_t>("opcode");
    if (!is_known_opcode(opnum)) {
      const std::string_view line = line_text();
      throw TraceFormatError(strf("unknown opcode %d at dyn record '%.*s'", opnum,
                                  static_cast<int>(line.size()), line.data()));
    }
    key_.opcode = static_cast<Opcode>(opnum);
    p_ = dyn;
    dyn_id_ = u64_field("dyn_id");
    value_offset_ = buf_.values().size();
    key_ops_.clear();

    cand_ = prev_ < succ_.size() ? succ_[prev_] : SymbolPool::npos;
    const SymbolPool& pool = buf_.pool();
    if (cand_ != SymbolPool::npos) {
      const Site& c = buf_.sites()[cand_];
      if (c.line == key_.line && c.opcode == key_.opcode && pool.view(c.func) == func &&
          pool.view(c.bb) == bb) {
        key_.func = c.func;
        key_.bb = c.bb;
        return;
      }
      cand_ = SymbolPool::npos;
    }
    key_.func = names_.intern(func, last_func_);
    key_.bb = names_.intern(bb, last_bb_);
  }

  /// The operand just read: checked against the candidate site's template,
  /// else its name interned.
  void add_operand(OperandSlot slot, std::int32_t index, std::int32_t bits, ValueKind kind,
                   bool is_reg, std::string_view name, std::uint64_t raw) {
    OperandTemplate t;
    t.index = index;
    t.bits = bits;
    t.flags = OperandTemplate::pack_flags(slot, kind, is_reg);
    const std::size_t k = key_ops_.size();
    if (cand_ != SymbolPool::npos) {
      const Site& c = buf_.sites()[cand_];
      const OperandTemplate* ops = buf_.templates_of(c);
      if (k < c.op_count && ops[k].index == t.index && ops[k].bits == t.bits &&
          ops[k].flags == t.flags && buf_.pool().view(ops[k].name) == name) {
        t.name = ops[k].name;
      } else {
        cand_ = SymbolPool::npos;
      }
    }
    if (cand_ == SymbolPool::npos) t.name = names_.intern(name);
    key_ops_.push_back(t);
    buf_.values().push_back(raw);
  }

  /// "0,bits,value,is_reg,name": fields 1-4 start at f, and p_ ends the line.
  void callee(const char* const f[4]) {
    counted_ = true;
    const char* eol = p_;
    p_ = f[0];
    const auto bits = int_field<std::int32_t>("operand bits");
    p_ = f[1];
    ValueKind kind;
    const std::uint64_t raw = value_field(kind);
    p_ = f[2];
    const bool is_reg = int_field<bool>("operand is_reg");
    p_ = eol;
    add_operand(OperandSlot::Callee, 0, bits, kind, is_reg, trimmed(f[3], eol), raw);
  }

  /// "slot,bits,value,is_reg,name", p_ past the slot unless it is an index.
  void operand(OperandSlot slot) {
    std::int32_t index = 0;
    if (slot == OperandSlot::Input) {
      index = int_field<std::int32_t>("operand index");
      if (index <= 0) {
        check_count();
        fail("bad operand index in '");
      }
    }
    next_field();
    const auto bits = int_field<std::int32_t>("operand bits");
    next_field();
    ValueKind kind;
    const std::uint64_t raw = value_field(kind);
    next_field();
    const bool is_reg = int_field<bool>("operand is_reg");
    next_field();
    const char* name = p_;
    p_ = field_end(p_, end_);
    add_operand(slot, index, bits, kind, is_reg, trimmed(name, p_), raw);
  }

  void finish() {
    key_.op_count = static_cast<std::uint32_t>(key_ops_.size());
    std::uint32_t site = cand_;
    if (site == SymbolPool::npos || buf_.sites()[site].op_count != key_.op_count) {
      site = buf_.intern_site(key_, key_ops_.data());
    }
    buf_.push_record(site, value_offset_, dyn_id_);
    if (prev_ != SymbolPool::npos) {
      if (prev_ >= succ_.size()) succ_.resize(buf_.sites().size(), SymbolPool::npos);
      succ_[prev_] = site;
    }
    prev_ = site;
  }

  /// Step over the ',' before the next field of an operand line.
  void next_field() {
    if (p_ == end_ || *p_ != ',') fail("operand line needs 5 fields: '");
    ++p_;
  }

  /// The signed decimal field at p_, which must fit T (a bool: 0 or 1).
  template <class T>
  T int_field(const char* what) {
    const char* field = p_;
    std::int64_t v = 0;
    if (scan_i64(v)) {
      if constexpr (std::is_same_v<T, bool>) {
        if (v == 0 || v == 1) return v == 1;
      } else if (std::in_range<T>(v)) {
        return static_cast<T>(v);
      }
    }
    bad_field(field, what, Syntax::Signed);
  }

  std::uint64_t u64_field(const char* what) {
    const char* digits = skip_blanks(p_, end_);
    const DigitScan d = scan_digits(digits, end_, 10, UINT64_MAX);
    const char* q = skip_blanks(d.ptr, end_);
    if (d.overflow || d.ptr == digits || !ends_field(q, end_)) {
      bad_field(p_, what, Syntax::Unsigned);
    }
    p_ = q;
    return d.value;
  }

  /// The value field at p_ as its 8-byte payload (raw_of), with its kind:
  /// value_from_text's dispatch. Addresses and integers parse in place;
  /// floats, and any field that does not parse in place, go through
  /// value_from_text.
  std::uint64_t value_field(ValueKind& kind) {
    const char* field = p_;
    const char* q = skip_blanks(p_, end_);
    if (end_ - q > 1 && q[0] == '0' && q[1] == 'x') {
      const char* digits = q + 2;
      const DigitScan d = scan_digits(digits, end_, 16, UINT64_MAX);
      q = skip_blanks(d.ptr, end_);
      if (!d.overflow && d.ptr != digits && ends_field(q, end_)) {
        p_ = q;
        kind = ValueKind::Addr;
        return d.value;
      }
    } else if (std::int64_t v = 0; scan_i64(v)) {
      kind = ValueKind::Int;
      return std::bit_cast<std::uint64_t>(v);
    }
    const char* end = field_end(field, end_);
    Value v;
    try {
      v = value_from_text({field, static_cast<std::size_t>(end - field)});
    } catch (const Error&) {
      bad_field(field, "operand value", Syntax::Value);
    }
    p_ = end;
    kind = v.kind;
    return raw_of(v);
  }

  /// Parse a signed decimal (parse_i64's syntax) at p_ and move p_ to the
  /// field's end; false, with p_ unmoved, when the field is anything else.
  bool scan_i64(std::int64_t& out) {
    const char* q = skip_blanks(p_, end_);
    const bool neg = q != end_ && *q == '-';
    if (q != end_ && (*q == '-' || *q == '+')) ++q;
    const DigitScan d =
        scan_digits(q, end_, 10, neg ? std::uint64_t{1} << 63 : std::uint64_t{INT64_MAX});
    if (d.overflow || d.ptr == q) return false;
    q = skip_blanks(d.ptr, end_);
    if (!ends_field(q, end_)) return false;
    out = neg ? static_cast<std::int64_t>(0 - d.value) : static_cast<std::int64_t>(d.value);
    p_ = q;
    return true;
  }

  std::string_view line_text() const {
    const void* nl = std::memchr(line_, '\n', static_cast<std::size_t>(end_ - line_));
    const char* e = nl ? static_cast<const char*>(nl) : end_;
    return {line_, static_cast<std::size_t>(e - line_)};
  }

  /// An operand line is first checked for its 5 fields, as a whole, so a
  /// short line reports that before any bad field in it.
  void check_count() const {
    if (counted_) return;
    const std::string_view line = line_text();
    if (std::count(line.begin(), line.end(), ',') < 4) {
      throw TraceFormatError("operand line needs 5 fields: '" + std::string(line) + "'");
    }
  }

  /// Throw `prefix` + the line + "'".
  [[noreturn]] __attribute__((cold, noinline)) void fail(const char* prefix) const {
    throw TraceFormatError(prefix + std::string(line_text()) + "'");
  }

  /// Throw the error for the field at `field` that did not parse in place or
  /// did not fit: the canonical parser's message when it rejects the field,
  /// else the range error.
  [[noreturn]] __attribute__((cold, noinline)) void bad_field(const char* field,
                                                              const char* what,
                                                              Syntax syntax) const {
    check_count();
    const std::string_view text(field, static_cast<std::size_t>(field_end(field, end_) - field));
    const std::string_view line = line_text();
    try {
      switch (syntax) {
        case Syntax::Signed: (void)parse_i64(text); break;
        case Syntax::Unsigned: (void)parse_u64(text); break;
        case Syntax::Value: (void)value_from_text(text); break;
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

  const char* p_;
  const char* const end_;
  const char* line_ = nullptr;  // the start of the line being read
  bool counted_ = false;        // the line is known to hold enough fields
  TraceBuffer& buf_;
  NameCache names_;
  std::uint32_t last_func_ = SymbolPool::npos, last_bb_ = SymbolPool::npos;
  // The record being read: its header and templates, its first value, its
  // dyn_id, and the site it still matches (npos: none).
  Site key_;
  std::vector<OperandTemplate> key_ops_;
  std::size_t value_offset_ = 0;
  std::uint64_t dyn_id_ = 0;
  std::uint32_t cand_ = SymbolPool::npos;
  // The successor memo: succ_[s] is the site that followed site s last time.
  std::vector<std::uint32_t> succ_;
  std::uint32_t prev_ = SymbolPool::npos;
};

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
  // chunk of input. More threads cut ~8 chunks per worker, unless the input
  // is too small to be worth splitting: small chunks let the caller splice
  // one while the workers parse the next few, within the in-flight bound.
  constexpr std::size_t kSegment = 8u << 20;
  constexpr std::size_t kMinSplit = 256u << 10;
  threads = std::clamp(threads, 1, 256);  // a runaway request must not exhaust thread stacks
  std::size_t target = kSegment;
  if (threads > 1) {
    target = text.size() < kMinSplit
                 ? text.size()
                 : text.size() / (static_cast<std::size_t>(threads) * 8) + 1;
  }
  const auto chunks = chunk_at_block_boundaries(text, target);

  // Workers parse chunks into private buffers; the calling thread is
  // run_chunks' in-order consumer, so symbols join the output pool in input
  // order and every thread count yields the same buffer, ids included. One
  // thread is the serial parse: run_chunks runs each chunk inline and it
  // parses straight into the output, so no chunk buffer sits beside it. The
  // in-flight bound keeps at most 2 claimed-but-unspliced chunks per worker,
  // a quarter of the input, alive: workers that parse faster than the caller
  // splices wait rather than pile parsed chunks up beside the output. A parse
  // error cancels unclaimed chunks and resurfaces here as the lowest failing
  // chunk's error — the one the first bad block raises.
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
        if (before == 0) {
          dst.reserve(sub.size() / kTextBytesPerRecord + 1,
                      sub.size() / kTextBytesPerOperand + 1);
        }
        TextScan(sub, dst).run();
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
                      static_cast<std::size_t>(static_cast<double>(out.values().size()) *
                                               scale) +
                          1);
        }
        if (progress) progress(chunks[c].first, chunks[c].second);
      });
  return out;
}

}  // namespace ac::trace
