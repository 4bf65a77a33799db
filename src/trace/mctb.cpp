#include "trace/mctb.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "support/crc32.hpp"
#include "support/executor.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/strings.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"
#include "trace/opcode.hpp"

namespace ac::trace {

namespace {

constexpr std::uint32_t kMagic = 0x4254434Du;  // "MCTB" little-endian
constexpr std::uint32_t kVersion = 1;
constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kSectionHeaderSize = 57;
constexpr std::size_t kMaxStages = 4;
static_assert(kMctbFrameHeaderBytes == 4 + kSectionHeaderSize, "frame = magic + section header");

// Section kinds.
constexpr std::uint32_t kSecSymbols = 1;
constexpr std::uint32_t kSecRecords = 2;
constexpr std::uint32_t kSecOperands = 3;

// Per-element raw column bytes (the decoder's layout check).
constexpr std::size_t kRecordStride = 8 + 4 + 4 + 4 + 4 + 1;   // dyn,func,bb,opcnt,line,opcode
constexpr std::size_t kOperandStride = 8 + 4 + 4 + 4 + 1;      // value,name,index,bits,flags

void put_u32(std::string& out, std::uint32_t v) {
  out.append(reinterpret_cast<const char*>(&v), 4);
}
void put_u64(std::string& out, std::uint64_t v) {
  out.append(reinterpret_cast<const char*>(&v), 8);
}

/// Bounds-checked little-endian reader over the mapped container bytes.
struct Cursor {
  std::string_view data;
  std::size_t pos = 0;

  std::uint8_t u8() {
    need(1);
    return static_cast<std::uint8_t>(data[pos++]);
  }
  std::uint32_t u32() {
    need(4);
    std::uint32_t v;
    std::memcpy(&v, data.data() + pos, 4);
    pos += 4;
    return v;
  }
  std::uint64_t u64() {
    need(8);
    std::uint64_t v;
    std::memcpy(&v, data.data() + pos, 8);
    pos += 8;
    return v;
  }
  void need(std::size_t n) const {
    if (pos + n > data.size()) throw TraceFormatError("truncated MCTB container");
  }
};

struct SectionHeader {
  std::uint32_t kind = 0;
  std::uint32_t chunk = 0;
  std::uint64_t count = 0;     // elements in this section
  std::uint64_t aux = 0;       // Symbols: arena bytes; Records: first operand index
  std::uint64_t raw_size = 0;  // pre-codec payload bytes
  std::uint64_t payload_off = 0;
  std::uint64_t payload_size = 0;
  std::uint32_t payload_crc = 0;
  CodecChain codec;
};

void put_section_header(std::string& out, const SectionHeader& s) {
  put_u32(out, s.kind);
  put_u32(out, s.chunk);
  put_u64(out, s.count);
  put_u64(out, s.aux);
  put_u64(out, s.raw_size);
  put_u64(out, s.payload_off);
  put_u64(out, s.payload_size);
  put_u32(out, s.payload_crc);
  const auto& stages = s.codec.stages();
  out.push_back(static_cast<char>(stages.size()));
  for (std::size_t i = 0; i < kMaxStages; ++i) {
    out.push_back(i < stages.size() ? static_cast<char>(stages[i]) : '\0');
  }
}

SectionHeader read_section_header(Cursor& cur) {
  SectionHeader s;
  s.kind = cur.u32();
  s.chunk = cur.u32();
  s.count = cur.u64();
  s.aux = cur.u64();
  s.raw_size = cur.u64();
  s.payload_off = cur.u64();
  s.payload_size = cur.u64();
  s.payload_crc = cur.u32();
  const std::uint8_t nstages = cur.u8();
  std::uint8_t ids[kMaxStages];
  for (auto& id : ids) id = cur.u8();
  if (nstages > kMaxStages) {
    throw TraceFormatError(strf("MCTB section declares %u codec stages (max %zu)", nstages,
                                kMaxStages));
  }
  try {
    s.codec = CodecChain::from_ids(ids, nstages);
  } catch (const CodecError& e) {
    throw TraceFormatError(std::string("MCTB section header: ") + e.what());
  }
  return s;
}

/// The operand-value predictor slot for a name id: one slot per symbol plus
/// a trailing slot for unnamed operands (SymbolPool::npos).
std::size_t predictor_slot(std::uint32_t name, std::size_t nsyms) {
  return name == SymbolPool::npos ? nsyms : name;
}

// --- column encoders --------------------------------------------------------

std::string encode_symbols(const SymbolPool& pool, std::uint64_t& arena_bytes) {
  const std::size_t n = pool.size();
  std::vector<std::uint32_t> lens(n);
  std::string bytes;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string_view s = pool.view(static_cast<std::uint32_t>(i));
    lens[i] = static_cast<std::uint32_t>(s.size());
    bytes.append(s);
  }
  arena_bytes = bytes.size();
  std::string raw = shuffle_planes(lens.data(), n, 4);
  raw += bytes;
  return raw;
}

std::string encode_record_chunk(const PackedRecord* recs, std::size_t n) {
  std::vector<std::uint64_t> dyn(n);
  std::vector<std::uint32_t> func(n), bb(n), opcnt(n), line(n);
  std::string opcode(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    dyn[i] = recs[i].dyn_id;
    func[i] = recs[i].func;
    bb[i] = recs[i].bb;
    opcnt[i] = recs[i].op_count;
    line[i] = static_cast<std::uint32_t>(recs[i].line);
    opcode[i] = static_cast<char>(recs[i].opcode);
  }
  zigzag_delta_encode(dyn.data(), n);  // dyn[i] becomes the zigzag-folded delta
  std::string raw = shuffle_planes(dyn.data(), n, 8);
  raw += shuffle_planes(func.data(), n, 4);
  raw += shuffle_planes(bb.data(), n, 4);
  raw += shuffle_planes(opcnt.data(), n, 4);
  raw += shuffle_planes(line.data(), n, 4);
  raw += opcode;
  return raw;
}

std::string encode_operand_chunk(const PackedOperand* ops, std::size_t n, std::size_t nsyms) {
  std::vector<std::uint64_t> value(n);
  std::vector<std::uint32_t> name(n), index(n), bits(n);
  std::string flags(n, '\0');
  // Delta against the last value seen for the same operand name: per-variable
  // address streams are near-monotone, so the zigzag-folded delta is almost
  // always a couple of low bytes. The predictor resets per chunk, keeping
  // chunks independently decodable.
  std::vector<std::uint64_t> last(nsyms + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t slot = predictor_slot(ops[i].name, nsyms);
    value[i] = zigzag_encode(ops[i].raw - last[slot]);
    last[slot] = ops[i].raw;
    name[i] = ops[i].name;
    index[i] = static_cast<std::uint32_t>(ops[i].index);
    bits[i] = static_cast<std::uint32_t>(ops[i].bits);
    flags[i] = static_cast<char>(ops[i].flags);
  }
  std::string raw = shuffle_planes(value.data(), n, 8);
  raw += shuffle_planes(name.data(), n, 4);
  raw += shuffle_planes(index.data(), n, 4);
  raw += shuffle_planes(bits.data(), n, 4);
  raw += flags;
  return raw;
}

// --- column decoders --------------------------------------------------------

/// Per-worker decode scratch: every heap buffer a chunk decode touches. One
/// instance lives per worker and is reused across all the chunks that worker
/// claims, so a million-chunk decode performs a handful of warm-up
/// allocations instead of ~10 per chunk.
struct DecodeScratch {
  std::string rec_raw, op_raw, chain;
  std::vector<std::uint64_t> u64col;
  std::vector<std::uint32_t> col_a, col_b, col_c, col_d;
  std::vector<std::uint64_t> last;  // operand value predictor slots
};

/// Unshuffle one fixed-stride column out of `raw` into `out`, advancing `off`.
template <typename T>
void take_column(std::string_view raw, std::size_t& off, std::size_t n, std::vector<T>& out) {
  out.resize(n);
  unshuffle_planes(raw.substr(off, n * sizeof(T)), n, sizeof(T), out.data());
  off += n * sizeof(T);
}

void decode_record_chunk(std::string_view raw, const SectionHeader& sec,
                         std::uint64_t record_base, std::uint64_t operand_base,
                         std::uint64_t chunk_operands, TraceBuffer& buf, DecodeScratch& ds) {
  const std::size_t n = static_cast<std::size_t>(sec.count);
  std::size_t off = 0;
  take_column<std::uint64_t>(raw, off, n, ds.u64col);
  take_column<std::uint32_t>(raw, off, n, ds.col_a);
  take_column<std::uint32_t>(raw, off, n, ds.col_b);
  take_column<std::uint32_t>(raw, off, n, ds.col_c);
  take_column<std::uint32_t>(raw, off, n, ds.col_d);
  std::vector<std::uint64_t>& dyn = ds.u64col;
  zigzag_delta_decode(dyn.data(), n);  // dyn[i] becomes the absolute dyn_id
  const std::vector<std::uint32_t>& func = ds.col_a;
  const std::vector<std::uint32_t>& bb = ds.col_b;
  const std::vector<std::uint32_t>& opcnt = ds.col_c;
  const std::vector<std::uint32_t>& line = ds.col_d;
  const std::string_view opcode = raw.substr(off, n);

  const std::uint32_t nsyms = static_cast<std::uint32_t>(buf.pool().size());
  const auto check_sym = [&](std::uint32_t id, const char* what) {
    if (id >= nsyms && id != SymbolPool::npos) {
      throw TraceFormatError(strf("MCTB record chunk %u: %s symbol id %u out of range (%u "
                                  "symbols)", sec.chunk, what, id, nsyms));
    }
  };

  PackedRecord* out = buf.records().data() + record_base;
  std::uint64_t opsum = 0;
  for (std::size_t i = 0; i < n; ++i) {
    PackedRecord& rec = out[i];
    rec.dyn_id = dyn[i];
    check_sym(func[i], "function");
    check_sym(bb[i], "basic-block");
    rec.func = func[i];
    rec.bb = bb[i];
    const int opnum = static_cast<int>(static_cast<unsigned char>(opcode[i]));
    if (!is_known_opcode(opnum)) {
      throw TraceFormatError(strf("MCTB record chunk %u: unknown opcode %d", sec.chunk, opnum));
    }
    rec.opcode = static_cast<Opcode>(opnum);
    rec.line = static_cast<std::int32_t>(line[i]);
    rec.op_offset = static_cast<std::uint32_t>(operand_base + opsum);
    rec.op_count = opcnt[i];
    opsum += opcnt[i];
    if (opsum > chunk_operands) {
      throw TraceFormatError(strf("MCTB record chunk %u: operand counts overflow the chunk's "
                                  "%llu operands", sec.chunk,
                                  static_cast<unsigned long long>(chunk_operands)));
    }
  }
  if (opsum != chunk_operands) {
    throw TraceFormatError(strf("MCTB record chunk %u: operand counts sum to %llu, operand "
                                "section holds %llu", sec.chunk,
                                static_cast<unsigned long long>(opsum),
                                static_cast<unsigned long long>(chunk_operands)));
  }
}

void decode_operand_chunk(std::string_view raw, const SectionHeader& sec,
                          std::uint64_t operand_base, TraceBuffer& buf, DecodeScratch& ds) {
  const std::size_t n = static_cast<std::size_t>(sec.count);
  std::size_t off = 0;
  take_column<std::uint64_t>(raw, off, n, ds.u64col);
  take_column<std::uint32_t>(raw, off, n, ds.col_a);
  take_column<std::uint32_t>(raw, off, n, ds.col_b);
  take_column<std::uint32_t>(raw, off, n, ds.col_c);
  const std::vector<std::uint64_t>& value = ds.u64col;
  const std::vector<std::uint32_t>& name = ds.col_a;
  const std::vector<std::uint32_t>& index = ds.col_b;
  const std::vector<std::uint32_t>& bits = ds.col_c;
  const std::string_view flags = raw.substr(off, n);

  const std::size_t nsyms = buf.pool().size();
  ds.last.assign(nsyms + 1, 0);
  std::vector<std::uint64_t>& last = ds.last;
  PackedOperand* out = buf.operands().data() + operand_base;
  for (std::size_t i = 0; i < n; ++i) {
    PackedOperand& op = out[i];
    op.name = name[i];
    if (op.name >= nsyms && op.name != SymbolPool::npos) {
      throw TraceFormatError(strf("MCTB operand chunk %u: name symbol id %u out of range (%zu "
                                  "symbols)", sec.chunk, op.name, nsyms));
    }
    const std::uint8_t f = static_cast<std::uint8_t>(flags[i]);
    if ((f & 0xE0) != 0 || ((f >> 2) & 0x3) > 2) {
      throw TraceFormatError(strf("MCTB operand chunk %u: malformed flags byte 0x%02x",
                                  sec.chunk, f));
    }
    op.flags = f;
    const std::size_t slot = predictor_slot(op.name, nsyms);
    last[slot] += zigzag_decode(value[i]);
    op.raw = last[slot];
    op.index = static_cast<std::int32_t>(index[i]);
    op.bits = static_cast<std::int32_t>(bits[i]);
  }
}

void decode_payload(std::string_view bytes, const SectionHeader& sec, const char* what,
                    std::string& out, std::string& chain_scratch) {
  AC_SPAN("codec.decode_section");
  AC_FAULT("mctb.decode.section");
  const std::uint64_t t0 = now_ns();
  if (sec.payload_off > bytes.size() || sec.payload_size > bytes.size() - sec.payload_off) {
    throw TraceFormatError(strf("MCTB %s section payload [%llu, +%llu) exceeds the %zu-byte "
                                "container", what,
                                static_cast<unsigned long long>(sec.payload_off),
                                static_cast<unsigned long long>(sec.payload_size),
                                bytes.size()));
  }
  const std::string_view payload = bytes.substr(static_cast<std::size_t>(sec.payload_off),
                                                static_cast<std::size_t>(sec.payload_size));
  // fault::weakened lets the fuzz self-test plant a bug here and prove the
  // campaign finds the resulting silent corruption; always intact in prod.
  if (crc32(payload.data(), payload.size()) != sec.payload_crc &&
      !fault::weakened("mctb.section_crc")) {
    throw TraceFormatError(strf("MCTB %s section CRC mismatch (chunk %u)", what, sec.chunk));
  }
  try {
    sec.codec.decode_into(payload, static_cast<std::size_t>(sec.raw_size), {}, out,
                          chain_scratch);
    static auto& decoded = telemetry::metrics().counter("decode.bytes_decoded");
    static auto& ns = telemetry::metrics().histogram("codec.decode_ns");
    decoded.add(out.size());
    ns.observe(now_ns() - t0);
  } catch (const CodecError& e) {
    throw TraceFormatError(strf("MCTB %s section (chunk %u): %s", what, sec.chunk, e.what()));
  }
}

// --- streaming writer -------------------------------------------------------

/// Byte destination for the streaming writer: write() appends in layout
/// order, patch() overwrites already-written bytes once payload sizes are
/// known (the header + section table fixup).
class ByteSink {
 public:
  virtual ~ByteSink() = default;
  virtual void write(const char* p, std::size_t n) = 0;
  virtual void patch(std::uint64_t off, const char* p, std::size_t n) = 0;
};

class StringByteSink final : public ByteSink {
 public:
  explicit StringByteSink(std::string& out) : out_(out) { out_.clear(); }
  void write(const char* p, std::size_t n) override { out_.append(p, n); }
  void patch(std::uint64_t off, const char* p, std::size_t n) override {
    std::memcpy(out_.data() + static_cast<std::size_t>(off), p, n);
  }

 private:
  std::string& out_;
};

/// Batches writes into ~1 MiB fwrite calls (the FileSink cadence); patch
/// seeks back, overwrites, and returns to the end.
class FileByteSink final : public ByteSink {
 public:
  FileByteSink(std::FILE* f, const std::string& path) : f_(f), path_(path) {
    buf_.reserve(kFlushThreshold + 4096);
  }
  void write(const char* p, std::size_t n) override {
    buf_.append(p, n);
    if (buf_.size() >= kFlushThreshold) flush();
  }
  void patch(std::uint64_t off, const char* p, std::size_t n) override {
    flush();
    if (::fseeko(f_, static_cast<off_t>(off), SEEK_SET) != 0) io_error();
    if (std::fwrite(p, 1, n, f_) != n) io_error();
    if (::fseeko(f_, 0, SEEK_END) != 0) io_error();
  }
  void flush() {
    if (buf_.empty()) return;
    if (std::fwrite(buf_.data(), 1, buf_.size(), f_) != buf_.size()) io_error();
    buf_.clear();
  }

 private:
  [[noreturn]] void io_error() const { throw Error("short write to trace file: " + path_); }
  static constexpr std::size_t kFlushThreshold = std::size_t{1} << 20;
  std::FILE* f_;
  std::string path_;
  std::string buf_;
};

/// The one container encoder: emits a placeholder header + section table,
/// streams each section's encoded payload through `sink` as soon as it is
/// built (peak memory: one chunk's columns + codec scratch), then patches
/// the real header + table over the placeholder. Every sink sees identical
/// bytes. `stream_faults` arms the mctb.stream.encode_section point on the
/// file-streaming path only. Returns the container size.
std::uint64_t encode_container(const TraceBuffer& buf, const MctbOptions& opts, ByteSink& sink,
                               bool stream_faults) {
  if (opts.codec.stages().size() > kMaxStages) {
    throw Error(strf("MCTB supports at most %zu codec stages, got '%s'", kMaxStages,
                     opts.codec.str().c_str()));
  }
  const std::size_t chunk_records = opts.chunk_records > 0 ? opts.chunk_records : 1;
  const std::size_t nrecords = buf.size();
  const std::size_t nchunks = (nrecords + chunk_records - 1) / chunk_records;
  const std::size_t nsections = 1 + 2 * nchunks;

  const std::size_t prefix = kHeaderSize + nsections * kSectionHeaderSize;
  {
    const std::string zeros(std::min(prefix, std::size_t{1} << 16), '\0');
    for (std::size_t w = 0; w < prefix;) {
      const std::size_t n = std::min(zeros.size(), prefix - w);
      sink.write(zeros.data(), n);
      w += n;
    }
  }

  std::vector<SectionHeader> headers;
  headers.reserve(nsections);
  std::uint64_t off = prefix;
  std::string payload, chain_scratch;
  const auto emit_section = [&](std::uint32_t kind, std::uint32_t chunk, std::uint64_t count,
                                std::uint64_t aux, std::string_view raw) {
    SectionHeader s;
    s.kind = kind;
    s.chunk = chunk;
    s.count = count;
    s.aux = aux;
    s.raw_size = raw.size();
    s.codec = opts.codec;
    AC_FAULT("mctb.encode.section");
    if (stream_faults) AC_FAULT("mctb.stream.encode_section");
    {
      AC_SPAN("codec.encode_section");
      const std::uint64_t t0 = now_ns();
      opts.codec.encode_into(raw, {}, payload, chain_scratch);
      static auto& raw_b = telemetry::metrics().counter("codec.raw_bytes");
      static auto& enc_b = telemetry::metrics().counter("codec.encoded_bytes");
      static auto& ns = telemetry::metrics().histogram("codec.encode_ns");
      raw_b.add(raw.size());
      enc_b.add(payload.size());
      ns.observe(now_ns() - t0);
    }
    s.payload_size = payload.size();
    s.payload_crc = crc32(payload.data(), payload.size());
    s.payload_off = off;
    off += s.payload_size;
    sink.write(payload.data(), payload.size());
    headers.push_back(std::move(s));
  };

  {
    std::uint64_t arena_bytes = 0;
    const std::string sym_raw = encode_symbols(buf.pool(), arena_bytes);
    emit_section(kSecSymbols, 0, buf.pool().size(), arena_bytes, sym_raw);
  }

  const std::vector<PackedRecord>& records = buf.records();
  const std::vector<PackedOperand>& operands = buf.operands();
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk_records;
    const std::size_t count = std::min(chunk_records, nrecords - begin);
    const std::uint64_t op_base = records[begin].op_offset;
    const std::size_t end = begin + count;
    const std::uint64_t op_end = end < nrecords ? records[end].op_offset : operands.size();
    {
      const std::string rec_raw = encode_record_chunk(records.data() + begin, count);
      emit_section(kSecRecords, static_cast<std::uint32_t>(c), count, op_base, rec_raw);
    }
    {
      const std::string op_raw =
          encode_operand_chunk(operands.data() + op_base,
                               static_cast<std::size_t>(op_end - op_base), buf.pool().size());
      emit_section(kSecOperands, static_cast<std::uint32_t>(c), op_end - op_base, 0, op_raw);
    }
  }

  std::string head;
  head.reserve(prefix);
  put_u32(head, kMagic);
  put_u32(head, kVersion);
  put_u64(head, nrecords);
  put_u64(head, operands.size());
  put_u32(head, static_cast<std::uint32_t>(buf.pool().size()));
  put_u32(head, static_cast<std::uint32_t>(nchunks));
  put_u32(head, static_cast<std::uint32_t>(nsections));
  std::string table;
  table.reserve(nsections * kSectionHeaderSize);
  for (const SectionHeader& s : headers) put_section_header(table, s);
  put_u32(head, crc32(table.data(), table.size()));
  head += table;
  sink.patch(0, head.data(), head.size());
  return off;
}

}  // namespace

void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? std::string(".") : parent.string();
  AC_FAULT("fs.sync_dir");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) throw Error("cannot open directory for fsync: " + dir);
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  if (!ok) throw Error("directory fsync failed: " + dir);
}

bool is_mctb(std::string_view bytes) {
  if (bytes.size() < 4) return false;
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data(), 4);
  return magic == kMagic;
}

std::string mctb_to_bytes(const TraceBuffer& buf, const MctbOptions& opts) {
  std::string out;
  StringByteSink sink(out);
  encode_container(buf, opts, sink, /*stream_faults=*/false);
  return out;
}

void mctb_encode_into(const TraceBuffer& buf, const MctbOptions& opts, std::string& out) {
  StringByteSink sink(out);
  encode_container(buf, opts, sink, /*stream_faults=*/false);
}

std::uint64_t write_mctb_file(const TraceBuffer& buf, const std::string& path,
                              const MctbOptions& opts) {
  // Stream into a same-directory temp file, fsync it, rename over the target,
  // fsync the directory — the checkpoint engine's log-rotation discipline,
  // so a recode killed mid-write never leaves a torn container behind the
  // final name.
  const std::string tmp = path + ".tmp" + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw Error("cannot open trace file for writing: " + tmp);
  std::uint64_t total = 0;
  try {
    FileByteSink sink(f, tmp);
    total = encode_container(buf, opts, sink, /*stream_faults=*/true);
    sink.flush();
  } catch (...) {
    std::fclose(f);
    std::remove(tmp.c_str());
    throw;
  }
  bool ok = std::fflush(f) == 0;
  ok = ::fsync(::fileno(f)) == 0 && ok;
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    throw Error("short write to trace file: " + path);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw Error("cannot rename trace file into place: " + path);
  }
  fsync_parent_dir(path);
  return total;
}

TraceBuffer read_mctb(std::string_view bytes, const MctbReadOptions& opts) {
  const ParseProgress& progress = opts.progress;
  Cursor cur{bytes, 0};
  if (bytes.size() < kHeaderSize) throw TraceFormatError("truncated MCTB header");
  if (cur.u32() != kMagic) throw TraceFormatError("not an MCTB container (bad magic)");
  const std::uint32_t version = cur.u32();
  if (version != kVersion) {
    throw TraceFormatError(strf("unsupported MCTB version %u (this reader speaks %u)", version,
                                kVersion));
  }
  const std::uint64_t record_count = cur.u64();
  const std::uint64_t operand_count = cur.u64();
  const std::uint32_t symbol_count = cur.u32();
  const std::uint32_t chunk_count = cur.u32();
  const std::uint32_t section_count = cur.u32();
  const std::uint32_t table_crc = cur.u32();
  if (operand_count > 0xffffffffull) {
    throw TraceFormatError("MCTB container exceeds the 4G-operand TraceBuffer capacity");
  }
  if (section_count != 1 + 2 * static_cast<std::uint64_t>(chunk_count)) {
    throw TraceFormatError(strf("MCTB header: %u sections inconsistent with %u chunks",
                                section_count, chunk_count));
  }
  cur.need(static_cast<std::size_t>(section_count) * kSectionHeaderSize);
  if (crc32(bytes.data() + cur.pos, section_count * kSectionHeaderSize) != table_crc) {
    throw TraceFormatError("MCTB section table CRC mismatch");
  }

  SectionHeader symbols;
  bool have_symbols = false;
  std::vector<SectionHeader> rec_secs(chunk_count), op_secs(chunk_count);
  std::vector<char> have_rec(chunk_count, 0), have_op(chunk_count, 0);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionHeader s = read_section_header(cur);
    if (s.kind == kSecSymbols) {
      if (have_symbols) throw TraceFormatError("MCTB container holds two symbol sections");
      symbols = std::move(s);
      have_symbols = true;
    } else if (s.kind == kSecRecords || s.kind == kSecOperands) {
      if (s.chunk >= chunk_count) {
        throw TraceFormatError(strf("MCTB section addresses chunk %u of %u", s.chunk,
                                    chunk_count));
      }
      auto& slot = s.kind == kSecRecords ? rec_secs[s.chunk] : op_secs[s.chunk];
      auto& have = s.kind == kSecRecords ? have_rec[s.chunk] : have_op[s.chunk];
      if (have) throw TraceFormatError(strf("MCTB chunk %u appears twice", s.chunk));
      slot = std::move(s);
      have = 1;
    } else {
      throw TraceFormatError(strf("MCTB section of unknown kind %u", s.kind));
    }
  }
  if (!have_symbols) throw TraceFormatError("MCTB container has no symbol section");
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    if (!have_rec[c] || !have_op[c]) {
      throw TraceFormatError(strf("MCTB chunk %u is missing a record or operand section", c));
    }
  }

  // The chunks must tile the record and operand arrays exactly, and every
  // section's raw size must match its declared element count — checked here,
  // before the output arrays are sized, so a forged header can neither
  // trigger a giant allocation nor hand the decoder mismatched columns.
  if (symbols.count != symbol_count) {
    throw TraceFormatError("MCTB symbol section count disagrees with the header");
  }
  if (symbols.raw_size != static_cast<std::uint64_t>(symbol_count) * 4 + symbols.aux) {
    throw TraceFormatError("MCTB symbol section raw size disagrees with its layout");
  }
  std::vector<std::uint64_t> record_base(chunk_count, 0);
  std::uint64_t rsum = 0, osum = 0, raw_total = symbols.raw_size;
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    if (rec_secs[c].raw_size != rec_secs[c].count * kRecordStride ||
        op_secs[c].raw_size != op_secs[c].count * kOperandStride) {
      throw TraceFormatError(strf("MCTB chunk %u raw size disagrees with its element count",
                                  c));
    }
    raw_total += rec_secs[c].raw_size + op_secs[c].raw_size;
    record_base[c] = rsum;
    if (rec_secs[c].aux != osum) {
      throw TraceFormatError(strf("MCTB chunk %u: operand base %llu does not tile (expected "
                                  "%llu)", c, static_cast<unsigned long long>(rec_secs[c].aux),
                                  static_cast<unsigned long long>(osum)));
    }
    rsum += rec_secs[c].count;
    osum += op_secs[c].count;
    if (rsum > record_count || osum > operand_count) {
      throw TraceFormatError(strf("MCTB chunk %u overflows the declared record/operand counts",
                                  c));
    }
  }
  if (rsum != record_count || osum != operand_count) {
    throw TraceFormatError(strf("MCTB chunks cover %llu records / %llu operands, header "
                                "declares %llu / %llu",
                                static_cast<unsigned long long>(rsum),
                                static_cast<unsigned long long>(osum),
                                static_cast<unsigned long long>(record_count),
                                static_cast<unsigned long long>(operand_count)));
  }
  // Plausibility cap: even the fully stacked chains expand well under 2^12
  // per encoded byte, so a header demanding more is forged — reject before
  // allocating anything proportional to it.
  if (raw_total / 4096 > bytes.size()) {
    throw TraceFormatError("MCTB header declares an implausibly large decoded size");
  }

  TraceBuffer buf;

  // Symbols decode serially (every chunk needs the pool). Size and layout
  // were validated against the header above, before any decode allocation.
  {
    AC_SPAN("decode.symbols");
    std::string raw, chain_scratch;
    decode_payload(bytes, symbols, "symbol", raw, chain_scratch);
    std::vector<std::uint32_t> lens(symbol_count);
    unshuffle_planes(std::string_view(raw).substr(0, symbol_count * 4), symbol_count, 4,
                     lens.data());
    std::size_t off = symbol_count * 4;
    for (std::uint32_t i = 0; i < symbol_count; ++i) {
      if (lens[i] == 0 || off + lens[i] > raw.size()) {
        throw TraceFormatError(strf("MCTB symbol %u is empty or overruns the arena", i));
      }
      const std::uint32_t id = buf.pool().intern(std::string_view(raw).substr(off, lens[i]));
      if (id != i) {
        throw TraceFormatError(strf("MCTB symbol table holds a duplicate at id %u", i));
      }
      off += lens[i];
    }
    if (off != raw.size()) {
      throw TraceFormatError("MCTB symbol arena holds trailing bytes");
    }
    if (progress) progress(static_cast<std::size_t>(symbols.payload_off),
                           static_cast<std::size_t>(symbols.payload_off + symbols.payload_size));
  }

  buf.records().resize(static_cast<std::size_t>(record_count));
  buf.operands().resize(static_cast<std::size_t>(operand_count));

  const auto decode_chunk = [&](std::uint32_t c, DecodeScratch& ds) {
    AC_SPAN("decode.chunk");
    // Sizes were validated against the element counts up front; the codec
    // chain enforces the exact raw size on decode.
    decode_payload(bytes, rec_secs[c], "record", ds.rec_raw, ds.chain);
    decode_payload(bytes, op_secs[c], "operand", ds.op_raw, ds.chain);
    decode_record_chunk(ds.rec_raw, rec_secs[c], record_base[c], rec_secs[c].aux,
                        op_secs[c].count, buf, ds);
    decode_operand_chunk(ds.op_raw, op_secs[c], rec_secs[c].aux, buf, ds);
    static auto& recs = telemetry::metrics().counter("decode.records_decoded");
    recs.add(rec_secs[c].count);
  };

  // Chunks land in disjoint slots of the preallocated arrays, so workers
  // share nothing but the read-only input and the finished pool. The shared
  // executor claims chunks in order, cancels unclaimed ones after a first
  // failure, and rethrows that failure with its original type + message —
  // so a corrupt chunk raises the exact error the serial decode would. The
  // ordered on_ready consumer replaces the old progress mutex.
  ExecutorOptions eopts;
  eopts.threads = opts.num_threads;
  const auto on_ready = [&](std::size_t c) {
    if (progress) {
      progress(static_cast<std::size_t>(rec_secs[c].payload_off),
               static_cast<std::size_t>(op_secs[c].payload_off + op_secs[c].payload_size));
    }
  };
  // One scratch arena per worker thread, reused across every chunk that
  // worker claims (executor workers are fresh threads per call, so the
  // arena's lifetime is this decode; on the calling thread it persists and
  // warms the next serial decode).
  run_chunks(
      chunk_count, eopts,
      [&](std::size_t c) {
        AC_FAULT("mctb.stream.decode_slot");
        thread_local DecodeScratch ds;
        decode_chunk(static_cast<std::uint32_t>(c), ds);
      },
      on_ready);
  return buf;
}

// --- MCTB record framing ----------------------------------------------------

namespace {

/// Offset of the CRC field in a frame: the magic, then the section header's
/// kind, chunk, count, aux, raw_size, payload_off and payload_size.
constexpr std::size_t kFrameCrcOffset = 4 + 4 + 4 + 8 + 8 + 8 + 8 + 8;

/// CRC32 of every byte of `frame` but its CRC field: the header fields the
/// log walk reads and the payload, under one checksum.
std::uint32_t frame_crc(std::string_view frame) {
  const std::uint32_t head = crc32(frame.data(), kFrameCrcOffset);
  return crc32(frame.data() + kFrameCrcOffset + 4, frame.size() - kFrameCrcOffset - 4, head);
}

}  // namespace

std::string mctb_frame(std::uint32_t kind, std::uint32_t seq, std::uint64_t aux,
                       std::string_view payload, const CodecChain& codec) {
  if (codec.stages().size() > kMaxStages) {
    throw Error(strf("MCTB supports at most %zu codec stages, got '%s'", kMaxStages,
                     codec.str().c_str()));
  }
  SectionHeader s;
  s.kind = kind;
  s.chunk = seq;
  s.count = 1;
  s.aux = aux;
  s.raw_size = payload.size();
  s.payload_off = 4 + kSectionHeaderSize;
  s.payload_size = payload.size();
  s.codec = codec;
  std::string out;
  out.reserve(4 + kSectionHeaderSize + payload.size());
  put_u32(out, kMctbFrameMagic);
  put_section_header(out, s);
  out.append(payload);
  const std::uint32_t crc = frame_crc(out);
  std::memcpy(out.data() + kFrameCrcOffset, &crc, 4);
  return out;
}

bool read_mctb_frame_header(std::string_view bytes, std::size_t pos, MctbFrameView& out) {
  if (pos > bytes.size() || bytes.size() - pos < 4 + kSectionHeaderSize) return false;
  std::uint32_t magic;
  std::memcpy(&magic, bytes.data() + pos, 4);
  if (magic != kMctbFrameMagic) return false;
  Cursor cur{bytes, pos + 4};
  SectionHeader s;
  try {
    s = read_section_header(cur);
  } catch (const TraceFormatError&) {
    return false;  // garbage or torn header bytes: the walk stops here
  }
  if (s.count != 1 || s.raw_size != s.payload_size ||
      s.payload_off != 4 + kSectionHeaderSize) {
    return false;
  }
  if (s.payload_size > bytes.size() - pos - 4 - kSectionHeaderSize) return false;
  out.kind = s.kind;
  out.seq = s.chunk;
  out.aux = s.aux;
  out.codec = s.codec;
  out.crc = s.payload_crc;
  out.payload =
      bytes.substr(pos + 4 + kSectionHeaderSize, static_cast<std::size_t>(s.payload_size));
  out.frame_size = 4 + kSectionHeaderSize + static_cast<std::size_t>(s.payload_size);
  return true;
}

bool read_mctb_frame(std::string_view bytes, std::size_t pos, MctbFrameView& out) {
  if (!read_mctb_frame_header(bytes, pos, out)) return false;
  return frame_crc(bytes.substr(pos, out.frame_size)) == out.crc;
}

}  // namespace ac::trace
