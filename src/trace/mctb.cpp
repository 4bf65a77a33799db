#include "trace/mctb.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
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
constexpr std::uint32_t kVersion = 2;
constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kSectionHeaderSize = 57;
constexpr std::size_t kMaxStages = 4;
static_assert(kMctbFrameHeaderBytes == 4 + kSectionHeaderSize, "frame = magic + section header");

// Section kinds.
constexpr std::uint32_t kSecSymbols = 1;
constexpr std::uint32_t kSecRecords = 2;
constexpr std::uint32_t kSecValues = 3;
constexpr std::uint32_t kSecSites = 4;

// Per-element raw column bytes (the decoder's layout checks).
constexpr std::size_t kSiteStride = 4 + 4 + 4 + 4 + 1;   // func, bb, line, op_count, opcode
constexpr std::size_t kTemplateStride = 4 + 4 + 4 + 1;   // name, index, bits, flags
constexpr std::size_t kRecordStride = 4;                 // site id
constexpr std::size_t kBreakStride = 4 + 8;              // chunk-local record, dyn_id
constexpr std::size_t kValueStride = 8;

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
  std::uint64_t aux = 0;       // Symbols: arena bytes; Sites: templates; Records: first dyn_id
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

// --- column encoders --------------------------------------------------------

std::string encode_symbols(const SymbolPool& pool, std::uint64_t& arena_bytes) {
  const std::size_t n = pool.size();
  std::vector<std::uint32_t> lens(n);
  arena_bytes = 0;
  for (std::size_t i = 0; i < n; ++i) {
    lens[i] = static_cast<std::uint32_t>(pool.view(static_cast<std::uint32_t>(i)).size());
    arena_bytes += lens[i];
  }
  std::string raw;
  raw.reserve(n * 4 + arena_bytes);
  shuffle_planes(lens.data(), n, 4, raw);
  for (std::size_t i = 0; i < n; ++i) raw.append(pool.view(static_cast<std::uint32_t>(i)));
  return raw;
}

/// The site table: the site columns, then the template column (the sites'
/// templates in site order, so each site's span is implied by the counts).
std::string encode_sites(const TraceBuffer& buf) {
  const std::vector<Site>& sites = buf.sites();
  const std::vector<OperandTemplate>& ops = buf.templates();
  const std::size_t n = sites.size(), m = ops.size();
  std::vector<std::uint32_t> func(n), bb(n), line(n), opcnt(n);
  std::string opcode(n, '\0');
  for (std::size_t i = 0; i < n; ++i) {
    func[i] = sites[i].func;
    bb[i] = sites[i].bb;
    line[i] = static_cast<std::uint32_t>(sites[i].line);
    opcnt[i] = sites[i].op_count;
    opcode[i] = static_cast<char>(sites[i].opcode);
  }
  std::vector<std::uint32_t> name(m), index(m), bits(m);
  std::string flags(m, '\0');
  for (std::size_t i = 0; i < m; ++i) {
    name[i] = ops[i].name;
    index[i] = static_cast<std::uint32_t>(ops[i].index);
    bits[i] = static_cast<std::uint32_t>(ops[i].bits);
    flags[i] = static_cast<char>(ops[i].flags);
  }
  std::string raw;
  raw.reserve(n * kSiteStride + m * kTemplateStride);
  shuffle_planes(func.data(), n, 4, raw);
  shuffle_planes(bb.data(), n, 4, raw);
  shuffle_planes(line.data(), n, 4, raw);
  shuffle_planes(opcnt.data(), n, 4, raw);
  raw += opcode;
  shuffle_planes(name.data(), m, 4, raw);
  shuffle_planes(index.data(), m, 4, raw);
  shuffle_planes(bits.data(), m, 4, raw);
  raw += flags;
  return raw;
}

/// Records [begin, begin + n): their site ids, then the dyn_id breaks inside
/// the chunk as (chunk-local record, dyn_id) pairs. The chunk's first dyn_id
/// travels in its section header, so each chunk stands alone.
std::string encode_record_chunk(const TraceBuffer& buf, std::size_t begin, std::size_t n) {
  std::vector<std::uint32_t> site(n);
  for (std::size_t i = 0; i < n; ++i) site[i] = buf.records()[begin + i].site;
  const std::vector<DynBreak>& breaks = buf.dyn_breaks();
  auto it = std::upper_bound(breaks.begin(), breaks.end(), std::uint64_t{begin},
                             [](std::uint64_t r, const DynBreak& b) { return r < b.record; });
  std::vector<std::uint32_t> at;
  std::vector<std::uint64_t> dyn;
  for (; it != breaks.end() && it->record < begin + n; ++it) {
    at.push_back(static_cast<std::uint32_t>(it->record - begin));
    dyn.push_back(it->dyn_id);
  }
  std::string raw;
  raw.reserve(n * kRecordStride + at.size() * kBreakStride);
  shuffle_planes(site.data(), n, 4, raw);
  shuffle_planes(at.data(), at.size(), 4, raw);
  shuffle_planes(dyn.data(), dyn.size(), 8, raw);
  return raw;
}

/// The values of records [begin, begin + n), each delta-encoded against the
/// last value of the same site operand (addresses are near-monotone per
/// operand, so deltas are tiny), zigzag-folded and plane-shuffled. The
/// predictor resets per chunk, keeping chunks independently decodable.
std::string encode_value_chunk(const TraceBuffer& buf, std::size_t begin, std::size_t n,
                               std::size_t nvalues, std::vector<std::uint64_t>& last) {
  last.assign(buf.templates().size(), 0);
  std::vector<std::uint64_t> delta;
  delta.reserve(nvalues);
  for (std::size_t i = begin; i < begin + n; ++i) {
    const RecordEntry& e = buf.records()[i];
    const Site& s = buf.sites()[e.site];
    const std::uint64_t* v = buf.values().data() + e.value_offset;
    for (std::uint32_t k = 0; k < s.op_count; ++k) {
      std::uint64_t& prev = last[s.op_offset + k];
      delta.push_back(zigzag_encode(v[k] - prev));
      prev = v[k];
    }
  }
  std::string raw;
  raw.reserve(delta.size() * kValueStride);
  shuffle_planes(delta.data(), delta.size(), 8, raw);
  return raw;
}

// --- column decoders --------------------------------------------------------

/// Per-worker decode scratch: every heap buffer a chunk decode touches. One
/// instance lives per worker and is reused across all the chunks that worker
/// claims, so a million-chunk decode performs a handful of warm-up
/// allocations instead of a few per chunk.
struct DecodeScratch {
  std::string rec_raw, val_raw, chain;
  std::vector<std::uint32_t> sites;  // the chunk's container site ids
  std::vector<std::uint64_t> last;   // value predictor slots
};

/// Columns are unshuffled this many elements at a time, into stack blocks
/// that stay in L1 while the records are assembled from them.
constexpr std::size_t kDecodeBlock = 512;

/// Put `n` decoded elements at index `at` of `array`: appended when the
/// array ends there (one thread decoding the chunks in order into reserved
/// arrays, so each element is written once), else copied into their slots
/// of an array sized up front for parallel workers.
template <class T>
void emit_block(PodArray<T>& array, std::size_t at, const T* block, std::size_t n) {
  if (array.size() == at) {
    array.insert(array.end(), block, block + n);
  } else {
    std::copy(block, block + n, array.begin() + at);
  }
}

/// A decoded site table: the container's sites (op_offset set), their
/// templates, and where each lands in the output buffer.
struct SiteTable {
  std::vector<Site> sites;
  std::vector<OperandTemplate> templates;
  std::vector<std::uint32_t> to;  // container site id -> output site id
};

void decode_sites(std::string_view raw, const SectionHeader& sec, std::uint32_t nsyms,
                  SiteTable& out) {
  const std::size_t n = static_cast<std::size_t>(sec.count);
  const std::size_t m = static_cast<std::size_t>(sec.aux);
  std::vector<std::uint32_t> func(n), bb(n), line(n), opcnt(n);
  std::size_t at = 0;
  for (std::uint32_t* col : {func.data(), bb.data(), line.data(), opcnt.data()}) {
    unshuffle_planes(raw.substr(at, 4 * n), n, 4, col);
    at += 4 * n;
  }
  const char* const opcode_col = raw.data() + at;
  at += n;
  std::vector<std::uint32_t> name(m), index(m), bits(m);
  for (std::uint32_t* col : {name.data(), index.data(), bits.data()}) {
    unshuffle_planes(raw.substr(at, 4 * m), m, 4, col);
    at += 4 * m;
  }
  const char* const flags_col = raw.data() + at;

  const auto check_sym = [&](std::uint32_t id, const char* what, std::size_t i) {
    if (id >= nsyms && id != SymbolPool::npos) {
      throw TraceFormatError(strf("MCTB site table: %s symbol id %u of entry %zu out of range "
                                  "(%u symbols)", what, id, i, nsyms));
    }
  };
  out.sites.resize(n);
  std::uint64_t offset = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Site& s = out.sites[i];
    check_sym(func[i], "function", i);
    check_sym(bb[i], "basic-block", i);
    s.func = func[i];
    s.bb = bb[i];
    s.line = static_cast<std::int32_t>(line[i]);
    const int opnum = static_cast<int>(static_cast<unsigned char>(opcode_col[i]));
    if (!is_known_opcode(opnum)) {
      throw TraceFormatError(strf("MCTB site table: site %zu has unknown opcode %d", i, opnum));
    }
    s.opcode = static_cast<Opcode>(opnum);
    if (opcnt[i] > m - offset) {
      throw TraceFormatError(strf("MCTB site table: site %zu's %u operands overrun the %zu-entry "
                                  "template column", i, opcnt[i], m));
    }
    s.op_offset = static_cast<std::uint32_t>(offset);
    s.op_count = opcnt[i];
    offset += opcnt[i];
  }
  if (offset != m) {
    throw TraceFormatError(strf("MCTB site table: its sites take %llu templates, the template "
                                "column holds %zu", static_cast<unsigned long long>(offset), m));
  }
  out.templates.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    OperandTemplate& t = out.templates[i];
    check_sym(name[i], "operand name", i);
    const auto f = static_cast<std::uint8_t>(flags_col[i]);
    if ((f & 0xE0) != 0 || ((f >> 2) & 0x3) > 2) {
      throw TraceFormatError(strf("MCTB site table: template %zu has malformed flags byte 0x%02x",
                                  i, f));
    }
    t.name = name[i];
    t.index = static_cast<std::int32_t>(index[i]);
    t.bits = static_cast<std::int32_t>(bits[i]);
    t.flags = f;
  }
}

/// Decode chunk `sec` of the record column into `out` from index
/// `record_base`, its values starting at `value_base`; the chunk's container
/// site ids go to ds.sites and its dyn_id breaks, with output record indices,
/// to `breaks`. `nvalues` is the chunk's value section count.
void decode_record_chunk(std::string_view raw, const SectionHeader& sec, const SiteTable& table,
                         std::uint64_t record_base, std::uint64_t value_base,
                         std::uint64_t nvalues, PodArray<RecordEntry>& out, DecodeScratch& ds,
                         std::vector<DynBreak>& breaks) {
  const std::size_t n = static_cast<std::size_t>(sec.count);
  const std::size_t nbreaks = (raw.size() - n * kRecordStride) / kBreakStride;
  const std::size_t nsites = table.sites.size();
  ds.sites.resize(n);
  std::uint64_t opsum = 0;
  RecordEntry block[kDecodeBlock];
  std::uint32_t site[kDecodeBlock];
  for (std::size_t first = 0; first < n; first += kDecodeBlock) {
    const std::size_t m = std::min(kDecodeBlock, n - first);
    unshuffle_block(raw.data(), n, first, m, 4, site);
    for (std::size_t i = 0; i < m; ++i) {
      if (site[i] >= nsites) {
        throw TraceFormatError(strf("MCTB record chunk %u: site id %u out of range (%zu sites)",
                                    sec.chunk, site[i], nsites));
      }
      ds.sites[first + i] = site[i];
      block[i] = RecordEntry{table.to[site[i]], static_cast<std::uint32_t>(value_base + opsum)};
      opsum += table.sites[site[i]].op_count;
      if (opsum > nvalues) {
        throw TraceFormatError(strf("MCTB value chunk %u: the value column holds %llu values, "
                                    "shorter than its records' sites need", sec.chunk,
                                    static_cast<unsigned long long>(nvalues)));
      }
    }
    emit_block(out, record_base + first, block, m);
  }
  if (opsum != nvalues) {
    throw TraceFormatError(strf("MCTB value chunk %u: its records' sites need %llu values, the "
                                "value column holds %llu", sec.chunk,
                                static_cast<unsigned long long>(opsum),
                                static_cast<unsigned long long>(nvalues)));
  }
  breaks.resize(nbreaks);
  if (nbreaks == 0) return;
  std::vector<std::uint32_t> at(nbreaks);
  std::vector<std::uint64_t> dyn(nbreaks);
  const std::string_view tail = raw.substr(n * kRecordStride);
  unshuffle_planes(tail.substr(0, 4 * nbreaks), nbreaks, 4, at.data());
  unshuffle_planes(tail.substr(4 * nbreaks), nbreaks, 8, dyn.data());
  for (std::size_t i = 0; i < nbreaks; ++i) {
    if (at[i] == 0 || at[i] >= n || (i > 0 && at[i] <= at[i - 1])) {
      throw TraceFormatError(strf("MCTB record chunk %u: dyn_id break at record %u is out of "
                                  "order or range", sec.chunk, at[i]));
    }
    breaks[i] = DynBreak{record_base + at[i], dyn[i]};
  }
}

/// Decode chunk `sec` of the value column into `out` from `value_base`,
/// walking the chunk's records (ds.sites) for each value's predictor slot.
void decode_value_chunk(std::string_view raw, const SectionHeader& sec, const SiteTable& table,
                        std::uint64_t value_base, PodArray<std::uint64_t>& out,
                        DecodeScratch& ds) {
  const std::size_t n = static_cast<std::size_t>(sec.count);
  ds.last.assign(table.templates.size(), 0);
  std::uint64_t block[kDecodeBlock];
  std::size_t have = 0, used = 0, first = 0;  // the block holds values [first, first + have)
  for (const std::uint32_t id : ds.sites) {
    const Site& s = table.sites[id];
    for (std::uint32_t k = 0; k < s.op_count; ++k) {
      if (used == have) {
        if (have != 0) emit_block(out, value_base + first, block, have);
        first += have;
        have = std::min(kDecodeBlock, n - first);
        unshuffle_block(raw.data(), n, first, have, 8, block);
        used = 0;
      }
      std::uint64_t& prev = ds.last[s.op_offset + k];
      prev += zigzag_decode(block[used]);
      block[used++] = prev;
    }
  }
  if (have != 0) emit_block(out, value_base + first, block, have);
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
  const std::size_t nsections = 2 + 2 * nchunks;

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
  emit_section(kSecSites, 0, buf.sites().size(), buf.templates().size(), encode_sites(buf));

  const PodArray<RecordEntry>& records = buf.records();
  std::vector<std::uint64_t> last;
  for (std::size_t c = 0; c < nchunks; ++c) {
    const std::size_t begin = c * chunk_records;
    const std::size_t count = std::min(chunk_records, nrecords - begin);
    const std::size_t end = begin + count;
    const std::uint64_t value_begin = records[begin].value_offset;
    const std::uint64_t value_end = end < nrecords ? records[end].value_offset : buf.values().size();
    emit_section(kSecRecords, static_cast<std::uint32_t>(c), count, buf.dyn_id(begin),
                 encode_record_chunk(buf, begin, count));
    emit_section(kSecValues, static_cast<std::uint32_t>(c), value_end - value_begin, 0,
                 encode_value_chunk(buf, begin, count, value_end - value_begin, last));
  }

  std::string head;
  head.reserve(prefix);
  put_u32(head, kMagic);
  put_u32(head, kVersion);
  put_u64(head, nrecords);
  put_u64(head, buf.values().size());
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
  TraceBuffer buf;
  read_mctb_into(bytes, buf, opts);
  return buf;
}

void read_mctb_into(std::string_view bytes, TraceBuffer& buf, const MctbReadOptions& opts) {
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
  const std::uint64_t value_count = cur.u64();
  const std::uint32_t symbol_count = cur.u32();
  const std::uint32_t chunk_count = cur.u32();
  const std::uint32_t section_count = cur.u32();
  const std::uint32_t table_crc = cur.u32();
  if (value_count > 0xffffffffull - buf.values().size()) {
    throw TraceFormatError("MCTB container exceeds the 4G-operand TraceBuffer capacity");
  }
  if (section_count != 2 + 2 * static_cast<std::uint64_t>(chunk_count)) {
    throw TraceFormatError(strf("MCTB header: %u sections inconsistent with %u chunks",
                                section_count, chunk_count));
  }
  cur.need(static_cast<std::size_t>(section_count) * kSectionHeaderSize);
  if (crc32(bytes.data() + cur.pos, section_count * kSectionHeaderSize) != table_crc) {
    throw TraceFormatError("MCTB section table CRC mismatch");
  }

  SectionHeader symbols, sites;
  bool have_symbols = false, have_sites = false;
  std::vector<SectionHeader> rec_secs(chunk_count), val_secs(chunk_count);
  std::vector<char> have_rec(chunk_count, 0), have_val(chunk_count, 0);
  for (std::uint32_t i = 0; i < section_count; ++i) {
    SectionHeader s = read_section_header(cur);
    if (s.kind == kSecSymbols || s.kind == kSecSites) {
      bool& have = s.kind == kSecSymbols ? have_symbols : have_sites;
      if (have) {
        throw TraceFormatError(strf("MCTB container holds two %s sections",
                                    s.kind == kSecSymbols ? "symbol" : "site"));
      }
      (s.kind == kSecSymbols ? symbols : sites) = std::move(s);
      have = true;
    } else if (s.kind == kSecRecords || s.kind == kSecValues) {
      if (s.chunk >= chunk_count) {
        throw TraceFormatError(strf("MCTB section addresses chunk %u of %u", s.chunk,
                                    chunk_count));
      }
      auto& slot = s.kind == kSecRecords ? rec_secs[s.chunk] : val_secs[s.chunk];
      auto& have = s.kind == kSecRecords ? have_rec[s.chunk] : have_val[s.chunk];
      if (have) throw TraceFormatError(strf("MCTB chunk %u appears twice", s.chunk));
      slot = std::move(s);
      have = 1;
    } else {
      throw TraceFormatError(strf("MCTB section of unknown kind %u", s.kind));
    }
  }
  if (!have_symbols) throw TraceFormatError("MCTB container has no symbol section");
  if (!have_sites) throw TraceFormatError("MCTB container has no site section");
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    if (!have_rec[c] || !have_val[c]) {
      throw TraceFormatError(strf("MCTB chunk %u is missing a record or value section", c));
    }
  }

  // The chunks must tile the record and value columns exactly, and every
  // section's raw size must match its declared element count — checked here,
  // before the output arrays are sized, so a forged header can neither
  // trigger a giant allocation nor hand the decoder mismatched columns.
  if (symbols.count != symbol_count) {
    throw TraceFormatError("MCTB symbol section count disagrees with the header");
  }
  if (symbols.raw_size != static_cast<std::uint64_t>(symbol_count) * 4 + symbols.aux) {
    throw TraceFormatError("MCTB symbol section raw size disagrees with its layout");
  }
  if (sites.count > sites.raw_size / kSiteStride || sites.aux > sites.raw_size / kTemplateStride ||
      sites.raw_size != sites.count * kSiteStride + sites.aux * kTemplateStride) {
    throw TraceFormatError("MCTB site section raw size disagrees with its layout");
  }
  std::vector<std::uint64_t> record_base(chunk_count, 0), value_base(chunk_count, 0);
  std::uint64_t rsum = 0, vsum = 0, raw_total = symbols.raw_size + sites.raw_size;
  for (std::uint32_t c = 0; c < chunk_count; ++c) {
    const SectionHeader& rs = rec_secs[c];
    const SectionHeader& vs = val_secs[c];
    const bool records_fit = rs.count != 0 && rs.count <= rs.raw_size / kRecordStride;
    const std::uint64_t breaks_raw = records_fit ? rs.raw_size - rs.count * kRecordStride : 0;
    if (!records_fit || breaks_raw % kBreakStride != 0 || breaks_raw / kBreakStride >= rs.count ||
        vs.raw_size % kValueStride != 0 || vs.raw_size / kValueStride != vs.count) {
      throw TraceFormatError(strf("MCTB chunk %u raw size disagrees with its element count",
                                  c));
    }
    raw_total += rs.raw_size + val_secs[c].raw_size;
    record_base[c] = rsum;
    value_base[c] = vsum;
    rsum += rs.count;
    vsum += val_secs[c].count;
    if (rsum > record_count || vsum > value_count) {
      throw TraceFormatError(strf("MCTB chunk %u overflows the declared record/value counts",
                                  c));
    }
  }
  if (rsum != record_count || vsum != value_count) {
    throw TraceFormatError(strf("MCTB chunks cover %llu records / %llu values, header "
                                "declares %llu / %llu",
                                static_cast<unsigned long long>(rsum),
                                static_cast<unsigned long long>(vsum),
                                static_cast<unsigned long long>(record_count),
                                static_cast<unsigned long long>(value_count)));
  }
  // Plausibility cap: even the fully stacked chains expand well under 2^12
  // per encoded byte, so a header demanding more is forged — reject before
  // allocating anything proportional to it.
  if (raw_total / 4096 > bytes.size()) {
    throw TraceFormatError("MCTB header declares an implausibly large decoded size");
  }

  // Symbols and sites decode serially (every chunk needs them). Size and
  // layout were validated against the header above, before any decode
  // allocation. They join a non-empty output buffer in container order, as
  // append_buffer merges them, and the chunks store the merged ids.
  SiteTable table;
  {
    AC_SPAN("decode.symbols");
    SymbolPool pool;
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
      const std::uint32_t id = pool.intern(std::string_view(raw).substr(off, lens[i]));
      if (id != i) {
        throw TraceFormatError(strf("MCTB symbol table holds a duplicate at id %u", i));
      }
      off += lens[i];
    }
    if (off != raw.size()) {
      throw TraceFormatError("MCTB symbol arena holds trailing bytes");
    }
    decode_payload(bytes, sites, "site", raw, chain_scratch);
    decode_sites(raw, sites, symbol_count, table);
    std::vector<std::uint32_t> merged_ids;
    if (buf.pool().size() == 0) {
      buf.pool() = std::move(pool);
    } else {
      merged_ids = buf.pool().merge(pool);
    }
    table.to = buf.merge_sites(table.sites, table.templates, merged_ids);
    if (progress) progress(static_cast<std::size_t>(symbols.payload_off),
                           static_cast<std::size_t>(sites.payload_off + sites.payload_size));
  }

  // Parallel workers fill slots of arrays sized here, left unwritten because
  // every slot gets decoded. One worker appends the chunks in order
  // (emit_block), into arrays reserved exactly when the buffer is empty;
  // appends to a trace grow it geometrically, so a daemon connection's k
  // chunk frames move its arrays O(log k) times. Either way each element is
  // written once. Each chunk's dyn_ids join the buffer in chunk order.
  const std::size_t record_start = buf.size();
  const std::size_t value_start = buf.values().size();
  const std::size_t records_end = record_start + static_cast<std::size_t>(record_count);
  const std::size_t values_end = value_start + static_cast<std::size_t>(value_count);
  const int workers = resolve_threads(opts.num_threads, chunk_count);
  if (workers > 1) {
    buf.records().resize_uninitialized(records_end);
    buf.values().resize_uninitialized(values_end);
  } else if (record_start == 0 && value_start == 0) {
    buf.records().reserve(records_end);
    buf.values().reserve(values_end);
  }
  std::vector<std::vector<DynBreak>> chunk_breaks(chunk_count);

  const auto decode_chunk = [&](std::uint32_t c, DecodeScratch& ds) {
    AC_SPAN("decode.chunk");
    // Sizes were validated against the element counts up front; the codec
    // chain enforces the exact raw size on decode.
    decode_payload(bytes, rec_secs[c], "record", ds.rec_raw, ds.chain);
    decode_payload(bytes, val_secs[c], "value", ds.val_raw, ds.chain);
    decode_record_chunk(ds.rec_raw, rec_secs[c], table, record_start + record_base[c],
                        value_start + value_base[c], val_secs[c].count, buf.records(), ds,
                        chunk_breaks[c]);
    decode_value_chunk(ds.val_raw, val_secs[c], table, value_start + value_base[c],
                       buf.values(), ds);
    static auto& recs = telemetry::metrics().counter("decode.records_decoded");
    recs.add(rec_secs[c].count);
  };

  // Chunks land in disjoint slots of the preallocated arrays, so workers
  // share nothing but the read-only input and the finished site table. The
  // shared executor claims chunks in order, cancels unclaimed ones after a
  // first failure, and rethrows that failure with its original type +
  // message — so a corrupt chunk raises the exact error the serial decode
  // would. The ordered on_ready consumer notes each chunk's dyn_ids and
  // reports progress.
  ExecutorOptions eopts;
  eopts.threads = workers;
  const auto on_ready = [&](std::size_t c) {
    buf.note_dyn(record_start + record_base[c], rec_secs[c].aux);
    for (const DynBreak& b : chunk_breaks[c]) buf.note_dyn(b.record, b.dyn_id);
    chunk_breaks[c] = {};
    if (progress) {
      progress(static_cast<std::size_t>(rec_secs[c].payload_off),
               static_cast<std::size_t>(val_secs[c].payload_off + val_secs[c].payload_size));
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
