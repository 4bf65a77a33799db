// The MCTB binary trace container: round-trip fidelity (serial + parallel
// decode, every codec chain), FileSource auto-detection of written files,
// and the malformed-input matrix — truncations and byte flips in every
// section, bad magic/version, bad codec ids, site ids past the site table,
// sites that overrun the template column, value columns shorter than their
// records need, out-of-range symbol ids, unknown opcodes, malformed flags —
// all of which must raise clean TraceFormatErrors naming the section, never
// UB (this suite runs under the ASan/UBSan CI job like every other test).
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <map>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "trace/mctb.hpp"
#include "trace/reader.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

// Container layout constants mirrored from mctb.cpp — the tamper helpers
// below patch specific fields, and these offsets are part of the v2 format.
constexpr std::size_t kHeaderSize = 40;
constexpr std::size_t kSectionHeaderSize = 57;
constexpr std::size_t kSectionCountOff = 32;
constexpr std::size_t kTableCrcOff = 36;
constexpr std::size_t kSecCountOff = 8;        // within a section header
constexpr std::size_t kSecPayloadOffOff = 32;
constexpr std::size_t kSecPayloadSizeOff = 40;
constexpr std::size_t kSecPayloadCrcOff = 48;
constexpr std::size_t kSecStagesOff = 53;

std::string fig4_trace_text() {
  trace::BufferSink sink;
  test::run_source(test::fig4_source(), &sink);
  return test::trace_text(sink.buffer());
}

/// Decode on `threads` workers.
TraceBuffer decode(std::string_view img, int threads) {
  MctbReadOptions opts;
  opts.num_threads = threads;
  return read_mctb(img, opts);
}

std::string buffer_text(const TraceBuffer& buf) {
  std::string out;
  for (std::size_t i = 0; i < buf.size(); ++i) out += buf.view(i).to_text();
  return out;
}

template <typename T>
T read_le(const std::string& img, std::size_t off) {
  T v;
  std::memcpy(&v, img.data() + off, sizeof(T));
  return v;
}

template <typename T>
void write_le(std::string& img, std::size_t off, T v) {
  std::memcpy(img.data() + off, &v, sizeof(T));
}

/// Recompute every section payload CRC and the table CRC after a tamper, so
/// the test reaches the validation layer *behind* the CRCs.
void fix_crcs(std::string& img) {
  const auto nsec = read_le<std::uint32_t>(img, kSectionCountOff);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const std::size_t base = kHeaderSize + i * kSectionHeaderSize;
    const auto off = read_le<std::uint64_t>(img, base + kSecPayloadOffOff);
    const auto size = read_le<std::uint64_t>(img, base + kSecPayloadSizeOff);
    write_le(img, base + kSecPayloadCrcOff,
             crc32(img.data() + off, static_cast<std::size_t>(size)));
  }
  write_le(img, kTableCrcOff, crc32(img.data() + kHeaderSize, nsec * kSectionHeaderSize));
}

// Section kinds.
constexpr std::uint32_t kSymbols = 1, kRecords = 2, kValues = 3, kSites = 4;

/// Section-table entry lookup by kind, nth match.
struct SecInfo {
  std::size_t header_base = 0;
  std::size_t payload_off = 0;
  std::uint64_t count = 0;
  std::uint64_t aux = 0;
};
SecInfo find_section(const std::string& img, std::uint32_t kind, std::uint32_t nth = 0) {
  const auto nsec = read_le<std::uint32_t>(img, kSectionCountOff);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const std::size_t base = kHeaderSize + i * kSectionHeaderSize;
    if (read_le<std::uint32_t>(img, base) == kind && nth-- == 0) {
      return {base, static_cast<std::size_t>(read_le<std::uint64_t>(img, base + kSecPayloadOffOff)),
              read_le<std::uint64_t>(img, base + kSecCountOff),
              read_le<std::uint64_t>(img, base + kSecCountOff + 8)};
    }
  }
  ADD_FAILURE() << "section of kind " << kind << " not found";
  return {};
}

/// A raw-codec container whose payload bytes are patchable in place.
std::string raw_codec_container(const std::string& text, std::size_t chunk_records = 64) {
  MctbOptions opts;
  opts.codec = CodecChain{};  // raw
  opts.chunk_records = chunk_records;
  return mctb_to_bytes(read_trace_buffer(text), opts);
}

// --- round trips -------------------------------------------------------------

TEST(Mctb, SniffsMagic) {
  EXPECT_FALSE(is_mctb(""));
  EXPECT_FALSE(is_mctb("MCT"));
  EXPECT_FALSE(is_mctb("0,3,foo,6:1,27,1\n"));
  const TraceBuffer empty;
  EXPECT_TRUE(is_mctb(mctb_to_bytes(empty)));
}

TEST(Mctb, EmptyBufferRoundTrips) {
  const TraceBuffer empty;
  const std::string img = mctb_to_bytes(empty);
  const TraceBuffer back = read_mctb(img);
  EXPECT_EQ(back.size(), 0u);
  EXPECT_EQ(back.values().size(), 0u);
  EXPECT_EQ(back.pool().size(), 0u);
}

TEST(Mctb, RoundTripsEveryCodecChain) {
  const std::string text = fig4_trace_text();
  const TraceBuffer parsed = read_trace_buffer(text);
  for (const char* spec : {"raw", "rle", "lz", "rle+lz", "xor+rle+lz"}) {
    MctbOptions opts;
    opts.codec = CodecChain::parse(spec);
    opts.chunk_records = 64;  // force multiple chunks
    const std::string img = mctb_to_bytes(parsed, opts);
    const TraceBuffer serial = decode(img, 1);
    const TraceBuffer parallel = decode(img, 4);
    EXPECT_EQ(buffer_text(serial), text) << spec;
    EXPECT_EQ(buffer_text(parallel), text) << spec;
    EXPECT_EQ(serial.pool().size(), parsed.pool().size()) << spec;
  }
}

/// Containers decoded one after another onto one buffer give the buffer
/// append_buffer builds from their separate decodes, symbol ids included:
/// the daemon merges its chunk frames this way. The second container brings
/// new symbols and shares others; the third repeats the first.
TEST(Mctb, AppendingDecodesMatchAppendBuffer) {
  const auto app_container = [](const char* name) {
    trace::BufferSink sink;
    test::run_source(apps::find_app(name).source(), &sink);
    MctbOptions opts;
    opts.chunk_records = 512;  // several chunks
    return mctb_to_bytes(sink.buffer(), opts);
  };
  const std::string is = app_container("IS");
  const std::string ft = app_container("FT");
  TraceBuffer want = read_mctb(is);
  want.append_buffer(read_mctb(ft));
  want.append_buffer(read_mctb(is));
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    MctbReadOptions mopts;
    mopts.num_threads = threads;
    TraceBuffer got;
    for (const std::string* img : {&is, &ft, &is}) read_mctb_into(*img, got, mopts);
    test::expect_same_buffer(want, got);
  }

  // Appended chunk after chunk, as a daemon connection's frames are, the
  // arrays grow geometrically rather than to each container's exact end.
  MctbOptions one_chunk;
  const std::string small = mctb_to_bytes(read_mctb(is, {}), one_chunk);
  TraceBuffer merged;
  int record_moves = 0, operand_moves = 0;
  for (int k = 0; k < 300; ++k) {
    const std::size_t records = merged.records().capacity();
    const std::size_t operands = merged.values().capacity();
    read_mctb_into(small, merged);
    record_moves += merged.records().capacity() != records;
    operand_moves += merged.values().capacity() != operands;
  }
  EXPECT_EQ(merged.size(), 300 * read_mctb(small).size());
  EXPECT_LE(record_moves, 12);
  EXPECT_LE(operand_moves, 12);
}

TEST(Mctb, FileSinkAndFileSourceAutoDetect) {
  const std::string src = test::fig4_source();
  const std::string path = testing::TempDir() + "ac_mctb_sink.mctb";

  {
    BufferSink sink;
    test::run_source(src, &sink);
    EXPECT_GT(write_mctb_file(sink.buffer(), path), 0u);
  }

  trace::FileSource source(path);
  const TraceBuffer& buf = source.buffer();
  EXPECT_STREQ(source.format(), "mctb");
  EXPECT_EQ(buffer_text(buf), fig4_trace_text());

  // The analysis pipeline consumes the binary file exactly like a text one.
  const analysis::Report report = analysis::Session()
                                      .file(path)
                                      .region_from_markers(src)
                                      .run();
  const auto run = test::run_pipeline(src);
  EXPECT_EQ(report.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(report.verdicts.all_mli, run.report.verdicts.all_mli);
  std::remove(path.c_str());
}

TEST(Mctb, TextAndMctbFilesReadBackAlike) {
  const std::string text_path = testing::TempDir() + "ac_formats.trace";
  const std::string mctb_path = testing::TempDir() + "ac_formats.mctb";
  {
    trace::BufferSink mem;
    test::run_source(test::fig4_source(), &mem);
    FileSink text_sink(text_path);
    for (std::size_t i = 0; i < mem.buffer().size(); ++i) text_sink.append(mem.buffer().view(i));
    text_sink.close();
    write_mctb_file(mem.buffer(), mctb_path);
  }
  trace::FileSource text_source(text_path), mctb_source(mctb_path);
  EXPECT_EQ(buffer_text(text_source.buffer()), buffer_text(mctb_source.buffer()));
  EXPECT_STREQ(text_source.format(), "text");
  EXPECT_STREQ(mctb_source.format(), "mctb");
  std::remove(text_path.c_str());
  std::remove(mctb_path.c_str());
  EXPECT_THROW(parse_trace_format("protobuf"), Error);
}

// --- malformed inputs --------------------------------------------------------

/// Every section of `img`, in table order.
std::vector<SecInfo> all_sections(const std::string& img) {
  std::vector<SecInfo> out;
  const auto nsec = read_le<std::uint32_t>(img, kSectionCountOff);
  std::map<std::uint32_t, std::uint32_t> seen;
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const auto kind = read_le<std::uint32_t>(img, kHeaderSize + i * kSectionHeaderSize);
    out.push_back(find_section(img, kind, seen[kind]++));
  }
  return out;
}

/// `img` is rejected with a TraceFormatError whose message contains `what`.
void expect_rejected(const std::string& img, const std::string& what) {
  try {
    read_mctb(img);
    ADD_FAILURE() << "accepted a container that should fail with '" << what << "'";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "'" << e.what() << "' does not name " << what;
  }
}

TEST(MctbMalformed, TruncationsAtEveryLayer) {
  const std::string img = raw_codec_container(fig4_trace_text());
  // Shorter than the header, mid-table, mid-payload: every prefix must be
  // rejected cleanly (CRC or bounds), never read out of range.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, kHeaderSize - 1, kHeaderSize + 10,
        kHeaderSize + kSectionHeaderSize + 5, img.size() - 1, img.size() / 2}) {
    EXPECT_THROW(read_mctb(img.substr(0, cut)), TraceFormatError) << "cut at " << cut;
  }
  // Inside every section: its header, its payload's first byte, its middle.
  for (const SecInfo& sec : all_sections(img)) {
    for (const std::size_t cut : {sec.header_base + 7, sec.payload_off, sec.payload_off + 1}) {
      EXPECT_THROW(read_mctb(img.substr(0, cut)), TraceFormatError) << "cut at " << cut;
    }
  }
}

TEST(MctbMalformed, BadMagicAndVersion) {
  std::string img = raw_codec_container(fig4_trace_text());
  {
    std::string bad = img;
    bad[0] = 'X';
    EXPECT_THROW(read_mctb(bad), TraceFormatError);
  }
  {
    std::string bad = img;
    write_le<std::uint32_t>(bad, 4, 99);
    EXPECT_THROW(read_mctb(bad), TraceFormatError);
  }
  {
    // A version-1 container (records and operands in full) is refused.
    std::string v1 = img;
    write_le<std::uint32_t>(v1, 4, 1);
    expect_rejected(v1, "unsupported MCTB version 1 (this reader speaks 2)");
  }
}

TEST(MctbMalformed, CrcMismatches) {
  const std::string img = raw_codec_container(fig4_trace_text());
  // A flipped byte in any section's payload fails that section's CRC; one in
  // any section's header fails the table CRC.
  for (const SecInfo& sec : all_sections(img)) {
    std::string payload = img;
    payload[sec.payload_off] = static_cast<char>(payload[sec.payload_off] ^ 0x5A);
    EXPECT_THROW(read_mctb(payload), TraceFormatError) << "payload at " << sec.payload_off;
    std::string header = img;
    header[sec.header_base + 2] = static_cast<char>(header[sec.header_base + 2] ^ 0x5A);
    EXPECT_THROW(read_mctb(header), TraceFormatError) << "header at " << sec.header_base;
  }
}

TEST(MctbMalformed, BadCodecStageId) {
  for (const std::uint32_t kind : {kSymbols, kSites, kRecords, kValues}) {
    std::string img = raw_codec_container(fig4_trace_text());
    const SecInfo sec = find_section(img, kind);
    img[sec.header_base + kSecStagesOff - 1] = 1;  // stage_count = 1
    img[sec.header_base + kSecStagesOff] = 9;      // unknown codec id
    fix_crcs(img);
    EXPECT_THROW(read_mctb(img), TraceFormatError) << "section kind " << kind;
  }
}

/// Byte offsets of fields in the raw-codec site section of `img`: column
/// `col` (0 func, 1 bb, 2 line, 3 op_count) plane `plane` of site `i`; the
/// opcode byte of site i; the flags byte of template i.
std::size_t site_field(const std::string& img, int col, int plane, std::size_t i) {
  const SecInfo sec = find_section(img, kSites);
  const auto n = static_cast<std::size_t>(sec.count);
  return sec.payload_off + static_cast<std::size_t>(col) * 4 * n +
         static_cast<std::size_t>(plane) * n + i;
}
std::size_t site_opcode(const std::string& img, std::size_t i) {
  return site_field(img, 4, 0, i);
}
std::size_t template_flags(const std::string& img, std::size_t i) {
  const SecInfo sec = find_section(img, kSites);
  return sec.payload_off + 17 * static_cast<std::size_t>(sec.count) +
         12 * static_cast<std::size_t>(sec.aux) + i;
}

/// `img` with record `j` of record chunk `chunk` pointed at site `site`.
void set_site_id(std::string& img, std::uint32_t chunk, std::size_t j, std::uint32_t site) {
  const SecInfo sec = find_section(img, kRecords, chunk);
  const auto n = static_cast<std::size_t>(sec.count);
  for (int plane = 0; plane < 4; ++plane) {
    img[sec.payload_off + static_cast<std::size_t>(plane) * n + j] =
        static_cast<char>((site >> (8 * plane)) & 0xFF);
  }
}

/// A container whose first chunk's record 0 now names a site with more
/// operands than its own, so the chunk's value column is too short.
std::string short_value_column(const std::string& text, std::size_t chunk_records) {
  std::string img = raw_codec_container(text, chunk_records);
  const TraceBuffer buf = read_trace_buffer(text);
  const Site& first = buf.sites()[buf.records()[0].site];
  for (std::uint32_t id = 0; id < buf.sites().size(); ++id) {
    if (buf.sites()[id].op_count > first.op_count) {
      set_site_id(img, 0, 0, id);
      break;
    }
  }
  fix_crcs(img);
  return img;
}

TEST(MctbMalformed, SiteIdPastTheSiteTable) {
  std::string img = raw_codec_container(fig4_trace_text());
  set_site_id(img, 0, 0, 0x7F000000u);
  fix_crcs(img);
  expect_rejected(img, "MCTB record chunk 0: site id 2130706432 out of range");
}

TEST(MctbMalformed, SiteOperandsOverrunTheTemplateColumn) {
  std::string img = raw_codec_container(fig4_trace_text());
  img[site_field(img, 3, 3, 0)] = 0x01;  // site 0 takes ~16M templates
  fix_crcs(img);
  expect_rejected(img, "MCTB site table: site 0's");
  // One template too many for the last site: the sites still fit, but they
  // leave a template over.
  std::string tail = raw_codec_container(fig4_trace_text());
  const SecInfo sec = find_section(tail, kSites);
  tail[site_field(tail, 3, 0, static_cast<std::size_t>(sec.count) - 1)] -= 1;
  fix_crcs(tail);
  expect_rejected(tail, "MCTB site table: its sites take");
}

TEST(MctbMalformed, ValueColumnShorterThanItsRecordsNeed) {
  expect_rejected(short_value_column(fig4_trace_text(), 64), "MCTB value chunk 0");
}

TEST(MctbMalformed, SymbolIdOutOfRange) {
  std::string img = raw_codec_container(fig4_trace_text());
  img[site_field(img, 0, 3, 0)] = 0x7F;  // site 0's func id in the billions
  fix_crcs(img);
  expect_rejected(img, "MCTB site table: function symbol id");
}

TEST(MctbMalformed, UnknownOpcodeAndFlags) {
  {
    std::string img = raw_codec_container(fig4_trace_text());
    img[site_opcode(img, 0)] = static_cast<char>(0xFA);  // opcode 250
    fix_crcs(img);
    expect_rejected(img, "MCTB site table: site 0 has unknown opcode 250");
  }
  {
    std::string img = raw_codec_container(fig4_trace_text());
    img[template_flags(img, 0)] = static_cast<char>(0xFF);
    fix_crcs(img);
    expect_rejected(img, "MCTB site table: template 0 has malformed flags");
  }
}

TEST(MctbMalformed, ParallelDecodeRejectsToo) {
  // The same corruption must surface as a clean error from the threaded
  // decode path (first error wins, workers join).
  std::string img = raw_codec_container(fig4_trace_text(), /*chunk_records=*/32);
  set_site_id(img, 2, 0, 0x7F000000u);
  fix_crcs(img);
  EXPECT_THROW(decode(img, 4), TraceFormatError);
}

// --- serial vs parallel error identity ---------------------------------------

/// The executor's exception_ptr propagation (lowest failing chunk wins) makes
/// the parallel decode raise the *byte-identical* error the serial decode
/// raises — type and message — for every corruption in the matrix above.
void expect_error_identity(const std::string& img, const char* label) {
  std::string serial_what;
  try {
    decode(img, 1);
    FAIL() << label << ": serial decode accepted the corrupt container";
  } catch (const TraceFormatError& e) {
    serial_what = e.what();
  }
  for (const int threads : {2, 4}) {
    try {
      decode(img, threads);
      FAIL() << label << ": decode accepted the corrupt container";
    } catch (const TraceFormatError& e) {
      EXPECT_STREQ(serial_what.c_str(), e.what()) << label << " threads=" << threads;
    } catch (const std::exception& e) {
      FAIL() << label << ": exception type erased to: " << e.what();
    }
  }
}

TEST(MctbErrorIdentity, SerialAndParallelRaiseTheSameError) {
  const std::string text = fig4_trace_text();
  // chunk_records=32 gives several record/value chunks, so the parallel
  // decode genuinely fans out and cancellation/first-error logic is live.
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, kRecords);
    img[sec.header_base + kSecStagesOff - 1] = 1;
    img[sec.header_base + kSecStagesOff] = 9;  // unknown codec id
    fix_crcs(img);
    expect_error_identity(img, "bad codec stage");
  }
  expect_error_identity(short_value_column(text, 32), "value column too short");
  {
    std::string img = raw_codec_container(text, 32);
    set_site_id(img, 0, 1, 0x7F000000u);
    fix_crcs(img);
    expect_error_identity(img, "site id out of range");
  }
  {
    std::string img = raw_codec_container(text, 32);
    img[site_opcode(img, 0)] = static_cast<char>(0xFA);  // opcode 250
    fix_crcs(img);
    expect_error_identity(img, "unknown opcode");
  }
  {
    std::string img = raw_codec_container(text, 32);
    img[template_flags(img, 0)] = static_cast<char>(0xFF);  // flags byte
    fix_crcs(img);
    expect_error_identity(img, "malformed flags");
  }
  {
    // Corruption in a *later* chunk: earlier chunks decode fine on every
    // path, and the error still matches byte for byte.
    std::string img = raw_codec_container(text, 32);
    set_site_id(img, 2, 0, 0x7F000000u);
    fix_crcs(img);
    expect_error_identity(img, "later-chunk site id");
  }
  {
    // CRC mismatch (no fix_crcs): caught at payload verification.
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, kValues, /*nth=*/1);
    img[sec.payload_off] = static_cast<char>(static_cast<unsigned char>(img[sec.payload_off]) ^ 0x5A);
    expect_error_identity(img, "payload crc mismatch");
  }
}

// --- MCTA record frames ------------------------------------------------------

TEST(MctbFrame, RoundTripsAndSniffs) {
  const CodecChain chain = CodecChain::parse("rle+lz");
  const std::string payload = "the quick brown fox jumps over the lazy dog";
  const std::string frame = mctb_frame(/*kind=*/7, /*seq=*/3, /*aux=*/42, payload, chain);
  EXPECT_FALSE(is_mctb(frame));  // container and frame magics are distinct

  MctbFrameView view;
  ASSERT_TRUE(read_mctb_frame(frame, 0, view));
  EXPECT_EQ(view.kind, 7u);
  EXPECT_EQ(view.seq, 3u);
  EXPECT_EQ(view.aux, 42u);
  EXPECT_EQ(view.codec, chain);
  EXPECT_EQ(view.payload, payload);
  EXPECT_EQ(view.frame_size, frame.size());

  // Back-to-back frames walk by frame_size.
  const std::string second = mctb_frame(7, 4, 43, "tail", chain);
  const std::string stream = frame + second;
  ASSERT_TRUE(read_mctb_frame(stream, view.frame_size, view));
  EXPECT_EQ(view.seq, 4u);
  EXPECT_EQ(view.payload, "tail");
}

TEST(MctbFrame, RejectsTornAndCorruptFrames) {
  const std::string frame = mctb_frame(1, 0, 0, "payload bytes", CodecChain{});
  MctbFrameView view;
  // Truncation at every boundary: header-only parse already refuses.
  for (std::size_t n = 0; n < frame.size(); ++n) {
    EXPECT_FALSE(read_mctb_frame(frame.substr(0, n), 0, view)) << "len=" << n;
  }
  // A flipped payload byte passes the header parse but fails the CRC.
  std::string corrupt = frame;
  corrupt[frame.size() - 1] = static_cast<char>(corrupt[frame.size() - 1] ^ 0x5A);
  EXPECT_TRUE(read_mctb_frame_header(corrupt, 0, view));
  EXPECT_FALSE(read_mctb_frame(corrupt, 0, view));
  // A flipped magic byte is not a frame at all.
  std::string retyped = frame;
  retyped[0] = 'X';
  EXPECT_FALSE(read_mctb_frame_header(retyped, 0, view));
}

// --- the 14-app property -----------------------------------------------------

/// text -> recode -> mctb -> read must reproduce the exact original bytes,
/// serial and parallel, and the decoded buffer must classify to the paper's
/// Table II verdicts.
class MctbRoundTrip : public testing::TestWithParam<std::string> {};

TEST_P(MctbRoundTrip, TextRecodeReadByteIdentical) {
  const apps::App& app = apps::find_app(GetParam());
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const ir::Module module = minic::compile(app.source());
  vm::run_module(module, ropts);
  const std::string text = test::trace_text(sink.buffer());

  MctbOptions opts;
  opts.chunk_records = 512;  // several chunks even for the small knobs
  const std::string img = mctb_to_bytes(read_trace_buffer(text), opts);
  EXPECT_LT(img.size(), text.size());  // the container must actually shrink

  TraceBuffer serial = decode(img, 1);
  const TraceBuffer parallel = decode(img, 4);
  EXPECT_EQ(buffer_text(serial), text);
  EXPECT_EQ(buffer_text(parallel), text);

  // The decoded trace classifies to the paper's verdicts.
  const analysis::Report report =
      analysis::Session().buffer(std::move(serial)).region(app.mcl()).run();
  std::map<std::string, analysis::DepType> want, got;
  for (const auto& e : app.expected) want[e.name] = e.type;
  for (const auto& cv : report.verdicts.critical) got[cv.name] = cv.type;
  EXPECT_EQ(got, want);
}

/// The streaming writer and reader are byte-identical on every mini-app: one
/// encoder behind every sink (in-memory, reused buffer, file), and a decode
/// that reproduces the parsed buffer exactly — serial and threads 2/4.
TEST_P(MctbRoundTrip, StreamingEncodeDecodeByteIdentical) {
  const apps::App& app = apps::find_app(GetParam());
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const ir::Module module = minic::compile(app.source());
  vm::run_module(module, ropts);
  const std::string text = test::trace_text(sink.buffer());
  const TraceBuffer parsed = read_trace_buffer(text);

  MctbOptions opts;
  opts.chunk_records = 512;
  const std::string img = mctb_to_bytes(parsed, opts);

  // Encode identity: the reused-buffer writer (called twice, so any reliance
  // on a pristine output string would show) and the streaming file writer
  // both emit the same container byte for byte.
  std::string reused = "stale bytes from a previous chunk";
  mctb_encode_into(parsed, opts, reused);
  EXPECT_EQ(reused, img);
  mctb_encode_into(parsed, opts, reused);
  EXPECT_EQ(reused, img);

  const std::string path = testing::TempDir() + "ac_stream_" + GetParam() + ".mctb";
  EXPECT_EQ(write_mctb_file(parsed, path, opts), img.size());
  std::string file_bytes;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    file_bytes.resize(img.size() + 1);
    file_bytes.resize(std::fread(file_bytes.data(), 1, file_bytes.size(), f));
    std::fclose(f);
  }
  EXPECT_EQ(file_bytes, img);
  std::remove(path.c_str());

  // Decode identity at serial and threads 2/4: the parsed buffer exactly
  // (text, operands, symbol pool).
  for (const int threads : {1, 2, 4}) {
    const TraceBuffer streamed = decode(img, threads);
    EXPECT_EQ(buffer_text(streamed), text) << "threads=" << threads;
    EXPECT_EQ(streamed.values().size(), parsed.values().size()) << threads;
    EXPECT_EQ(streamed.pool().size(), parsed.pool().size()) << threads;
    // Canonical re-serialization equality pins every decoded column, not
    // just the text projection.
    EXPECT_EQ(mctb_to_bytes(streamed, opts), img) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(
    All14, MctbRoundTrip,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace ac::trace
