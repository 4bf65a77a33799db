// The MCTB binary trace container: round-trip fidelity (serial + parallel
// decode, every codec chain), FileSource auto-detection of written files,
// and the malformed-input matrix — truncations, bad magic/version, CRC
// mismatches, bad codec ids, operand-count overflow, out-of-range symbol ids,
// malformed flags — all of which must raise clean TraceFormatErrors, never UB
// (this suite runs under the ASan/UBSan CI job like every other test).
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
// below patch specific fields, and these offsets are part of the v1 format.
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

/// Section-table entry lookup by kind (2 = records, 3 = operands), nth match.
struct SecInfo {
  std::size_t header_base = 0;
  std::size_t payload_off = 0;
  std::uint64_t count = 0;
};
SecInfo find_section(const std::string& img, std::uint32_t kind, std::uint32_t nth = 0) {
  const auto nsec = read_le<std::uint32_t>(img, kSectionCountOff);
  for (std::uint32_t i = 0; i < nsec; ++i) {
    const std::size_t base = kHeaderSize + i * kSectionHeaderSize;
    if (read_le<std::uint32_t>(img, base) == kind && nth-- == 0) {
      return {base, static_cast<std::size_t>(read_le<std::uint64_t>(img, base + kSecPayloadOffOff)),
              read_le<std::uint64_t>(img, base + kSecCountOff)};
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
  EXPECT_EQ(back.operands().size(), 0u);
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
    const std::size_t operands = merged.operands().capacity();
    read_mctb_into(small, merged);
    record_moves += merged.records().capacity() != records;
    operand_moves += merged.operands().capacity() != operands;
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

TEST(MctbMalformed, TruncationsAtEveryLayer) {
  const std::string img = raw_codec_container(fig4_trace_text());
  // Shorter than the header, mid-table, mid-payload: every prefix must be
  // rejected cleanly (CRC or bounds), never read out of range.
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{3}, std::size_t{8}, kHeaderSize - 1, kHeaderSize + 10,
        kHeaderSize + kSectionHeaderSize + 5, img.size() - 1, img.size() / 2}) {
    EXPECT_THROW(read_mctb(img.substr(0, cut)), TraceFormatError) << "cut at " << cut;
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
}

TEST(MctbMalformed, CrcMismatches) {
  const std::string img = raw_codec_container(fig4_trace_text());
  {
    // Flip one byte of the first payload: section CRC must catch it.
    std::string bad = img;
    const SecInfo sec = find_section(bad, 2);
    bad[sec.payload_off] = static_cast<char>(bad[sec.payload_off] ^ 0x5A);
    EXPECT_THROW(read_mctb(bad), TraceFormatError);
  }
  {
    // Flip one byte of the section table: table CRC must catch it.
    std::string bad = img;
    bad[kHeaderSize + 2] = static_cast<char>(bad[kHeaderSize + 2] ^ 0x5A);
    EXPECT_THROW(read_mctb(bad), TraceFormatError);
  }
}

TEST(MctbMalformed, BadCodecStageId) {
  std::string img = raw_codec_container(fig4_trace_text());
  const SecInfo sec = find_section(img, 2);
  img[sec.header_base + kSecStagesOff - 1] = 1;  // stage_count = 1
  img[sec.header_base + kSecStagesOff] = 9;      // unknown codec id
  fix_crcs(img);
  EXPECT_THROW(read_mctb(img), TraceFormatError);
}

TEST(MctbMalformed, OperandCountOverflow) {
  // Bump a record's operand count (raw codec, then re-fix the CRCs so the
  // validation layer behind them is what rejects): the counts no longer sum
  // to the operand section's size.
  std::string img = raw_codec_container(fig4_trace_text());
  const SecInfo sec = find_section(img, 2);
  const std::size_t n = static_cast<std::size_t>(sec.count);
  // op_count column plane 0 starts after dyn(8n) + func(4n) + bb(4n).
  const std::size_t opcnt_off = sec.payload_off + 16 * n;
  img[opcnt_off] = static_cast<char>(static_cast<unsigned char>(img[opcnt_off]) + 1);
  fix_crcs(img);
  EXPECT_THROW(read_mctb(img), TraceFormatError);

  // The extreme version: plane 3 makes one count ~16M, overflowing the chunk
  // mid-scan (the guard fires before any out-of-range operand is touched).
  std::string huge = raw_codec_container(fig4_trace_text());
  const SecInfo hsec = find_section(huge, 2);
  huge[hsec.payload_off + 16 * n + 3 * n] = 0x01;  // plane 3 of op_count[0]
  fix_crcs(huge);
  EXPECT_THROW(read_mctb(huge), TraceFormatError);
}

TEST(MctbMalformed, SymbolIdOutOfRange) {
  std::string img = raw_codec_container(fig4_trace_text());
  const SecInfo sec = find_section(img, 2);
  const std::size_t n = static_cast<std::size_t>(sec.count);
  // func column plane 3 (high byte) -> id in the hundreds of millions.
  img[sec.payload_off + 8 * n + 3 * n] = 0x7F;
  fix_crcs(img);
  EXPECT_THROW(read_mctb(img), TraceFormatError);
}

TEST(MctbMalformed, UnknownOpcodeAndFlags) {
  {
    std::string img = raw_codec_container(fig4_trace_text());
    const SecInfo sec = find_section(img, 2);
    const std::size_t n = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 24 * n] = static_cast<char>(0xFA);  // opcode 250
    fix_crcs(img);
    EXPECT_THROW(read_mctb(img), TraceFormatError);
  }
  {
    std::string img = raw_codec_container(fig4_trace_text());
    const SecInfo sec = find_section(img, 3);
    const std::size_t m = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 20 * m] = static_cast<char>(0xFF);  // flags byte
    fix_crcs(img);
    EXPECT_THROW(read_mctb(img), TraceFormatError);
  }
}

TEST(MctbMalformed, ParallelDecodeRejectsToo) {
  // The same corruption must surface as a clean error from the threaded
  // decode path (first error wins, workers join).
  std::string img = raw_codec_container(fig4_trace_text(), /*chunk_records=*/32);
  const SecInfo sec = find_section(img, 2, /*nth=*/2);
  const std::size_t n = static_cast<std::size_t>(sec.count);
  img[sec.payload_off + 24 * n] = static_cast<char>(0xFA);
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
  // chunk_records=32 gives several record/operand chunks, so the parallel
  // decode genuinely fans out and cancellation/first-error logic is live.
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2);
    img[sec.header_base + kSecStagesOff - 1] = 1;
    img[sec.header_base + kSecStagesOff] = 9;  // unknown codec id
    fix_crcs(img);
    expect_error_identity(img, "bad codec stage");
  }
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2);
    const std::size_t n = static_cast<std::size_t>(sec.count);
    const std::size_t opcnt_off = sec.payload_off + 16 * n;
    img[opcnt_off] = static_cast<char>(static_cast<unsigned char>(img[opcnt_off]) + 1);
    fix_crcs(img);
    expect_error_identity(img, "operand count overflow");
  }
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2);
    const std::size_t n = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 8 * n + 3 * n] = 0x7F;  // func id out of range
    fix_crcs(img);
    expect_error_identity(img, "symbol id out of range");
  }
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2);
    const std::size_t n = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 24 * n] = static_cast<char>(0xFA);  // opcode 250
    fix_crcs(img);
    expect_error_identity(img, "unknown opcode");
  }
  {
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 3);
    const std::size_t m = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 20 * m] = static_cast<char>(0xFF);  // flags byte
    fix_crcs(img);
    expect_error_identity(img, "malformed flags");
  }
  {
    // Corruption in a *later* chunk: earlier chunks decode fine on every
    // path, and the error still matches byte for byte.
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2, /*nth=*/2);
    const std::size_t n = static_cast<std::size_t>(sec.count);
    img[sec.payload_off + 24 * n] = static_cast<char>(0xFA);
    fix_crcs(img);
    expect_error_identity(img, "later-chunk opcode");
  }
  {
    // CRC mismatch (no fix_crcs): caught at payload verification.
    std::string img = raw_codec_container(text, 32);
    const SecInfo sec = find_section(img, 2, /*nth=*/1);
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
    EXPECT_EQ(streamed.operands().size(), parsed.operands().size()) << threads;
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
