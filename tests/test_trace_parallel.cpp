// The §V-A chunked trace read must yield the same buffer at every thread
// count — same pool ids, same sites, records and values, same MCTB bytes
// when recoded — regardless of where chunk boundaries fall relative to
// instruction blocks, and the same error when a block is malformed.
#include <gtest/gtest.h>

#include <cstdio>

#include "support/error.hpp"
#include "support/file.hpp"

#include "apps/harness.hpp"
#include "trace/mctb.hpp"
#include "trace/reader.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

std::string synth_trace(std::size_t blocks) {
  TraceBuffer buf;
  for (std::size_t i = 0; i < blocks; ++i) {
    TraceRecord rec;
    rec.line = static_cast<int>(i % 97);
    rec.func = i % 3 == 0 ? "main" : "helper";
    rec.bb = "1:0";
    // Alternate record shapes so chunk boundaries land on different operand
    // counts (Call blocks have the most rows).
    if (i % 5 == 0) {
      rec.opcode = Opcode::Call;
      rec.operands.push_back(Operand::callee("foo"));
      rec.operands.push_back(Operand::input(1, Value::make_addr(0x100000 + i), true, "6"));
      rec.operands.push_back(Operand::param(Value::make_addr(0x100000 + i), "p"));
    } else if (i % 2 == 0) {
      rec.opcode = Opcode::Load;
      rec.operands.push_back(Operand::input(1, Value::make_addr(0x100000 + i * 8), true, "v"));
      rec.operands.push_back(Operand::result(Value::make_int(static_cast<std::int64_t>(i)), "3"));
    } else {
      rec.opcode = Opcode::Store;
      rec.operands.push_back(Operand::input(1, Value::make_float(0.5 * i), true, "4"));
      rec.operands.push_back(Operand::input(2, Value::make_addr(0x100000 + i * 8), true, "v"));
    }
    rec.dyn_id = i;
    buf.append(rec);
  }
  return test::trace_text(buf);
}

class ParallelReaderSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(ParallelReaderSizes, MatchesSerial) {
  const std::string text = synth_trace(GetParam());
  const TraceBuffer serial = read_trace_buffer(text);
  const TraceBuffer parallel = read_trace_buffer(text, 4);
  test::expect_same_buffer(serial, parallel);
  EXPECT_EQ(test::trace_text(parallel), text);  // writer fixpoint
}

// Sizes straddle the 256 KiB floor below which an input is one chunk, and
// several chunking patterns.
INSTANTIATE_TEST_SUITE_P(Sweep, ParallelReaderSizes,
                         testing::Values(0u, 1u, 7u, 100u, 1500u, 2000u, 5000u, 20000u));

TEST(ParallelReader, ThreadCountsAgree) {
  const std::string text = synth_trace(8000);
  const TraceBuffer serial = read_trace_buffer(text);
  for (int threads : {1, 2, 3, 8}) {
    const TraceBuffer parallel = read_trace_buffer(text, threads);
    test::expect_same_buffer(serial, parallel);
  }
}

// CG's default-scale text is over 8 MiB, so even the one-thread read merges
// chunk pools. Thread count must not change the buffer, symbol ids included,
// nor the MCTB bytes recoded from it.
TEST(ParallelReader, RealAppTraceMatches) {
  const auto& app = apps::find_app("CG");
  const std::string path = testing::TempDir() + "/ac_cg_trace.txt";
  apps::analyze_app_via_file(app, {}, path);
  const std::string text = read_file_bytes(path);
  ASSERT_GT(text.size(), 8u << 20);
  const TraceBuffer one = read_trace_buffer(text, 1);
  const std::string mctb = mctb_to_bytes(one);
  for (const int threads : {2, 4}) {
    const TraceBuffer buf = read_trace_buffer(text, threads);
    test::expect_same_buffer(one, buf);
    EXPECT_TRUE(mctb == mctb_to_bytes(buf)) << "threads=" << threads;
  }
  for (const int threads : {1, 3}) {
    FileSource source(path, threads);
    test::expect_same_buffer(one, source.buffer());
    EXPECT_TRUE(mctb == mctb_to_bytes(source.buffer())) << "FileSource threads=" << threads;
  }
  // The container holds 6 chunks. Every decode thread count gives the parse's
  // buffer: -1 and 0 take the hardware count, 1 appends the chunks in order,
  // and 4 workers fill the slots of arrays sized without initializing them
  // (reused mappings hold stale bytes, so a slot left unwritten shows here).
  for (const int threads : {-1, 0, 1, 4}) {
    SCOPED_TRACE(threads);
    MctbReadOptions mopts;
    mopts.num_threads = threads;
    test::expect_same_buffer(one, read_mctb(mctb, mopts));
  }
  std::remove(path.c_str());
}

TEST(ParallelReader, PropagatesParseErrors) {
  std::string text = synth_trace(6000);
  text += "0,3,foo,6:1,999,1\n";  // unknown opcode in the last chunk
  EXPECT_THROW(read_trace_buffer(text, 4), ac::TraceFormatError);
}

// The executor's exception_ptr propagation makes the parallel error identical
// to the serial one — same type, byte-identical message — instead of the old
// what()-string relabelling.
TEST(ParallelReader, ParallelErrorIdenticalToSerial) {
  std::string text = synth_trace(6000);
  text += "0,3,foo,6:1,999,1\n";
  std::string serial_what;
  try {
    read_trace_buffer(text);
    FAIL() << "serial parse accepted the corrupt trace";
  } catch (const ac::TraceFormatError& e) {
    serial_what = e.what();
  }
  try {
    read_trace_buffer(text, 4);
    FAIL() << "parallel parse accepted the corrupt trace";
  } catch (const ac::TraceFormatError& e) {
    EXPECT_STREQ(serial_what.c_str(), e.what());
  }
}

TEST(ParallelReader, BufferParallelErrorIdenticalToSerial) {
  // Corrupt block in the middle so later chunks exist to be cancelled.
  std::string text = synth_trace(3000);
  text += "0,3,foo,6:1,999,1\n";
  text += synth_trace(3000);
  std::string serial_what;
  try {
    read_trace_buffer(text);
    FAIL() << "serial parse accepted the corrupt trace";
  } catch (const ac::TraceFormatError& e) {
    serial_what = e.what();
  }
  for (int threads : {2, 4}) {
    try {
      read_trace_buffer(text, threads);
      FAIL() << "parallel parse accepted the corrupt trace";
    } catch (const ac::TraceFormatError& e) {
      EXPECT_STREQ(serial_what.c_str(), e.what()) << "threads=" << threads;
    }
  }
}

TEST(ParallelReader, MissingFileThrows) {
  FileSource source("/no/such/file.txt", 4);
  EXPECT_THROW(source.buffer(), ac::Error);
}

}  // namespace
}  // namespace ac::trace
