// The §V-A parallel trace read must be observationally equivalent to the
// serial reader: same records, same order, same bytes when re-rendered,
// regardless of where chunk boundaries fall relative to instruction blocks.
#include <gtest/gtest.h>

#include "support/error.hpp"

#include "apps/harness.hpp"
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

void expect_same(const TraceBuffer& a, const TraceBuffer& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.operands().size(), b.operands().size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a.view(i).to_text(), b.view(i).to_text()) << "at " << i;
  }
}

class ParallelReaderSizes : public testing::TestWithParam<std::size_t> {};

TEST_P(ParallelReaderSizes, MatchesSerial) {
  const std::string text = synth_trace(GetParam());
  const TraceBuffer serial = read_trace_buffer(text);
  const TraceBuffer parallel = read_trace_buffer_parallel(text, 4);
  expect_same(serial, parallel);
  EXPECT_EQ(test::trace_text(parallel), text);  // writer fixpoint
}

// Sizes straddle the small-input serial fallback (256 KiB) and several
// chunking patterns.
INSTANTIATE_TEST_SUITE_P(Sweep, ParallelReaderSizes,
                         testing::Values(0u, 1u, 7u, 100u, 1500u, 2000u, 5000u, 20000u));

TEST(ParallelReader, ThreadCountsAgree) {
  const std::string text = synth_trace(8000);
  const TraceBuffer serial = read_trace_buffer(text);
  for (int threads : {1, 2, 3, 8}) {
    const TraceBuffer parallel = read_trace_buffer_parallel(text, threads);
    expect_same(serial, parallel);
  }
}

TEST(ParallelReader, RealAppTraceMatches) {
  const auto& app = apps::find_app("CG");
  const std::string path = testing::TempDir() + "/ac_cg_trace.txt";
  apps::analyze_app_via_file(app, {}, path);
  FileSource serial(path, 1);
  FileSource parallel(path, 3);
  expect_same(serial.buffer(), parallel.buffer());
}

TEST(ParallelReader, PropagatesParseErrors) {
  std::string text = synth_trace(6000);
  text += "0,3,foo,6:1,999,1\n";  // unknown opcode in the last chunk
  EXPECT_THROW(read_trace_buffer_parallel(text, 4), ac::TraceFormatError);
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
    read_trace_buffer_parallel(text, 4);
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
      read_trace_buffer_parallel(text, threads);
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
