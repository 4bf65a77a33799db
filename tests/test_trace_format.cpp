#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdio>
#include <thread>

#include "support/error.hpp"
#include "support/file.hpp"
#include "trace/reader.hpp"
#include "trace/record.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

using test::record_text;

TraceRecord sample_load() {
  // The paper's Fig. 1 first block: a Load of variable p into register 8.
  TraceRecord rec;
  rec.line = 3;
  rec.func = "foo";
  rec.bb = "6:1";
  rec.opcode = Opcode::Load;
  rec.dyn_id = 215;
  rec.operands.push_back(Operand::input(1, Value::make_addr(0x7ffcf3f25a70), true, "p"));
  rec.operands.push_back(Operand::result(Value::make_int(4), "8"));
  return rec;
}

TEST(Value, TextRoundTrip) {
  EXPECT_EQ(value_to_text(Value::make_int(-12)), "-12");
  EXPECT_EQ(value_to_text(Value::make_float(44.0)), "44.000000");
  EXPECT_EQ(value_to_text(Value::make_addr(0x4009e0)), "0x4009e0");

  EXPECT_TRUE(value_from_text("42").is_int());
  EXPECT_TRUE(value_from_text("1936.000000").is_float());
  EXPECT_TRUE(value_from_text("0x7ffec14b0db0").is_addr());
  EXPECT_EQ(value_from_text("0x7ffec14b0db0").addr, 0x7ffec14b0db0ull);
}

TEST(Opcode, PaperNumbering) {
  // Fig. 1/6 of the paper fix these LLVM 3.4 numbers.
  EXPECT_EQ(static_cast<int>(Opcode::Load), 27);
  EXPECT_EQ(static_cast<int>(Opcode::Store), 28);
  EXPECT_EQ(static_cast<int>(Opcode::Alloca), 26);
  EXPECT_EQ(static_cast<int>(Opcode::Call), 49);
  EXPECT_EQ(static_cast<int>(Opcode::Mul), 12);
  EXPECT_EQ(opcode_name(Opcode::Load), "Load");
  EXPECT_EQ(opcode_name(Opcode::GetElementPtr), "GetElementPtr");
}

TEST(Opcode, ArithmeticSet) {
  EXPECT_TRUE(is_arithmetic(Opcode::Mul));
  EXPECT_TRUE(is_arithmetic(Opcode::FAdd));
  EXPECT_TRUE(is_arithmetic(Opcode::ICmp));  // documented extension
  EXPECT_FALSE(is_arithmetic(Opcode::Load));
  EXPECT_FALSE(is_arithmetic(Opcode::Call));
  EXPECT_FALSE(is_arithmetic(Opcode::Br));
}

TEST(Record, TextLayout) {
  const std::string text = record_text(sample_load());
  EXPECT_EQ(text, "0,3,foo,6:1,27,215\n1,64,0x7ffcf3f25a70,1,p\nr,64,4,1,8\n");
}

TEST(Record, RoundTripThroughParser) {
  const TraceBuffer parsed = read_trace_buffer(record_text(sample_load()));
  ASSERT_EQ(parsed.size(), 1u);
  const RecordView rec = parsed.view(0);
  EXPECT_EQ(rec.line(), 3);
  EXPECT_EQ(rec.func(), "foo");
  EXPECT_EQ(rec.opcode(), Opcode::Load);
  EXPECT_EQ(rec.dyn_id(), 215u);
  ASSERT_EQ(rec.operand_count(), 2u);
  EXPECT_EQ(rec.name(rec.operands_begin()[0]), "p");
  EXPECT_TRUE(rec.operands_begin()[0].is_addr());
  EXPECT_EQ(rec.operands_begin()[1].slot(), OperandSlot::Result);
}

TEST(Record, CallFormOneLikeFig6a) {
  // pow(44.0, 2.0) -> 1936.0 (Fig. 6(a)): callee row, two args, result row.
  TraceRecord rec;
  rec.line = 24;
  rec.func = "main";
  rec.bb = "24:0";
  rec.opcode = Opcode::Call;
  rec.dyn_id = 777;
  rec.operands.push_back(Operand::callee("pow"));
  rec.operands.push_back(Operand::input(1, Value::make_float(44.0), true, "36"));
  rec.operands.push_back(Operand::input(2, Value::make_float(2.0), true, "37"));
  rec.operands.push_back(Operand::result(Value::make_float(1936.0), "38"));

  const TraceBuffer parsed = read_trace_buffer(record_text(rec));
  ASSERT_EQ(parsed.size(), 1u);
  const RecordView call = parsed.view(0);
  EXPECT_EQ(call.find(OperandSlot::Param), nullptr);  // no body follows
  ASSERT_NE(call.find(OperandSlot::Callee), nullptr);
  EXPECT_EQ(call.name(*call.find(OperandSlot::Callee)), "pow");
  EXPECT_DOUBLE_EQ(call.find(OperandSlot::Result)->value().f, 1936.0);
}

TEST(Record, CallFormTwoLikeFig6b) {
  // foo(a, b): args then parameter-indicator rows binding p and q.
  TraceRecord rec;
  rec.line = 21;
  rec.func = "main";
  rec.bb = "21:1";
  rec.opcode = Opcode::Call;
  rec.dyn_id = 1993;
  rec.operands.push_back(Operand::callee("foo"));
  rec.operands.push_back(Operand::input(1, Value::make_addr(0x7ffec14b0db0), true, "6"));
  rec.operands.push_back(Operand::input(2, Value::make_addr(0x7ffec14b0d80), true, "7"));
  rec.operands.push_back(Operand::param(Value::make_addr(0x7ffec14b0db0), "p"));
  rec.operands.push_back(Operand::param(Value::make_addr(0x7ffec14b0d80), "q"));

  const TraceBuffer parsed = read_trace_buffer(record_text(rec));
  ASSERT_EQ(parsed.size(), 1u);
  const RecordView call = parsed.view(0);
  // The two parameter-indicator rows follow the callee and argument rows.
  ASSERT_EQ(call.operand_count(), 5u);
  const PackedOperand* ops = call.operands_begin();
  EXPECT_EQ(call.find(OperandSlot::Param), &ops[3]);
  EXPECT_EQ(ops[4].slot(), OperandSlot::Param);
  EXPECT_EQ(call.name(ops[3]), "p");
  EXPECT_EQ(call.name(ops[4]), "q");
}

TEST(Record, MultiBlockStream) {
  std::string text = record_text(sample_load());
  TraceRecord mul;
  mul.line = 3;
  mul.func = "foo";
  mul.bb = "6:1";
  mul.opcode = Opcode::Mul;
  mul.dyn_id = 216;
  mul.operands.push_back(Operand::input(1, Value::make_int(2), true, "8"));
  mul.operands.push_back(Operand::input(2, Value::make_int(2), false, ""));
  mul.operands.push_back(Operand::result(Value::make_int(4), "9"));
  text += record_text(mul);

  const TraceBuffer parsed = read_trace_buffer(text);
  ASSERT_EQ(parsed.size(), 2u);
  const RecordView back = parsed.view(1);
  EXPECT_EQ(back.opcode(), Opcode::Mul);
  // Empty operand names serialize as a single space and parse back empty.
  EXPECT_EQ(back.name(back.operands_begin()[1]), "");
}

TEST(Record, SkipsBlankLines) {
  const std::string text = "\n" + record_text(sample_load()) + "\n\n" + record_text(sample_load());
  EXPECT_EQ(read_trace_buffer(text).size(), 2u);
}

TEST(Sinks, FileSinkWritesParseableTrace) {
  const std::string path = testing::TempDir() + "/ac_trace_roundtrip.txt";
  TraceBuffer records;
  for (int i = 0; i < 100; ++i) {
    TraceRecord rec = sample_load();
    rec.dyn_id = static_cast<std::uint64_t>(i);
    records.append(rec);
  }
  {
    FileSink sink(path);
    for (std::size_t i = 0; i < records.size(); ++i) sink.append(records.view(i));
    sink.close();
    EXPECT_GT(sink.bytes(), 0u);
    EXPECT_EQ(sink.count(), 100u);
  }
  FileSource source(path);
  const TraceBuffer& parsed = source.buffer();
  ASSERT_EQ(parsed.size(), 100u);
  EXPECT_EQ(parsed.view(99).dyn_id(), 99u);
}

TEST(Sinks, FileSinkRejectsBadPath) {
  EXPECT_THROW(FileSink("/nonexistent_dir_xyz/trace.txt"), Error);
}

TEST(Sinks, FileSinkCloseReportsAFullDisk) {
  // A trace smaller than the stdio buffer reaches /dev/full only at fclose,
  // so close() is where the failed write must surface, naming the file.
  TraceBuffer records;
  for (int i = 0; i < 8; ++i) records.append(sample_load());
  FileSink sink("/dev/full");
  for (std::size_t i = 0; i < records.size(); ++i) sink.append(records.view(i));
  try {
    sink.close();
    ADD_FAILURE() << "close() reported " << sink.bytes() << " bytes written to a full disk";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
}

TEST(FileSourceInput, DirectoryIsATypedError) {
  // A directory opens fine but is no trace: a clean ac::Error, not an
  // allocation sized from a garbage file length.
  FileSource source(testing::TempDir());
  EXPECT_THROW(source.buffer(), Error);
  EXPECT_THROW(read_file_bytes(testing::TempDir()), Error);
}

TEST(FileSourceInput, FifoWithWriterParses) {
  // A pipe cannot be mmap()ed; the fallback must drain the descriptor it
  // already holds instead of re-opening the path (which would block waiting
  // for a second writer).
  const std::string path = testing::TempDir() + "/ac_trace_fifo_" + std::to_string(::getpid());
  std::remove(path.c_str());
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const std::string text = record_text(sample_load()) + record_text(sample_load());
  std::thread writer([&] {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) return;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  });
  FileSource source(path);
  const TraceBuffer& buf = source.buffer();
  writer.join();
  std::remove(path.c_str());
  ASSERT_EQ(buf.size(), 2u);
  EXPECT_EQ(buf.view(1).to_text(), record_text(sample_load()));
  EXPECT_STREQ(source.format(), "text");
}

}  // namespace
}  // namespace ac::trace
