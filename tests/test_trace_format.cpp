#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <thread>

#include "support/error.hpp"
#include "support/file.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
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

// --- the renderer against snprintf -----------------------------------------

/// The record rendered by snprintf with the format strings the renderer used
/// before std::to_chars: the reference the text format was defined by.
std::string snprintf_text(const RecordView& rec) {
  char line[512];
  const std::string func(rec.func()), bb(rec.bb());
  std::string out;
  std::snprintf(line, sizeof line, "0,%d,%s,%s,%d,%" PRIu64 "\n", rec.line(), func.c_str(),
                bb.c_str(), static_cast<int>(rec.opcode()), rec.dyn_id());
  out += line;
  for (std::size_t k = 0; k < rec.operand_count(); ++k) {
    const OperandRef op = rec.operand(k);
    switch (op->slot()) {
      case OperandSlot::Input:
        std::snprintf(line, sizeof line, "%d", op->index());
        out += line;
        break;
      case OperandSlot::Callee: out += '0'; break;
      case OperandSlot::Param: out += 'f'; break;
      case OperandSlot::Result: out += 'r'; break;
    }
    const Value v = op->value();
    switch (v.kind) {
      case ValueKind::Int: std::snprintf(line, sizeof line, ",%d,%" PRId64, op->bits(), v.i); break;
      case ValueKind::Float: std::snprintf(line, sizeof line, ",%d,%.6f", op->bits(), v.f); break;
      case ValueKind::Addr:
        std::snprintf(line, sizeof line, ",%d,0x%" PRIx64, op->bits(), v.addr);
        break;
    }
    out += line;
    const std::string name(rec.name(*op));
    std::snprintf(line, sizeof line, ",%d,%s\n", op->is_reg() ? 1 : 0,
                  name.empty() ? " " : name.c_str());
    out += line;
  }
  return out;
}

/// Doubles whose %.6f spelling is easy to get wrong: signed zeros and
/// infinities, NaNs of both signs with payloads, the extremes, subnormals,
/// fields past 64 bytes, exact ties at the 7th decimal (odd multiples of
/// 2^-7, which round half to even) and near-ties at 5e-7 offsets.
std::vector<double> edge_doubles() {
  std::vector<double> out = {0.0, -0.0, INFINITY, -INFINITY, DBL_MAX, -DBL_MAX, DBL_MIN,
                             -DBL_MIN, DBL_TRUE_MIN, -DBL_TRUE_MIN, 1e55, -1e55, 1e56, -1e56,
                             0.0078125, -0.0078125, 0.5e-6, 1.5e-6, 2.5e-6, 999999.9999995};
  for (const std::uint64_t nan : {0x7ff8000000000000ull, 0xfff8000000000000ull,
                                  0x7ff0000000000001ull, 0xfff0000000000001ull,
                                  0x7ff8dead0000beefull, 0xffffffffffffffffull}) {
    out.push_back(std::bit_cast<double>(nan));
  }
  for (int m = 1; m < 4096; m += 2) {
    out.push_back(std::ldexp(m, -7));
    out.push_back(-std::ldexp(m, -7));
    out.push_back(m * 5e-7);
    out.push_back(-m * 5e-7);
  }
  return out;
}

/// "" when `a == b`, else the first differing line of each.
std::string first_difference(const std::string& a, const std::string& b) {
  if (a == b) return "";
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const auto line_of = [at](const std::string& s) {
    const std::size_t begin = s.rfind('\n', at == 0 ? 0 : at - 1);
    const std::size_t from = begin == std::string::npos ? 0 : begin + 1;
    return s.substr(from, s.find('\n', from) - from);
  };
  return "'" + line_of(a) + "' vs '" + line_of(b) + "'";
}

TEST(Render, MatchesSnprintfAndReparsesToTheSameBytes) {
  // Every field at its extremes, then doubles from random bit patterns and
  // uniform in +-1e6, 14 to a record after one int and one address: the
  // rendered text is snprintf's, and parsing it and rendering again gives
  // the same bytes. (snprintf's %.6f of a random bit pattern averages ~3 us,
  // so 2^17 of them keep the test near a second.)
  std::vector<double> doubles = edge_doubles();
  SplitMix64 rng(22);
  for (int i = 0; i < (1 << 17); ++i) doubles.push_back(std::bit_cast<double>(rng.next()));
  for (int i = 0; i < (1 << 17); ++i) doubles.push_back((rng.uniform() * 2 - 1) * 1e6);

  constexpr std::int32_t kLines[] = {INT32_MIN, -1, 0, INT32_MAX};
  constexpr std::int32_t kBits[] = {INT32_MIN, -1, 0, 1, 64, INT32_MAX};
  constexpr std::int32_t kIndices[] = {1, 2, INT32_MAX};
  constexpr std::int64_t kInts[] = {INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX};
  constexpr std::uint64_t kAddrs[] = {0, 1, 0x7ffcf3f25a70, UINT64_MAX};
  constexpr Opcode kOps[] = {Opcode::Load, Opcode::Store, Opcode::FMul, Opcode::Call};
  constexpr std::size_t kRecordsPerBatch = 4096;
  constexpr std::size_t kOperands = 16;

  std::size_t next_double = 0, record = 0;
  while (next_double < doubles.size()) {
    TraceBuffer buf;
    const std::uint32_t names[] = {SymbolPool::npos, buf.pool().intern("x"),
                                   buf.pool().intern("rhs_norm"), buf.pool().intern("17")};
    const std::uint32_t func = buf.pool().intern("main");
    const std::uint32_t bb = buf.pool().intern("12:3");
    for (std::size_t r = 0; r < kRecordsPerBatch && next_double < doubles.size(); ++r, ++record) {
      Site site;
      site.line = record < std::size(kLines) ? kLines[record]
                                              : static_cast<std::int32_t>(rng.next());
      site.func = func;
      site.bb = record % 5 == 0 ? SymbolPool::npos : bb;
      site.opcode = kOps[record % std::size(kOps)];
      site.op_count = kOperands;
      const std::uint64_t dyn_id = record == 0 ? UINT64_MAX : rng.next();
      OperandTemplate ops[kOperands];
      std::uint64_t values[kOperands];
      for (std::size_t k = 0; k < kOperands; ++k) {
        const std::size_t n = record * kOperands + k;
        OperandTemplate& op = ops[k];
        const auto slot = static_cast<OperandSlot>(n % 4);
        if (slot == OperandSlot::Input) {
          op.index = n < 64 ? kIndices[n % std::size(kIndices)]
                            : static_cast<std::int32_t>(rng.below(INT32_MAX)) + 1;
        }
        op.bits = n < 64 ? kBits[n % std::size(kBits)] : static_cast<std::int32_t>(rng.next());
        Value v;
        if (k == 0) {
          v = Value::make_int(record < std::size(kInts) ? kInts[record]
                                                       : static_cast<std::int64_t>(rng.next()));
        } else if (k == 1) {
          v = Value::make_addr(record < std::size(kAddrs) ? kAddrs[record] : rng.next());
        } else {
          // The last record wraps round to the first doubles.
          v = Value::make_float(doubles[next_double++ % doubles.size()]);
        }
        values[k] = raw_of(v);
        op.name = names[n % std::size(names)];
        op.flags = OperandTemplate::pack_flags(slot, v.kind, n % 3 == 0);
      }
      const std::size_t offset = buf.values().size();
      buf.values().insert(buf.values().end(), values, values + kOperands);
      buf.push_record(buf.intern_site(site, ops), offset, dyn_id);
    }

    const std::string text = test::trace_text(buf);
    std::string reference;
    for (std::size_t i = 0; i < buf.size(); ++i) reference += snprintf_text(buf.view(i));
    ASSERT_EQ(first_difference(text, reference), "");
    ASSERT_EQ(first_difference(test::trace_text(read_trace_buffer(text)), text), "");
  }
}

TEST(Render, EdgeDoublesParseToStrtodBits) {
  // The renderer's spelling of every edge double reads back to the bits
  // strtod reads from it, through the trace parse and value_from_text alike.
  const std::vector<double> doubles = edge_doubles();
  std::string text = "0,3,foo,6:1,16,1\n";
  std::vector<std::string> spelled;
  for (const double d : doubles) {
    spelled.push_back(value_to_text(Value::make_float(d)));
    text += "1,64," + spelled.back() + ",1,x\n";
  }
  const TraceBuffer buf = read_trace_buffer(text);
  ASSERT_EQ(buf.values().size(), doubles.size());
  for (std::size_t i = 0; i < doubles.size(); ++i) {
    const std::uint64_t want =
        std::bit_cast<std::uint64_t>(std::strtod(spelled[i].c_str(), nullptr));
    ASSERT_EQ(buf.values()[i], want) << spelled[i];
    ASSERT_EQ(std::bit_cast<std::uint64_t>(value_from_text(spelled[i]).f), want) << spelled[i];
  }
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
  EXPECT_TRUE(is_arithmetic(Opcode::ICmp));  // comparison flags keep data provenance
  EXPECT_FALSE(is_arithmetic(Opcode::Load));
  EXPECT_FALSE(is_arithmetic(Opcode::Call));
  EXPECT_FALSE(is_arithmetic(Opcode::Br));
}

TEST(Opcode, KnownNumbersAreExactlyTheList) {
  // The 24 LLVM 3.4 numbers a trace may carry, written out independently of
  // AC_OPCODES.
  const std::set<int> known = {1,  2,  8,  9,  10, 11, 12, 13, 14, 15, 16, 17,
                               18, 19, 26, 27, 28, 29, 34, 36, 43, 46, 47, 49};
  ASSERT_EQ(known.size(), 24u);
  for (int num = -1; num <= 256; ++num) {
    EXPECT_EQ(is_known_opcode(num), known.count(num) > 0) << num;
  }
  for (const int num : {0, 3, 20, 48, 50, 255}) EXPECT_FALSE(is_known_opcode(num)) << num;
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
  EXPECT_EQ(rec.name(rec.operand(0)), "p");
  EXPECT_TRUE(rec.operand(0).is_addr());
  EXPECT_EQ(rec.operand(1).slot(), OperandSlot::Result);
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
  EXPECT_EQ(&call.find(OperandSlot::Param).tmpl(), &call.operand(3).tmpl());
  EXPECT_EQ(call.operand(4).slot(), OperandSlot::Param);
  EXPECT_EQ(call.name(call.operand(3)), "p");
  EXPECT_EQ(call.name(call.operand(4)), "q");
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
  EXPECT_EQ(back.name(back.operand(1)), "");
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
  std::remove(path.c_str());
  ASSERT_EQ(parsed.size(), 100u);
  EXPECT_EQ(parsed.view(99).dyn_id(), 99u);
}

TEST(Sinks, HugeFloatsSurviveAFileRoundTrip) {
  // %.6f spells |v| >= 1e56 (1e55 when negative) in 64 bytes or more, and
  // -DBL_MAX in 317: every value the writer emits must read back bit-exact.
  const std::vector<double> values = {1e55, -1e55, 1e56, -1e56, DBL_MAX, -DBL_MAX};
  std::string blocks;
  for (std::size_t i = 0; i < values.size(); ++i) {
    blocks += strf("0,6,main,6:5,13,%zu\nr,64,0.000000,1,x\n", i);
  }
  TraceBuffer records = read_trace_buffer(blocks);
  for (std::size_t i = 0; i < values.size(); ++i) {
    records.values()[i] = raw_of(Value::make_float(values[i]));
  }
  const std::string path = testing::TempDir() + "/ac_trace_huge_floats.txt";
  {
    FileSink sink(path);
    for (std::size_t i = 0; i < records.size(); ++i) sink.append(records.view(i));
    sink.close();
  }
  const std::string written = read_file_bytes(path);
  EXPECT_EQ(written, test::trace_text(records));
  EXPECT_NE(written.find("-1797693134862315708145274237317043567980"), std::string::npos);
  FileSource source(path);
  const TraceBuffer& parsed = source.buffer();
  ASSERT_EQ(parsed.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    const Value v = parsed.view(i).operand(0).value();
    ASSERT_TRUE(v.is_float()) << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(v.f), std::bit_cast<std::uint64_t>(values[i])) << i;
  }
  EXPECT_EQ(test::trace_text(parsed), written);
  std::remove(path.c_str());
}

TEST(Sinks, HugeFloatTraceGivesTheInMemoryVerdicts) {
  // x grows by 1e10 an iteration, so y's trace fields pass 64 bytes: the
  // file path must still parse them and name what the in-memory path names.
  const std::string src =
      "int main() {\n"
      "  double x = 1.0;\n"
      "  double y = 0.0;\n"
      "  //@mcl-begin\n"
      "  for (int it = 0; it < 8; it = it + 1) {\n"
      "    x = x * 1.0e10;\n"
      "    y = y + x;\n"
      "  }\n"
      "  //@mcl-end\n"
      "  print_float(y);\n"
      "  return 0;\n"
      "}\n";
  const test::PipelineRun memory = test::run_pipeline(src);
  std::set<std::string> names;
  for (const auto& cv : memory.report.verdicts.critical) names.insert(cv.name);
  EXPECT_EQ(names, (std::set<std::string>{"it", "x", "y"}));

  const std::string path = testing::TempDir() + "/ac_trace_huge_program.txt";
  {
    FileSink sink(path);
    test::run_source(src, &sink);
    sink.close();
  }
  const analysis::Report file = analysis::Session().file(path).region_from_markers(src).run();
  std::remove(path.c_str());
  EXPECT_EQ(file.verdicts.critical, memory.report.verdicts.critical);
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
