// The interned trace representation: SymbolPool unit tests (dedup, id
// stability), TraceBuffer pack/materialize round-trips and chunk appends, and
// the zero-copy parser property suite — across all 14 mini-app traces the
// parse is a fixpoint of the writer, matches the golden VM trace digests'
// counts, and gives the same buffer at every thread count — plus the one
// malformed-text rejection test.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <optional>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "trace/buffer.hpp"
#include "trace/pool.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

// --- SymbolPool -------------------------------------------------------------

TEST(SymbolPool, DedupAndIdStability) {
  SymbolPool pool;
  const auto a = pool.intern("alpha");
  const auto b = pool.intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(pool.intern("alpha"), a);  // dedup
  EXPECT_EQ(pool.intern("beta"), b);
  EXPECT_EQ(pool.size(), 2u);

  // Dense first-seen ids, stable across later interns.
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  for (int i = 0; i < 100; ++i) pool.intern(strf("sym%d", i));
  EXPECT_EQ(pool.view(a), "alpha");
  EXPECT_EQ(pool.view(b), "beta");
  EXPECT_EQ(pool.find("alpha"), a);
  EXPECT_EQ(pool.find("sym42"), pool.intern("sym42"));
}

TEST(SymbolPool, EmptyAndAbsentSentinels) {
  SymbolPool pool;
  EXPECT_EQ(pool.intern(""), SymbolPool::npos);
  EXPECT_EQ(pool.find(""), SymbolPool::npos);
  EXPECT_EQ(pool.view(SymbolPool::npos), "");
  EXPECT_EQ(pool.find("missing"), SymbolPool::npos);
  // lookup() distinguishes "empty" (matches other empties) from "absent"
  // (matches nothing).
  EXPECT_EQ(pool.lookup(""), SymbolPool::npos);
  EXPECT_EQ(pool.lookup("missing"), SymbolPool::absent);
  EXPECT_EQ(pool.view(SymbolPool::absent), "");
  pool.intern("present");
  EXPECT_EQ(pool.lookup("present"), pool.find("present"));
}

TEST(SymbolPool, CopyRebuildsIndependentIndex) {
  SymbolPool pool;
  pool.intern("one");
  pool.intern("two");
  SymbolPool copy = pool;
  pool.intern("three");  // must not affect the copy
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.find("two"), 1u);
  EXPECT_EQ(copy.find("three"), SymbolPool::npos);
  EXPECT_EQ(copy.intern("four"), 2u);
}

// --- TraceBuffer pack/materialize -------------------------------------------

TraceRecord sample_record() {
  TraceRecord rec;
  rec.line = 42;
  rec.func = "kernel";
  rec.bb = "42:1";
  rec.opcode = Opcode::Store;
  rec.dyn_id = 7;
  rec.operands.push_back(Operand::input(1, Value::make_float(3.25), true, "5", 64));
  rec.operands.push_back(Operand::input(2, Value::make_addr(0x1000), true, "u"));
  rec.operands.push_back(Operand::result(Value::make_int(-9), "6", 32));
  return rec;
}

TEST(TraceBuffer, AppendMaterializeRoundTrip) {
  const TraceRecord rec = sample_record();
  TraceBuffer buf;
  buf.append(rec);
  ASSERT_EQ(buf.size(), 1u);
  const std::string text =
      "0,42,kernel,42:1,28,7\n1,64,3.250000,1,5\n2,64,0x1000,1,u\nr,32,-9,1,6\n";
  EXPECT_EQ(buf.view(0).to_text(), text);
  EXPECT_EQ(test::record_text(buf.materialize(0)), text);

  const RecordView view = buf.view(0);
  EXPECT_EQ(view.func(), "kernel");
  EXPECT_EQ(view.opcode(), Opcode::Store);
  ASSERT_NE(view.input(2), nullptr);
  EXPECT_TRUE(view.input(2)->is_addr());
  EXPECT_EQ(view.input(2)->addr(), 0x1000u);
  ASSERT_NE(view.find(OperandSlot::Result), nullptr);
  EXPECT_EQ(view.find(OperandSlot::Result)->value(), Value::make_int(-9));
  EXPECT_EQ(view.find(OperandSlot::Param), nullptr);
}

TEST(TraceBuffer, EmptyNamesPackToNpos) {
  TraceRecord rec = sample_record();
  rec.operands[0].name.clear();
  TraceBuffer buf;
  buf.append(rec);
  EXPECT_EQ(buf.view(0).operands_begin()[0].name, SymbolPool::npos);
  // to_text renders empty names as the " " placeholder.
  EXPECT_EQ(buf.view(0).to_text(),
            "0,42,kernel,42:1,28,7\n1,64,3.250000,1, \n2,64,0x1000,1,u\nr,32,-9,1,6\n");
}

TEST(TraceBuffer, AppendBufferRemapsSymbols) {
  TraceBuffer a, b;
  a.append(sample_record());
  TraceRecord other = sample_record();
  other.func = "other_fn";
  other.dyn_id = 8;
  b.append(other);

  a.append_buffer(b);
  ASSERT_EQ(a.size(), 2u);
  EXPECT_EQ(a.view(0).func(), "kernel");
  EXPECT_EQ(a.view(1).func(), "other_fn");
  EXPECT_EQ(a.view(1).to_text(), test::record_text(other));
}

TEST(TraceBuffer, ViewAppendMatchesMaterializedAppend) {
  // Views over foreign pools — including a second source pool living at a
  // dead one's address — must land exactly like their materialized records:
  // same records, same operands, same pool ids in the same order.
  std::vector<TraceRecord> recs;
  for (int i = 0; i < 6; ++i) {
    TraceRecord r = sample_record();
    r.dyn_id = static_cast<std::uint64_t>(i);
    r.func = i % 2 ? "kernel" : "other_fn";
    r.operands[i % 3].name = strf("n%d", i % 4);
    r.operands[(i + 1) % 3].name.clear();
    recs.push_back(r);
  }
  TraceBuffer via_view, via_record;
  std::optional<TraceBuffer> source;
  for (int pass = 0; pass < 2; ++pass) {
    source.emplace();
    for (std::size_t i = 0; i < recs.size(); ++i) {
      // The second source interns in reverse order: a different id space.
      source->append(recs[pass == 0 ? i : recs.size() - 1 - i]);
    }
    for (std::size_t i = 0; i < source->size(); ++i) {
      via_view.append(source->view(i));
      via_record.append(source->view(i).materialize());
    }
    source.reset();
  }
  ASSERT_EQ(via_view.size(), via_record.size());
  ASSERT_EQ(via_view.pool().size(), via_record.pool().size());
  for (std::uint32_t id = 0; id < via_view.pool().size(); ++id) {
    EXPECT_EQ(via_view.pool().view(id), via_record.pool().view(id));
  }
  ASSERT_EQ(via_view.operands().size(), via_record.operands().size());
  for (std::size_t i = 0; i < via_view.operands().size(); ++i) {
    EXPECT_EQ(via_view.operands()[i].name, via_record.operands()[i].name);
    EXPECT_EQ(via_view.operands()[i].raw, via_record.operands()[i].raw);
    EXPECT_EQ(via_view.operands()[i].flags, via_record.operands()[i].flags);
  }
  for (std::size_t i = 0; i < via_view.size(); ++i) {
    EXPECT_EQ(via_view.records()[i].func, via_record.records()[i].func);
    EXPECT_EQ(via_view.view(i).to_text(), via_record.view(i).to_text());
  }
}

TEST(TraceBuffer, ChunkAppendsReallocateLogarithmically) {
  // A daemon connection appends one decoded chunk per frame; exact-fit
  // growth would copy the whole accumulated buffer on every chunk.
  TraceBuffer chunk;
  for (int i = 0; i < 10; ++i) chunk.append(sample_record());
  TraceBuffer merged;
  constexpr int kChunks = 1000;
  int record_reallocs = 0, operand_reallocs = 0;
  for (int k = 0; k < kChunks; ++k) {
    const std::size_t rec_cap = merged.records().capacity();
    const std::size_t op_cap = merged.operands().capacity();
    merged.append_buffer(chunk);
    record_reallocs += merged.records().capacity() != rec_cap;
    operand_reallocs += merged.operands().capacity() != op_cap;
  }
  EXPECT_EQ(merged.size(), 10u * kChunks);
  // log_1.5(1000) ~ 17.
  EXPECT_LE(record_reallocs, 20);
  EXPECT_LE(operand_reallocs, 20);
}

// --- parser pinning ----------------------------------------------------------

/// `text` is rejected with a TraceFormatError whose message contains `what`.
void expect_rejected(const std::string& text, const std::string& what) {
  try {
    const TraceBuffer buf = read_trace_buffer(text);
    ADD_FAILURE() << "accepted '" << text << "' as '" << test::trace_text(buf) << "'";
  } catch (const TraceFormatError& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << "'" << e.what() << "' does not name " << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "'" << text << "' raised a non-TraceFormatError: " << e.what();
  }
}

TEST(TraceBufferParse, RejectsMalformedInput) {
  expect_rejected("1,2,3\n", "bad block header");
  expect_rejected("0,3,foo,6:1,27\n", "bad block header");  // short header
  expect_rejected("0,3,foo,6:1,999,1\n", "unknown opcode");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,0x1\n", "operand line needs 5 fields");
  expect_rejected("0,3,foo,6:1,27,215\n-2,64,5,0, \n", "bad operand index");
  // Numbers that do not fit their field are rejected, never wrapped or
  // saturated into range.
  expect_rejected("0,3,foo,6:1,4294967323,1\n", "opcode");               // would wrap to 27
  expect_rejected("0,4294967299,foo,6:1,27,1\n", "source line");          // would wrap to 3
  expect_rejected("0,99999999999999999999,foo,6:1,27,1\n", "source line");  // would saturate
  expect_rejected("0,3,foo,6:1,27,-5\n", "dyn_id");                      // would wrap to 2^64-5
  expect_rejected("0,3,foo,6:1,27,215\n4294967297,64,5,0,x\n", "operand index");
  expect_rejected("0,3,foo,6:1,27,215\n1,4294967360,5,0,x\n", "operand bits");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,5,7,x\n", "operand is_reg");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,0x10000000000000000,1,x\n", "operand value");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,99999999999999999999,1,x\n", "operand value");
  // Malformed numbers are the same typed error, naming the field.
  expect_rejected("0,abc,foo,6:1,27,1\n", "source line");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,0xZZ,1,x\n", "operand value");
  expect_rejected("0,3,foo,6:1,27,215\n1,64,0x-1,1,x\n", "operand value");
  EXPECT_EQ(read_trace_buffer("").size(), 0u);
  EXPECT_EQ(read_trace_buffer("\n  \n\n").size(), 0u);
  // The widest values each field holds still parse.
  const TraceBuffer edge = read_trace_buffer(
      "0,-2147483648,foo,6:1,27,18446744073709551615\n"
      "2147483647,-1,0xffffffffffffffff,1,x\nr,64,-9223372036854775808,0,y\n");
  ASSERT_EQ(edge.size(), 1u);
  EXPECT_EQ(edge.records()[0].line, INT32_MIN);
  EXPECT_EQ(edge.records()[0].dyn_id, UINT64_MAX);
  EXPECT_EQ(edge.operands()[0].index, INT32_MAX);
  EXPECT_EQ(edge.operands()[0].raw, UINT64_MAX);
  EXPECT_EQ(edge.operands()[1].value(), Value::make_int(INT64_MIN));
}

/// "records=N operands=N symbols=N" of `app` in the golden VM trace digests.
std::string golden_counts(const std::string& app) {
  std::ifstream in(std::string(AC_TEST_SOURCE_DIR) + "/golden/vm_trace_digests.txt");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(app + " ", 0) != 0) continue;
    const std::size_t begin = line.find("records=");
    return line.substr(begin, line.find(" text_crc=") - begin);
  }
  return "missing from the golden file";
}

/// The round-trip property across the whole suite: the zero-copy parse is a
/// fixpoint of the writer — re-rendering the parsed records gives back the
/// input bytes — its record, operand and symbol counts are the golden VM
/// trace digests', and 2 and 4 threads give the one-thread buffer.
class BufferRoundTrip : public testing::TestWithParam<std::string> {};

TEST_P(BufferRoundTrip, WriterFixpointAndGoldenCounts) {
  const apps::App& app = apps::find_app(GetParam());
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const ir::Module module = minic::compile(app.source());
  vm::run_module(module, ropts);
  const std::string text = test::trace_text(sink.buffer());

  const TraceBuffer serial = read_trace_buffer(text);
  EXPECT_EQ(test::trace_text(serial), text);
  EXPECT_EQ(strf("records=%zu operands=%zu symbols=%zu", serial.size(),
                 serial.operands().size(), serial.pool().size()),
            golden_counts(app.name));
  for (const int threads : {2, 4}) {
    SCOPED_TRACE(strf("threads=%d", threads));
    test::expect_same_buffer(serial, read_trace_buffer(text, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(
    All14, BufferRoundTrip,
    testing::Values("Himeno", "HPCCG", "CG", "MG", "FT", "SP", "EP", "IS", "BT", "LU",
                    "CoMD", "miniAMR", "AMG", "HACC"),
    [](const testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

// --- BufferSink + Session buffer path ---------------------------------------

TEST(BufferSink, FeedsSessionWithoutLegacyRecords) {
  const std::string src = test::fig4_source();
  const ir::Module module = minic::compile(src);

  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  vm::run_module(module, ropts);
  const std::uint64_t streamed = sink.count();
  EXPECT_GT(streamed, 0u);

  const analysis::Report from_buffer = analysis::Session()
                                           .buffer(sink.take())
                                           .region_from_markers(src)
                                           .run();
  EXPECT_EQ(sink.count(), 0u);  // taken

  const auto run = test::run_pipeline(src);
  EXPECT_EQ(run.trace.size(), streamed);
  EXPECT_EQ(from_buffer.verdicts.critical, run.report.verdicts.critical);
  EXPECT_EQ(from_buffer.verdicts.all_mli, run.report.verdicts.all_mli);
}

}  // namespace
}  // namespace ac::trace
