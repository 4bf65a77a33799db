// The interned trace representation: SymbolPool unit tests (dedup, id
// stability, thread-safe bulk intern), TraceBuffer pack/materialize
// round-trips, and the zero-copy parser property suite — across all 14
// mini-app traces, serial and parallel, the parse is a fixpoint of the writer
// and matches the golden VM trace digests' counts.
#include <gtest/gtest.h>

#include <fstream>
#include <optional>
#include <thread>

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

TEST(SymbolPool, ConcurrentBulkMerge) {
  // N workers build private pools with overlapping symbol sets and merge
  // them into one shared pool concurrently; every remap entry must resolve
  // to the right bytes.
  constexpr int kWorkers = 8;
  constexpr int kSymbols = 200;
  std::vector<SymbolPool> locals(kWorkers);
  for (int w = 0; w < kWorkers; ++w) {
    for (int s = 0; s < kSymbols; ++s) {
      // Half shared across workers, half private.
      locals[static_cast<std::size_t>(w)].intern(
          s % 2 == 0 ? strf("shared%d", s) : strf("w%d_sym%d", w, s));
    }
  }

  SymbolPool shared;
  std::vector<std::vector<std::uint32_t>> remaps(kWorkers);
  {
    std::vector<std::thread> threads;
    threads.reserve(kWorkers);
    for (int w = 0; w < kWorkers; ++w) {
      threads.emplace_back([&, w] {
        remaps[static_cast<std::size_t>(w)] =
            shared.merge(locals[static_cast<std::size_t>(w)]);
      });
    }
    for (auto& t : threads) t.join();
  }

  for (int w = 0; w < kWorkers; ++w) {
    const auto& local = locals[static_cast<std::size_t>(w)];
    const auto& remap = remaps[static_cast<std::size_t>(w)];
    ASSERT_EQ(remap.size(), local.size());
    for (std::uint32_t id = 0; id < local.size(); ++id) {
      EXPECT_EQ(shared.view(remap[id]), local.view(id)) << "worker " << w << " id " << id;
    }
  }
  // Shared symbols deduplicated: 100 shared + 8*100 private.
  EXPECT_EQ(shared.size(), 100u + 8u * 100u);
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
  const TraceRecord back = buf.materialize(0);
  EXPECT_EQ(back.to_text(), rec.to_text());
  EXPECT_EQ(buf.view(0).to_text(), rec.to_text());

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
  // to_text renders empty names as the " " placeholder, exactly like the
  // legacy writer.
  EXPECT_EQ(buf.view(0).to_text(), rec.to_text());
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
  EXPECT_EQ(a.view(1).to_text(), other.to_text());
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

TEST(TraceBufferParse, RejectsMalformedInput) {
  EXPECT_THROW(read_trace_buffer("1,2,3\n"), TraceFormatError);
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27\n"), TraceFormatError);     // short header
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,999,1\n"), TraceFormatError); // bad opcode
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27,215\n1,64,0x1\n"), TraceFormatError);
  EXPECT_THROW(read_trace_buffer("0,3,foo,6:1,27,215\n-2,64,5,0, \n"), TraceFormatError);
  EXPECT_EQ(read_trace_buffer("").size(), 0u);
  EXPECT_EQ(read_trace_buffer("\n  \n\n").size(), 0u);
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

/// The round-trip property across the whole suite: the zero-copy parse
/// (serial and parallel) is a fixpoint of the writer — re-rendering the parsed
/// records gives back the input bytes — and its record, operand and symbol
/// counts are the golden VM trace digests'.
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
    const TraceBuffer parallel = read_trace_buffer_parallel(text, threads);
    EXPECT_EQ(test::trace_text(parallel), text) << "threads=" << threads;
    EXPECT_EQ(parallel.operands().size(), serial.operands().size()) << "threads=" << threads;
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
