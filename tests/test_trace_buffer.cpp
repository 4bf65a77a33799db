// The interned trace representation: SymbolPool unit tests (dedup, id
// stability), the PodArray the trace arrays live in (a property test against
// std::vector across the 1 MiB mapping threshold, the spare mapping, threads
// sharing it), TraceBuffer pack/materialize round-trips and chunk appends, and
// the zero-copy parser property suite — across all 14 mini-app traces the
// parse is a fixpoint of the writer, matches the golden VM trace digests'
// counts, and gives the same buffer at every thread count — the fixpoint for
// names with embedded NULs, and the one malformed-text rejection test.
#include <gtest/gtest.h>
#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/session.hpp"
#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/metrics.hpp"
#include "support/pod_array.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "trace/buffer.hpp"
#include "trace/mctb.hpp"
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

// --- PodArray -----------------------------------------------------------------

/// A 24-byte element, a Site's size. Each element type has a spare of
/// its own, so a test that needs to know the spare's state uses its own Tag.
template <int Tag>
struct Cell {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint32_t c = 0;
  std::int32_t d = -1;  // value-initialization must write it
  bool operator==(const Cell&) const = default;
};

/// Elements in 1 MiB, the size at which a PodArray's storage is a mapping.
template <class T>
constexpr std::size_t kMappedElements = detail::kMapBytes / sizeof(T);

template <class T>
bool same_elements(const PodArray<T>& a, const std::vector<T>& v) {
  if (a.size() != v.size() || a.capacity() < a.size()) return false;
  std::size_t i = 0;
  for (const T& x : a) {
    if (!(x == v[i++])) return false;
  }
  return true;
}

TEST(PodArray, MatchesVectorAcrossTheMappingThreshold) {
  using C = Cell<0>;
  constexpr std::size_t kMapped = kMappedElements<C>;
  SplitMix64 rng(2026);
  const auto make = [&rng] {
    C c;
    c.a = rng.next();
    c.b = rng.next();
    c.c = static_cast<std::uint32_t>(rng.next());
    c.d = static_cast<std::int32_t>(rng.next());
    return c;
  };
  PodArray<C> a;
  std::vector<C> v;
  int mapped_steps = 0;
  for (int step = 0; step < 240; ++step) {
    if (v.size() > 4 * kMapped) {  // keep the sizes within a few MiB
      const std::size_t n = rng.below(kMapped);
      a.resize(n);
      v.resize(n);
    }
    const std::uint64_t op = rng.below(10);
    SCOPED_TRACE(strf("step %d, op %llu, size %zu", step, static_cast<unsigned long long>(op),
                      v.size()));
    switch (op) {
      case 0:
      case 1: {  // a run of pushes, often across a growth
        const std::size_t n = 1 + rng.below(kMapped / 3);
        for (std::size_t i = 0; i < n; ++i) {
          const C c = make();
          a.push_back(c);
          v.push_back(c);
        }
        break;
      }
      case 2: {  // push an element of the array itself, as the push grows it when
                 // the capacity is near
        if (a.empty()) break;
        while (a.size() < a.capacity() && a.capacity() - a.size() <= kMapped) {
          const C c = make();
          a.push_back(c);
          v.push_back(c);
        }
        const std::size_t i = rng.below(a.size());
        a.push_back(a[i]);
        v.push_back(v[i]);
        break;
      }
      case 3: {
        const std::size_t n = rng.below(3 * kMapped);
        a.reserve(n);
        EXPECT_GE(a.capacity(), n);
        break;
      }
      case 4: {  // value-initializing resize, up or down
        const std::size_t n = rng.below(3 * kMapped);
        a.resize(n);
        v.resize(n);
        break;
      }
      case 5: {  // uninitialized resize, then every new slot written
        const std::size_t old = v.size();
        const std::size_t n = old + rng.below(kMapped);
        a.resize_uninitialized(n);
        v.resize(n);
        for (std::size_t i = old; i < n; ++i) a[i] = v[i] = make();
        break;
      }
      case 6: {  // append a range: fresh elements, or a slice of the array itself
        if (!v.empty() && rng.chance(0.5)) {
          const std::size_t i = rng.below(v.size());
          const std::size_t j = i + rng.below(v.size() - i + 1);
          a.insert(a.end(), a.data() + i, a.data() + j);
          v.insert(v.end(), v.begin() + static_cast<std::ptrdiff_t>(i),
                   v.begin() + static_cast<std::ptrdiff_t>(j));
        } else {
          std::vector<C> more(rng.below(kMapped));
          for (C& c : more) c = make();
          a.insert(a.end(), more.data(), more.data() + more.size());
          v.insert(v.end(), more.begin(), more.end());
        }
        break;
      }
      case 7: {  // clear and refill
        a.clear();
        v.clear();
        EXPECT_TRUE(a.empty());
        const std::size_t n = rng.below(2 * kMapped);
        for (std::size_t i = 0; i < n; ++i) {
          const C c = make();
          a.push_back(c);
          v.push_back(c);
        }
        break;
      }
      case 8: {  // copy construction and copy assignment over a smaller and a larger array
        PodArray<C> copy = a;
        EXPECT_TRUE(same_elements(copy, v));
        PodArray<C> small;
        small.push_back(make());
        small = copy;
        EXPECT_TRUE(same_elements(small, v));
        copy.resize(copy.size() / 2);
        copy = small;
        EXPECT_TRUE(same_elements(copy, v));
        break;
      }
      default: {  // move construction, move assignment and self-move
        PodArray<C> moved = std::move(a);
        EXPECT_TRUE(a.empty());
        EXPECT_EQ(a.data(), nullptr);
        PodArray<C>& alias = moved;
        moved = std::move(alias);
        EXPECT_TRUE(same_elements(moved, v));
        a.push_back(make());  // a moved-from array is usable, and then replaced
        a = std::move(moved);
        break;
      }
    }
    ASSERT_TRUE(same_elements(a, v));
    if (a.capacity() * sizeof(C) >= detail::kMapBytes) {
      ++mapped_steps;
#ifdef AC_POD_ARRAY_ASAN
      // The unused capacity of a mapped array is poisoned.
      if (a.size() < a.capacity()) EXPECT_TRUE(__asan_address_is_poisoned(a.data() + a.size()));
#endif
    }
  }
  EXPECT_GT(mapped_steps, 0);
}

TEST(PodArray, ASecondArrayStartsFromTheFreedArraysMapping) {
  using C = Cell<1>;  // no other test maps this type, so its spare starts empty
  std::uintptr_t first_data = 0;
  std::size_t first_capacity = 0;
  {
    PodArray<C> first;
    first.reserve(2 * kMappedElements<C>);
    first_data = reinterpret_cast<std::uintptr_t>(first.data());
    first_capacity = first.capacity();
    first.resize(first.capacity());  // touch every page
  }
  // Growing past 1 MiB takes the spare whole.
  PodArray<C> second;
  while (second.size() <= kMappedElements<C>) second.push_back(C{});
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(second.data()), first_data);
  EXPECT_EQ(second.capacity(), first_capacity);
  // So does a reserve past 1 MiB, once the second is freed in its turn.
  second = PodArray<C>();
  PodArray<C> third;
  third.reserve(kMappedElements<C> + 1);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(third.data()), first_data);
}

TEST(PodArray, SpareKeepsTheLargerMappingUpTo256MiB) {
  detail::Mapping spare;
  const detail::Mapping one = detail::acquire_mapping(spare, detail::kMapBytes);
  detail::Mapping two = detail::acquire_mapping(spare, 2 * detail::kMapBytes);
  ASSERT_GE(two.bytes, 2 * detail::kMapBytes);
  std::memset(two.base, 0x5a, two.bytes);
  detail::release_mapping(spare, two);
  EXPECT_EQ(spare.base, two.base);
  detail::release_mapping(spare, one);  // the smaller is unmapped
  EXPECT_EQ(spare.base, two.base);

  // A larger request grows the spare; its pages move, their bytes with them.
  two = detail::acquire_mapping(spare, 4 * detail::kMapBytes);
  EXPECT_EQ(spare.base, nullptr);
  ASSERT_GE(two.bytes, 4 * detail::kMapBytes);
  const auto* bytes = static_cast<const unsigned char*>(two.base);
  EXPECT_TRUE(std::all_of(bytes, bytes + 2 * detail::kMapBytes,
                          [](unsigned char b) { return b == 0x5a; }));
  detail::release_mapping(spare, two);

  // A mapping above the bound is unmapped rather than kept, even as the
  // larger one (it is never touched: only address space is taken).
  detail::Mapping other;
  const detail::Mapping huge = detail::acquire_mapping(other, detail::kSpareMaxBytes + 1);
  detail::release_mapping(other, huge);
  EXPECT_EQ(other.base, nullptr);
  ASSERT_EQ(munmap(spare.base, spare.bytes), 0);
}

TEST(PodArray, ThreadsCreateAndFreeMappedArraysAtOnce) {
  using C = Cell<2>;
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([t, &wrong] {
      SplitMix64 rng(static_cast<std::uint64_t>(t) + 1);
      for (std::uint32_t round = 0; round < 8; ++round) {
        PodArray<C> a;
        const std::size_t n = kMappedElements<C> / 2 + rng.below(2 * kMappedElements<C>);
        if (round % 2 == 1) a.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          C c;
          c.a = i;
          c.b = static_cast<std::uint64_t>(t);
          c.c = round;
          a.push_back(c);
        }
        for (std::size_t i = 0; i < n; ++i) {
          if (a[i].a != i || a[i].b != static_cast<std::uint64_t>(t) || a[i].c != round) {
            ++wrong;
            break;
          }
        }
      }
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(wrong.load(), 0);
}

/// An 8-byte element: its mapped capacity is the mapping's bytes exactly.
template <int Tag>
struct Word {
  std::uint64_t v = 0;
};

TEST(PodArray, SpareBytesGaugeTracksTheSpare) {
  using W = Word<0>;  // no other test maps this type, so its spare starts empty
  const telemetry::Gauge& gauge = telemetry::metrics().gauge("pod_array.spare_bytes");
  const std::int64_t before = gauge.value();
  std::size_t mapped = 0;
  {
    PodArray<W> first;
    first.reserve(2 * kMappedElements<W>);
    mapped = first.capacity() * sizeof(W);
    EXPECT_EQ(gauge.value(), before);
  }
  // The freed array's mapping is its type's spare now...
  EXPECT_EQ(gauge.value(), before + static_cast<std::int64_t>(mapped));
  // ...until the next array to reach 1 MiB takes it.
  PodArray<W> second;
  second.reserve(kMappedElements<W> + 1);
  EXPECT_EQ(second.capacity() * sizeof(W), mapped);
  EXPECT_EQ(gauge.value(), before);
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
  EXPECT_EQ(buf.view(0).operand(0).name_id(), SymbolPool::npos);
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
  test::expect_same_buffer(via_view, via_record);
  for (std::size_t i = 0; i < via_view.size(); ++i) {
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
    const std::size_t op_cap = merged.values().capacity();
    merged.append_buffer(chunk);
    record_reallocs += merged.records().capacity() != rec_cap;
    operand_reallocs += merged.values().capacity() != op_cap;
  }
  EXPECT_EQ(merged.size(), 10u * kChunks);
  // Doubling from 16 elements: 10 reallocations for 10,000.
  EXPECT_LE(record_reallocs, 20);
  EXPECT_LE(operand_reallocs, 20);
}

TEST(TraceBuffer, ByteSizeIsWhatTheBufferHolds) {
  // A large buffer, freed: its mappings become the spares...
  {
    TraceBuffer big;
    for (int i = 0; i < 100000; ++i) big.append(sample_record());
    ASSERT_GE(big.values().capacity() * sizeof(std::uint64_t), detail::kMapBytes);
  }
  // ...that a small buffer's first reserve past 1 MiB takes whole. Its size
  // is still its own: 8 bytes a record and a value, its site table, its one
  // stored dyn_id (7, not 0) and its pool's bytes.
  TraceBuffer small;
  small.reserve(detail::kMapBytes / sizeof(RecordEntry), detail::kMapBytes / sizeof(std::uint64_t));
  small.append(sample_record());
  EXPECT_EQ(small.byte_size(), sizeof(RecordEntry) + 3 * sizeof(std::uint64_t) + sizeof(Site) +
                                   3 * sizeof(OperandTemplate) + sizeof(DynBreak) +
                                   small.pool().byte_size());
  EXPECT_EQ(small.pool().byte_size(), std::string("kernel42:156u").size() + 5 * 8);
  EXPECT_LT(small.byte_size(), 200u);
}

/// A trace whose records exercise every case of the representation: a first
/// dyn_id that is not 0, a gap, a repeated and a decreasing dyn_id; one
/// (func, bb, line, opcode) with an Int input, then a Float input, then a
/// differently named input; a record with no operands and an unnamed
/// operand. Repeated `reps` times with its dyn_ids shifted, so a parallel
/// parse splits it.
std::string every_case_trace(int reps) {
  std::string text;
  for (int r = 0; r < reps; ++r) {
    const int d = 10 * r;
    text += strf("0,5,main,5:0,13,%d\n1,64,2,1,x\nr,64,4,1,8\n", 3 + d);
    text += strf("0,5,main,5:0,13,%d\n1,64,2.500000,1,x\nr,64,4,1,8\n", 4 + d);
    text += strf("0,5,main,5:0,13,%d\n1,64,2,1,y\nr,64,4,1,8\n", 9 + d);
    text += strf("0,6,main,6:0,2,%d\n", 9 + d);
    text += strf("0,7,main,7:0,8,%d\n1,64,5,0, \nr,64,6,1,9\n", 4 + d);
    text += strf("0,5,main,5:0,13,%d\n1,64,3,1,x\nr,64,7,1,8\n", 5 + d);
  }
  return text;
}

TEST(TraceBuffer, OneBufferWhoeverWritesIt) {
  for (const int reps : {1, 4000}) {
    SCOPED_TRACE(strf("reps=%d", reps));
    const std::string text = every_case_trace(reps);
    const TraceBuffer whole = read_trace_buffer(text, 1);
    ASSERT_EQ(whole.size(), 6u * static_cast<std::size_t>(reps));
    EXPECT_EQ(whole.sites().size(), 5u);  // the Int, Float and y variants are three sites
    EXPECT_FALSE(whole.dyn_breaks().empty());
    EXPECT_EQ(test::trace_text(whole), text);
    const TraceBuffer parallel = read_trace_buffer(text, 4);
    EXPECT_EQ(test::trace_text(parallel), text);
    test::expect_same_buffer(whole, parallel);

    // Through MCTB, at every chunking and decode thread count.
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{65536}}) {
      MctbOptions opts;
      opts.chunk_records = chunk;
      const std::string img = mctb_to_bytes(whole, opts);
      for (const int threads : {1, 4}) {
        SCOPED_TRACE(strf("chunk_records=%zu threads=%d", chunk, threads));
        MctbReadOptions ropts;
        ropts.num_threads = threads;
        const TraceBuffer decoded = read_mctb(img, ropts);
        EXPECT_EQ(test::trace_text(decoded), text);
        test::expect_same_buffer(whole, decoded);
      }
    }

    // The two halves, appended.
    const std::size_t half = text.find("\n0,6,main", text.size() / 2) + 1;
    TraceBuffer halves = read_trace_buffer(text.substr(0, half));
    halves.append_buffer(read_trace_buffer(text.substr(half)));
    test::expect_same_buffer(whole, halves);

    // Each record as a view, and each record materialized.
    TraceBuffer viewed, owned;
    for (std::size_t i = 0; i < whole.size(); ++i) {
      viewed.append(whole.view(i));
      owned.append(whole.materialize(i));
    }
    test::expect_same_buffer(whole, viewed);
    test::expect_same_buffer(whole, owned);
  }
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
  expect_rejected("0,3,foo,6:1,27,215\n1,64," + std::string(80, '1') + ".0.0,1,x\n",
                  "operand value");  // over-long garbage
  EXPECT_EQ(read_trace_buffer("").size(), 0u);
  EXPECT_EQ(read_trace_buffer("\n  \n\n").size(), 0u);
  // The widest values each field holds still parse.
  const TraceBuffer edge = read_trace_buffer(
      "0,-2147483648,foo,6:1,27,18446744073709551615\n"
      "2147483647,-1,0xffffffffffffffff,1,x\nr,64,-9223372036854775808,0,y\n");
  ASSERT_EQ(edge.size(), 1u);
  EXPECT_EQ(edge.view(0).line(), INT32_MIN);
  EXPECT_EQ(edge.view(0).dyn_id(), UINT64_MAX);
  EXPECT_EQ(edge.view(0).operand(0).index(), INT32_MAX);
  EXPECT_EQ(edge.view(0).operand(0).raw(), UINT64_MAX);
  EXPECT_EQ(edge.view(0).operand(1).value(), Value::make_int(INT64_MIN));
}

/// The bits std::strtod reads from `text`, the float reader the text format
/// was defined by.
std::uint64_t strtod_bits(const std::string& text) {
  return std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr));
}

TEST(TraceBufferParse, AcceptedSpellingsArePinned) {
  const TraceBuffer plain = read_trace_buffer(
      "0,3,foo,6:1,27,215\n1,64,0x7ffcf3f25a70,1,p\nr,64,4,1,8\n"
      "0,4,foo,6:1,49,216\n0,64,0x0,0,pow\n1,64,44.000000,1,36\nf,64,2.5,1,x\n");
  ASSERT_EQ(plain.size(), 2u);
  // CRLF line ends, blank and whitespace-only lines, whitespace around every
  // field and extra trailing fields all give the same buffer, ids included.
  for (const char* text : {
           "0,3,foo,6:1,27,215\r\n1,64,0x7ffcf3f25a70,1,p\r\nr,64,4,1,8\r\n"
           "0,4,foo,6:1,49,216\r\n0,64,0x0,0,pow\r\n1,64,44.000000,1,36\r\nf,64,2.5,1,x\r\n",
           "\n \n0,3,foo,6:1,27,215\n\n1,64,0x7ffcf3f25a70,1,p\n\t\r\nr,64,4,1,8\n\n"
           "0,4,foo,6:1,49,216\n0,64,0x0,0,pow\n \n1,64,44.000000,1,36\nf,64,2.5,1,x",
           " 0 ,\t3 , foo , 6:1 , 27 , 215 \n 1 , 64 , 0x7ffcf3f25a70 , 1 , p \n"
           "\tr\t,64\t,4,\t1\t, 8\t\n 0 , 4 , foo , 6:1 , 49 , 216\n 0 , 64 , 0x0 , 0 , pow \n"
           "1 ,64, 44.000000 ,1,36\nf , 64 , 2.5 , 1 , x\r\n",
           "0,3,foo,6:1,27,215,extra\n1,64,0x7ffcf3f25a70,1,p,extra,more\nr,64,4,1,8,\n"
           "0,4,foo,6:1,49,216,,\n0,64,0x0,0,pow\n1,64,44.000000,1,36,x\nf,64,2.5,1,x,\n",
           // '+' signs and leading zeros on every signed field, leading zeros
           // on dyn_id and in values.
           "0,+3,foo,6:1,+027,0215\n+1,+064,0x00007ffcf3f25a70,+1,p\nr,0064,+004,01,8\n"
           "0,004,foo,6:1,049,00216\n0,+64,0x0,-0,pow\n01,64,044.0000000,1,36\n"
           "f,64,+2.50,1,x\n",
       }) {
    SCOPED_TRACE(text);
    test::expect_same_buffer(read_trace_buffer(text), plain);
  }
  // A name keeps its inner blanks; a blank name is no name.
  const TraceBuffer names = read_trace_buffer("0,3, my func ,  ,27,215\n1,64,5,1, a b \n");
  EXPECT_EQ(names.view(0).func(), "my func");
  EXPECT_EQ(names.view(0).site().bb, SymbolPool::npos);
  EXPECT_EQ(names.view(0).name(names.view(0).operand(0)), "a b");
  // dyn_id takes digits only: a sign is an error, not a no-op.
  expect_rejected("0,3,foo,6:1,27,+215\n", "dyn_id");
  // Every float spelling strtod reads — infinities, NaNs, out-of-range
  // exponents, a signed hexadecimal float — parses to strtod's bits.
  std::string text = "0,3,foo,6:1,16,1\n";
  const std::vector<std::string> floats = {
      "inf",      "-inf",     "+inf",      "infinity", "nan",       "-nan",
      "+nan",     "1.0e400",  "-1.0e400",  "1.0e-400", "-1.0e-400", "-0x1.8p1",
      "+0x1.8p1", "-0X1.8P1", "-0x.8",     "4.9e-324", "1.5E+3",    ".5",
      "5.",       "-0.0",     "0.000000",  "nan()",    "-0x1.0p99999",
  };
  for (const std::string& f : floats) text += "1,64," + f + ",1,x\n";
  const TraceBuffer parsed = read_trace_buffer(text);
  ASSERT_EQ(parsed.values().size(), floats.size());
  for (std::size_t i = 0; i < floats.size(); ++i) {
    EXPECT_EQ(parsed.view(0).operand(i).vkind(), ValueKind::Float) << floats[i];
    EXPECT_EQ(parsed.values()[i], strtod_bits(floats[i])) << floats[i];
    EXPECT_EQ(raw_of(value_from_text(floats[i])), strtod_bits(floats[i]))
        << floats[i];
  }
  EXPECT_EQ(std::bit_cast<double>(parsed.values()[7]), INFINITY);
  EXPECT_EQ(std::bit_cast<double>(parsed.values()[11]), -3.0);
  // Spellings strtod does not read in full stay errors.
  for (const char* bad : {"1.5e", "1.5e+", "--1.5", "+-1.5", "-0x", "0x1.8p1", "1.5.", "inf x",
                          "1e5", "INF", "- 1.5"}) {
    expect_rejected(std::string("0,3,foo,6:1,16,1\n1,64,") + bad + ",1,x\n", "operand value");
  }
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

/// The text trace of the app named `name`, at its default knobs.
std::string app_trace_text(const std::string& name) {
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const ir::Module module = minic::compile(apps::find_app(name).source());
  vm::run_module(module, ropts);
  return test::trace_text(sink.buffer());
}

TEST_P(BufferRoundTrip, WriterFixpointAndGoldenCounts) {
  const apps::App& app = apps::find_app(GetParam());
  const std::string text = app_trace_text(app.name);

  const TraceBuffer serial = read_trace_buffer(text);
  EXPECT_EQ(test::trace_text(serial), text);
  EXPECT_EQ(strf("records=%zu operands=%zu symbols=%zu", serial.size(),
                 serial.values().size(), serial.pool().size()),
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

/// A serial parse sizes its one chunk's arrays from the text's length, and
/// they must hold the chunk without regrowing. HACC's 3.2 MB trace is one
/// chunk: 51,861 records and 119,377 operands, 61.8 and 26.9 text bytes each.
TEST(TraceBufferParse, FirstReserveHoldsHaccTrace) {
  const std::string text = app_trace_text("HACC");
  ASSERT_LT(text.size(), 8u << 20);
  const std::size_t records = text.size() / kTextBytesPerRecord + 1;
  const std::size_t operands = text.size() / kTextBytesPerOperand + 1;
  TraceBuffer probe;
  probe.reserve(records, operands);
  const std::size_t record_capacity = probe.records().capacity();
  const std::size_t operand_capacity = probe.values().capacity();
  probe = TraceBuffer();  // its mappings become the spares the parse's reserve takes

  const TraceBuffer parsed = read_trace_buffer(text, 1);
  EXPECT_LE(parsed.size(), records);
  EXPECT_LE(parsed.values().size(), operands);
  EXPECT_EQ(parsed.records().capacity(), record_capacity);
  EXPECT_EQ(parsed.values().capacity(), operand_capacity);
}

/// A name is every byte between its commas, an embedded NUL included, so the
/// writer must append it whole for the fixpoint to hold (a recode from MCTB
/// to text would otherwise drop bytes without a word).
TEST(WriterFixpoint, NamesWithEmbeddedNulBytes) {
  constexpr char kText[] = "0,1,m\0n,bb,27,0\n1,64,5,0,x\0y\n";
  const std::string text(kText, sizeof kText - 1);
  ASSERT_EQ(text.size(), 29u);
  const TraceBuffer buf = read_trace_buffer(text);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf.view(0).func(), std::string_view("m\0n", 3));
  EXPECT_EQ(buf.view(0).name(buf.view(0).operand(0)), std::string_view("x\0y", 3));
  EXPECT_EQ(test::trace_text(buf), text);
}

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
