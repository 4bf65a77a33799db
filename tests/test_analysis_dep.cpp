// Dependency analysis (paper §IV-B) output pinned per app: the event stream,
// the complete and contracted DDG bytes, and the replay counters must match
// tests/golden/dep_digests.txt in both the batch and the streaming replay.
#include <gtest/gtest.h>

#include <map>
#include <ostream>

#include "analysis/depanalysis.hpp"
#include "apps/app.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

struct DepDigest {
  std::uint64_t events = 0;
  std::uint32_t events_crc = 0;
  int nodes = 0;
  std::uint64_t edges = 0;
  std::uint32_t dot_crc = 0;
  std::uint32_t contracted_crc = 0;
  int iterations = 0;
  std::uint64_t stores = 0;
  std::uint64_t pointer_assignments = 0;

  std::string line(const std::string& app) const {
    return strf("%s events=%llu events_crc=%08x nodes=%d edges=%llu dot_crc=%08x "
                "contracted_crc=%08x iterations=%d stores=%llu pointer_assignments=%llu",
                app.c_str(), static_cast<unsigned long long>(events), events_crc, nodes,
                static_cast<unsigned long long>(edges), dot_crc, contracted_crc, iterations,
                static_cast<unsigned long long>(stores),
                static_cast<unsigned long long>(pointer_assignments));
  }
};

std::uint32_t crc_of(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// Every AccessEvent field in declaration order, little-endian fixed width.
std::string event_bytes(const AccessEvent& ev) {
  std::string out;
  const auto put = [&out](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  };
  put(static_cast<std::uint32_t>(ev.var), 4);
  put(static_cast<std::uint64_t>(ev.elem), 8);
  put(ev.t, 8);
  put(static_cast<std::uint32_t>(ev.line), 4);
  put(static_cast<std::uint32_t>(ev.iteration), 4);
  put(static_cast<std::uint8_t>(ev.part), 1);
  put(ev.is_write ? 1 : 0, 1);
  return out;
}

DepDigest digest(const DepResult& dep) {
  DepDigest d;
  d.events = dep.events.size();
  for (const AccessEvent& ev : dep.events) d.events_crc = crc_of(event_bytes(ev), d.events_crc);
  d.nodes = dep.complete.num_nodes();
  d.edges = dep.complete.num_edges();
  d.dot_crc = crc_of(dep.complete.to_dot());
  d.contracted_crc = crc_of(dep.complete.contract().to_dot());
  d.iterations = dep.iterations;
  d.stores = dep.stores_seen;
  d.pointer_assignments = dep.pointer_assignments;
  return d;
}

DepResult batch_dep(const trace::TraceBuffer& buf, const MclRegion& region) {
  PreprocessResult pre = preprocess(buf, region);
  return dep_analysis(buf, pre, region);
}

DepResult streaming_dep(const trace::TraceBuffer& buf, const MclRegion& region) {
  MliCollector collector(region);
  for (std::size_t i = 0; i < buf.size(); ++i) collector.add(buf.view(i));
  PreprocessResult pre = collector.finish();
  DepAnalyzer analyzer(pre, region);
  for (std::size_t i = 0; i < buf.size(); ++i) analyzer.add(buf.view(i));
  return analyzer.finish();
}

TEST(DepGolden, BatchAndStreamingMatchTheDigests) {
  const auto golden = test::load_golden("dep_digests.txt");
  std::string computed;  // the full file, printed on any mismatch
  for (const apps::App& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    trace::BufferSink sink;
    test::run_source(app.source(), &sink);
    const trace::TraceBuffer& buf = sink.buffer();
    const MclRegion region = app.mcl();

    const std::string want = digest(batch_dep(buf, region)).line(app.name);
    computed += want + "\n";
    const auto it = golden.find(app.name);
    EXPECT_TRUE(it != golden.end() && it->second == want) << want;
    EXPECT_EQ(digest(streaming_dep(buf, region)).line(app.name), want);
  }
  if (HasFailure()) std::printf("computed digests:\n%s", computed.c_str());
}

void expect_same_dep(const DepResult& a, const DepResult& b) {
  ASSERT_EQ(a.events.size(), b.events.size());
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(event_bytes(a.events[i]), event_bytes(b.events[i])) << "event " << i;
  }
  EXPECT_EQ(a.complete.to_dot(), b.complete.to_dot());
}

// ---------------------------------------------------------------------------
// Register provenance keeps every source, however many feed one register, or
// refuses the trace past a fixed bound; it never drops one.
// ---------------------------------------------------------------------------

/// `s = a0 + ... + a{n-1}; a{n-1} = 2.0 * s;` in the loop, every `ak` set
/// before it: the last term is read in iteration i+1 before it is
/// overwritten, so it is WAR.
std::string wide_sum_source(int n) {
  std::string src;
  for (int k = 0; k < n; ++k) src += strf("double a%d;\n", k);
  src += "double s;\nint main() {\n";
  for (int k = 0; k < n; ++k) src += strf("  a%d = %d.0;\n", k, k + 1);
  src += "  s = 0.0;\n  //@mcl-begin\n  for (int it = 0; it < 4; it = it + 1) {\n    s = a0";
  for (int k = 1; k < n; ++k) src += strf(" + a%d", k);
  src += strf(";\n    a%d = 2.0 * s;\n  }\n  //@mcl-end\n  print_float(s);\n  return 0;\n}\n", n - 1);
  return src;
}

TEST(DepProvenance, WideSumKeepsEveryTerm) {
  for (const int n : {60, 70}) {
    SCOPED_TRACE(n);
    const std::string src = wide_sum_source(n);
    const auto run = test::run_pipeline(src);
    const std::map<std::string, std::string> want = {
        {strf("a%d", n - 1), "WAR"}, {"s", "Outcome"}, {"it", "Index"}};
    EXPECT_EQ(test::critical_map(run.report), want);
    const Report streamed = test::stream_trace(run.trace, find_mcl_region(src));
    EXPECT_EQ(test::critical_map(streamed), want);
    expect_same_dep(streamed.dep, run.report.dep);
  }
}

/// A hand-built LLVM-Tracer text trace: a record header per rec(), one
/// operand row per op().
struct TextTrace {
  std::string text;
  std::uint64_t dyn = 0;

  void rec(int line, const std::string& func, trace::Opcode op) {
    text += strf("0,%d,%s,%d:0,%d,%llu\n", line, func.c_str(), line, static_cast<int>(op),
                 static_cast<unsigned long long>(dyn++));
  }
  void op(const std::string& row) { text += row + "\n"; }
  void alloca_global(const std::string& name, std::uint64_t addr, std::uint64_t bytes) {
    rec(1, "<global>", trace::Opcode::Alloca);
    op(strf("1,64,%llu,0, ", static_cast<unsigned long long>(bytes)));
    op(strf("r,64,0x%llx,1,%s", static_cast<unsigned long long>(addr), name.c_str()));
  }
  void load(int line, const std::string& func, const std::string& reg, const std::string& var,
            std::uint64_t addr) {
    rec(line, func, trace::Opcode::Load);
    op(strf("1,64,0x%llx,1,%s", static_cast<unsigned long long>(addr), var.c_str()));
    op(strf("r,64,0,1,%s", reg.c_str()));
  }
  void store_reg(int line, const std::string& func, const std::string& reg,
                 const std::string& var, std::uint64_t addr) {
    rec(line, func, trace::Opcode::Store);
    op(strf("1,64,0,1,%s", reg.c_str()));
    op(strf("2,64,0x%llx,1,%s", static_cast<unsigned long long>(addr), var.c_str()));
  }
  void store_imm(int line, const std::string& func, const std::string& var, std::uint64_t addr) {
    rec(line, func, trace::Opcode::Store);
    op("1,64,0,0, ");
    op(strf("2,64,0x%llx,1,%s", static_cast<unsigned long long>(addr), var.c_str()));
  }
};

/// Where the hand-built traces place their first global.
constexpr std::uint64_t kGlobalBase = 0x100000;

TEST(DepProvenance, SourcesBeyondTheBoundThrow) {
  // One register accumulates a distinct element per FAdd; past the bound the
  // replay must refuse the trace rather than drop a source.
  constexpr int kElems = 5000;
  TextTrace t;
  t.alloca_global("a", kGlobalBase, 8 * kElems);
  t.store_imm(2, "main", "a", kGlobalBase);
  for (int k = 0; k < kElems; ++k) {
    t.load(3, "main", "1", "a", kGlobalBase + 8 * k);
    t.rec(3, "main", trace::Opcode::FAdd);
    t.op("1,64,0,1,2");
    t.op("2,64,0,1,1");
    t.op("r,64,0,1,2");
  }
  t.store_reg(3, "main", "2", "a", kGlobalBase);
  const trace::TraceBuffer buf = trace::read_trace_buffer(t.text);
  const MclRegion region{"main", 3, 3};
  EXPECT_THROW(batch_dep(buf, region), AnalysisError);
  EXPECT_THROW(streaming_dep(buf, region), AnalysisError);
}

// ---------------------------------------------------------------------------
// Register scoping across calls: a callee's registers never leak into its
// caller's, however deep the recursion.
// ---------------------------------------------------------------------------

TEST(DepScoping, RecursionKeepsCallerRegisters) {
  const std::string src = R"(
double g;
double s;
double down(int n) { if (n == 0) { return g; } double t = down(n - 1); return t + 1.0; }
int main() {
  g = 1.0;
  s = 0.0;
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    s = s + down(40);
    g = g + 1.0;
  }
  //@mcl-end
  print_float(s);
  return 0;
}
)";
  const auto run = test::run_pipeline(src);
  const std::map<std::string, std::string> want = {{"g", "WAR"}, {"s", "WAR"}, {"it", "Index"}};
  EXPECT_EQ(test::critical_map(run.report), want);
  const Report streamed = test::stream_trace(run.trace, find_mcl_region(src));
  EXPECT_EQ(test::critical_map(streamed), want);
  expect_same_dep(streamed.dep, run.report.dep);
}

/// Canonical id of the variable named `name`, or -1.
int var_named(const PreprocessResult& pre, const std::string& name) {
  for (int id = 0; id < static_cast<int>(pre.vars.size()); ++id) {
    if (pre.vars.def(id).name == name) return id;
  }
  return -1;
}

struct LoopEvent {
  int var;
  std::int64_t elem;
  bool is_write;

  bool operator==(const LoopEvent&) const = default;
};

std::ostream& operator<<(std::ostream& os, const LoopEvent& e) {
  return os << (e.is_write ? "write " : "read ") << e.var << "[" << e.elem << "]";
}

std::vector<LoopEvent> loop_events(const DepResult& dep) {
  std::vector<LoopEvent> out;
  for (const AccessEvent& ev : dep.events) {
    if (ev.part == Part::B) out.push_back(LoopEvent{ev.var, ev.elem, ev.is_write});
  }
  return out;
}

TEST(DepScoping, CalleeStartsWithNoRegisters) {
  // main loads g[0] into "5" and calls f. f stores "5" without writing it
  // first, so that store reads nothing; back in main, "5" still holds g[0].
  const std::uint64_t base_h = kGlobalBase + 8;
  TextTrace t;
  t.alloca_global("g", kGlobalBase, 8);
  t.alloca_global("h", base_h, 16);
  t.store_imm(2, "main", "g", kGlobalBase);
  t.store_imm(2, "main", "h", base_h);
  t.load(4, "main", "5", "g", kGlobalBase);
  t.rec(4, "main", trace::Opcode::Call);
  t.op("0,64,0x0,0,f");
  t.store_reg(10, "f", "5", "h", base_h);
  t.rec(10, "f", trace::Opcode::Ret);
  t.store_reg(4, "main", "5", "h", base_h + 8);
  t.rec(5, "main", trace::Opcode::Br);
  const trace::TraceBuffer buf = trace::read_trace_buffer(t.text);
  const MclRegion region{"main", 3, 5};

  PreprocessResult pre = preprocess(buf, region);
  const DepResult batch = dep_analysis(buf, pre, region);
  const int g = var_named(pre, "g");
  const int h = var_named(pre, "h");
  const std::vector<LoopEvent> want = {{h, 0, true}, {g, 0, false}, {h, 1, true}};
  EXPECT_EQ(loop_events(batch), want);
  expect_same_dep(streaming_dep(buf, region), batch);
}

TEST(DepScoping, DeepNestingRestoresEachFrame) {
  // 2,000 nested form-2 calls of f, past the VM's frame cap. Every frame
  // loads g[k] into register "5", calls deeper, and after the callee returns
  // stores "5" to h[k]: that store must read g[k], not a callee's load.
  constexpr int kDepth = 2000;
  const std::uint64_t base_h = kGlobalBase + 8 * kDepth;
  TextTrace t;
  t.alloca_global("g", kGlobalBase, 8 * kDepth);
  t.alloca_global("h", base_h, 8 * kDepth);
  t.store_imm(2, "main", "g", kGlobalBase);
  t.store_imm(2, "main", "h", base_h);
  for (int k = 0; k < kDepth; ++k) {
    const std::string func = k == 0 ? "main" : "f";
    const int line = k == 0 ? 4 : 10;
    t.load(line, func, "5", "g", kGlobalBase + 8 * k);
    if (k + 1 < kDepth) {
      t.rec(line, func, trace::Opcode::Call);
      t.op("0,64,0x0,0,f");
    }
  }
  for (int k = kDepth - 1; k >= 0; --k) {
    const std::string func = k == 0 ? "main" : "f";
    const int line = k == 0 ? 4 : 10;
    t.store_reg(line, func, "5", "h", base_h + 8 * k);
    if (k > 0) t.rec(line, func, trace::Opcode::Ret);
  }
  t.rec(5, "main", trace::Opcode::Br);
  const trace::TraceBuffer buf = trace::read_trace_buffer(t.text);
  const MclRegion region{"main", 3, 5};

  PreprocessResult pre = preprocess(buf, region);
  const DepResult batch = dep_analysis(buf, pre, region);
  const int g = var_named(pre, "g");
  const int h = var_named(pre, "h");
  std::vector<LoopEvent> want;
  for (int k = kDepth - 1; k >= 0; --k) {  // the deepest frame stores first
    want.push_back({g, k, false});
    want.push_back({h, k, true});
  }
  const std::vector<LoopEvent> got = loop_events(batch);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) ASSERT_EQ(got[i], want[i]) << "event " << i;
  expect_same_dep(streaming_dep(buf, region), batch);
}

}  // namespace
}  // namespace ac::analysis
