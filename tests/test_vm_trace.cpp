// The VM's emitted trace must follow the LLVM-Tracer block conventions the
// paper's figures document: -O0 Load/Store shapes, Alloca records with the
// variable name on the result row, both Call forms of Fig. 6, and
// argument-binding stores inside callees. Every sink must reproduce the
// golden per-app digests, and untraced runs must execute like traced ones.
#include <gtest/gtest.h>

#include <map>

#include "apps/app.hpp"
#include "support/crc32.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/strings.hpp"
#include "trace/mctb.hpp"
#include "trace/reader.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::vm {
namespace {

using trace::Opcode;
using trace::OperandSlot;
using trace::RecordView;
using trace::TraceBuffer;

TraceBuffer trace_of(const std::string& src) {
  trace::BufferSink sink;
  test::run_source(src, &sink);
  return sink.take();
}

std::vector<RecordView> by_opcode(const TraceBuffer& recs, Opcode op) {
  std::vector<RecordView> out;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs.view(i).opcode() == op) out.push_back(recs.view(i));
  }
  return out;
}

/// The Call record's callee name.
std::string_view callee_of(const RecordView& call) {
  return call.name(*call.find(OperandSlot::Callee));
}

TEST(VmTrace, DynIdsAreSequential) {
  const TraceBuffer recs = trace_of("int main() { int x = 1; print_int(x); return 0; }");
  for (std::size_t i = 0; i < recs.size(); ++i) EXPECT_EQ(recs.view(i).dyn_id(), i);
}

TEST(VmTrace, GlobalAllocasComeFirst) {
  const TraceBuffer recs = trace_of("int g1; double g2[4]; int main() { return 0; }");
  ASSERT_GE(recs.size(), 2u);
  const RecordView g1 = recs.view(0);
  const RecordView g2 = recs.view(1);
  EXPECT_EQ(g1.opcode(), Opcode::Alloca);
  EXPECT_EQ(g1.func(), "<global>");
  EXPECT_EQ(g1.name(*g1.find(OperandSlot::Result)), "g1");
  EXPECT_EQ(g2.name(*g2.find(OperandSlot::Result)), "g2");
  // Size operand carries the byte footprint (4 * 8 for g2).
  EXPECT_EQ(g2.input(1)->as_i64(), 32);
}

TEST(VmTrace, AllocaCarriesNameAndAddress) {
  const TraceBuffer recs = trace_of("int main() { int sum = 0; print_int(sum); return 0; }");
  const auto allocas = by_opcode(recs, Opcode::Alloca);
  ASSERT_EQ(allocas.size(), 1u);
  const trace::OperandRef result = allocas[0].find(OperandSlot::Result);
  ASSERT_TRUE(result);
  EXPECT_EQ(allocas[0].name(*result), "sum");
  EXPECT_TRUE(result->is_addr());
}

TEST(VmTrace, LoadStoreShape) {
  const TraceBuffer recs =
      trace_of("int main() { int x = 5; int y = x; print_int(y); return 0; }");
  const auto loads = by_opcode(recs, Opcode::Load);
  ASSERT_GE(loads.size(), 1u);
  // Load: pointer operand named after the variable, result row is a register.
  EXPECT_EQ(loads[0].name(*loads[0].input(1)), "x");
  EXPECT_TRUE(loads[0].input(1)->is_addr());
  EXPECT_EQ(loads[0].find(OperandSlot::Result)->as_i64(), 5);

  const auto stores = by_opcode(recs, Opcode::Store);
  ASSERT_GE(stores.size(), 2u);
  // First store: immediate 5 into x.
  EXPECT_EQ(stores[0].input(1)->as_i64(), 5);
  EXPECT_FALSE(stores[0].input(1)->is_reg());
  EXPECT_EQ(stores[0].name(*stores[0].input(2)), "x");
}

TEST(VmTrace, ArrayAccessGoesThroughGep) {
  const TraceBuffer recs =
      trace_of("int main() { int a[8]; a[3] = 9; print_int(a[3]); return 0; }");
  const auto geps = by_opcode(recs, Opcode::GetElementPtr);
  ASSERT_EQ(geps.size(), 2u);  // one for the store, one for the load
  EXPECT_EQ(geps[0].name(*geps[0].input(1)), "a");
  EXPECT_EQ(geps[0].input(2)->as_i64(), 3);
  // The GEP result address is base + 3*8.
  EXPECT_EQ(geps[0].find(OperandSlot::Result)->addr(), geps[0].input(1)->addr() + 24);
}

TEST(VmTrace, BuiltinCallIsFormOne) {
  const TraceBuffer recs =
      trace_of("int main() { double r = pow(2.0, 3.0); print_float(r); return 0; }");
  const auto calls = by_opcode(recs, Opcode::Call);
  const RecordView* pow_call = nullptr;
  for (const RecordView& c : calls) {
    if (callee_of(c) == "pow") pow_call = &c;
  }
  ASSERT_NE(pow_call, nullptr);
  // Form 1: no parameter-indicator rows, no traced body.
  EXPECT_EQ(pow_call->find(OperandSlot::Param), nullptr);
  EXPECT_DOUBLE_EQ(pow_call->input(1)->value().f, 2.0);
  EXPECT_DOUBLE_EQ(pow_call->input(2)->value().f, 3.0);
  EXPECT_DOUBLE_EQ(pow_call->find(OperandSlot::Result)->value().f, 8.0);
}

TEST(VmTrace, UserCallIsFormTwoWithParamRows) {
  const std::string src = R"(
void foo(int p[], int q[]) {
  q[0] = p[0];
}
int main() {
  int a[2];
  int b[2];
  a[0] = 7;
  foo(a, b);
  print_int(b[0]);
  return 0;
}
)";
  const TraceBuffer recs = trace_of(src);
  std::size_t foo_index = recs.size();
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (recs.view(i).opcode() == Opcode::Call && callee_of(recs.view(i)) == "foo") foo_index = i;
  }
  ASSERT_LT(foo_index, recs.size());
  const RecordView foo_call = recs.view(foo_index);

  // Fig. 6(b): argument rows carry the addresses; the parameter-indicator
  // rows that follow them bind the same addresses to parameter names p and q.
  ASSERT_EQ(foo_call.operand_count(), 5u);
  EXPECT_EQ(foo_call.operand(3).slot(), OperandSlot::Param);
  EXPECT_EQ(&foo_call.find(OperandSlot::Param).tmpl(), &foo_call.operand(3).tmpl());
  EXPECT_EQ(foo_call.operand(4).slot(), OperandSlot::Param);
  EXPECT_EQ(foo_call.name(foo_call.operand(3)), "p");
  EXPECT_EQ(foo_call.name(foo_call.operand(4)), "q");
  EXPECT_EQ(foo_call.operand(3).addr(), foo_call.input(1)->addr());

  // The record after the Call executes inside foo (its body follows).
  ASSERT_LT(foo_index + 1, recs.size());
  EXPECT_EQ(recs.view(foo_index + 1).func(), "foo");

  // Inside foo, the parameter-binding stores use register names arg1/arg2.
  bool saw_arg_binding = false;
  for (std::size_t i = foo_index + 1; i < recs.size(); ++i) {
    const RecordView r = recs.view(i);
    if (r.opcode() == Opcode::Store && r.func() == "foo" && r.name(*r.input(1)) == "arg1") {
      EXPECT_EQ(r.name(*r.input(2)), "p");
      saw_arg_binding = true;
      break;
    }
  }
  EXPECT_TRUE(saw_arg_binding);
}

TEST(VmTrace, RetRecordsCarryValue) {
  const TraceBuffer recs =
      trace_of("int f() { return 5; } int main() { print_int(f()); return 0; }");
  const auto rets = by_opcode(recs, Opcode::Ret);
  ASSERT_EQ(rets.size(), 2u);  // f's and main's
  EXPECT_EQ(rets[0].func(), "f");
  EXPECT_EQ(rets[0].input(1)->as_i64(), 5);
}

TEST(VmTrace, ConditionalBranchHasCondOperand) {
  const TraceBuffer recs = trace_of("int main() { int s = 0; for (int i = 0; i < 2; i = i + 1) { s = s + 1; } print_int(s); return 0; }");
  int cond_br = 0, plain_br = 0;
  for (const RecordView& r : by_opcode(recs, Opcode::Br)) {
    if (r.input(1)) ++cond_br; else ++plain_br;
  }
  EXPECT_EQ(cond_br, 3);  // i=0,1 enter; i=2 exits
  EXPECT_GE(plain_br, 2);  // back edges
}

TEST(VmTrace, TraceTextRoundTripsThroughParser) {
  const std::string src = R"(
double g[4];
double avg(double v[], int n) {
  double s = 0.0;
  for (int i = 0; i < n; i = i + 1) { s = s + v[i]; }
  return s / n;
}
int main() {
  for (int i = 0; i < 4; i = i + 1) { g[i] = i * 1.5; }
  print_float(avg(g, 4));
  return 0;
}
)";
  const TraceBuffer recs = trace_of(src);
  const TraceBuffer parsed = trace::read_trace_buffer(test::trace_text(recs));
  ASSERT_EQ(parsed.size(), recs.size());
  for (std::size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(parsed.view(i).opcode(), recs.view(i).opcode());
    EXPECT_EQ(parsed.view(i).func(), recs.view(i).func());
    EXPECT_EQ(parsed.view(i).line(), recs.view(i).line());
    EXPECT_EQ(parsed.view(i).operand_count(), recs.view(i).operand_count());
  }
}

// ---------------------------------------------------------------------------
// Golden digests: every sink must reproduce the same trace bytes and the same
// symbol-pool order for all 14 apps, pinned by tests/golden/vm_trace_digests.txt.
// ---------------------------------------------------------------------------

struct TraceDigest {
  std::uint64_t records = 0;
  std::uint64_t operands = 0;
  std::uint64_t symbols = 0;
  std::uint32_t text_crc = 0;
  std::uint32_t pool_crc = 0;
  std::uint64_t steps = 0;
  std::uint32_t output_crc = 0;

  std::string line(const std::string& app) const {
    return strf("%s records=%llu operands=%llu symbols=%llu text_crc=%08x pool_crc=%08x "
                "steps=%llu output_crc=%08x",
                app.c_str(), static_cast<unsigned long long>(records),
                static_cast<unsigned long long>(operands),
                static_cast<unsigned long long>(symbols), text_crc, pool_crc,
                static_cast<unsigned long long>(steps), output_crc);
  }
};

std::uint32_t crc_of(std::string_view s, std::uint32_t seed = 0) {
  return crc32(s.data(), s.size(), seed);
}

/// Records, operands, text and pool digests of an interned buffer.
TraceDigest digest_buffer(const trace::TraceBuffer& buf) {
  TraceDigest d;
  d.records = buf.size();
  d.operands = buf.values().size();
  d.symbols = buf.pool().size();
  for (std::size_t i = 0; i < buf.size(); ++i) d.text_crc = crc_of(buf.view(i).to_text(), d.text_crc);
  for (std::uint32_t id = 0; id < buf.pool().size(); ++id) {
    d.pool_crc = crc_of(buf.pool().view(id), d.pool_crc);
    d.pool_crc = crc_of(std::string_view("\0", 1), d.pool_crc);
  }
  return d;
}

void set_run(TraceDigest& d, const RunResult& run) {
  d.steps = run.steps;
  d.output_crc = crc_of(run.output);
}

RunResult run_app(const ir::Module& module, trace::TraceSink* sink) {
  RunOptions opts;
  opts.sink = sink;
  return run_module(module, opts);
}

TEST(VmTraceGolden, EverySinkMatchesTheDigests) {
  const auto golden = test::load_golden("vm_trace_digests.txt");
  std::string computed;  // the full file, printed on any mismatch
  std::size_t trace_bytes = 0;
  for (const apps::App& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    const ir::Module module = minic::compile(app.source());

    trace::BufferSink buffer_sink;
    const RunResult buffered_run = run_app(module, &buffer_sink);
    const TraceBuffer& buf = buffer_sink.buffer();
    // The VM's dyn_ids rise by 1 from 0, so none is stored, and the trace
    // holds 8 bytes a record and a value beside its site table and pool.
    EXPECT_TRUE(buf.dyn_breaks().empty());
    EXPECT_EQ(buf.byte_size(), 8 * buf.size() + 8 * buf.values().size() +
                                   sizeof(trace::Site) * buf.sites().size() +
                                   sizeof(trace::OperandTemplate) * buf.templates().size() +
                                   buf.pool().byte_size());
    trace_bytes += buf.byte_size();
    TraceDigest buffered = digest_buffer(buffer_sink.buffer());
    set_run(buffered, buffered_run);
    const std::string want = buffered.line(app.name);
    computed += want + "\n";
    const auto it = golden.find(app.name);
    EXPECT_TRUE(it != golden.end() && it->second == want) << want;

    // Text file: the same bytes the buffer renders.
    const std::string text_path = testing::TempDir() + "/ac_golden_" + app.name + ".trace";
    {
      trace::FileSink file_sink(text_path);
      run_app(module, &file_sink);
      file_sink.close();
      EXPECT_EQ(file_sink.count(), buffered.records);
    }
    EXPECT_EQ(crc_of(read_file_bytes(text_path)), buffered.text_crc);
    std::remove(text_path.c_str());

    // MCTB container, read back.
    const std::string mctb_path = testing::TempDir() + "/ac_golden_" + app.name + ".mctb";
    RunResult mctb_run;
    {
      trace::BufferSink mctb_sink;
      mctb_run = run_app(module, &mctb_sink);
      trace::write_mctb_file(mctb_sink.buffer(), mctb_path);
    }
    TraceDigest mctb = digest_buffer(trace::read_mctb(read_file_bytes(mctb_path)));
    set_run(mctb, mctb_run);
    EXPECT_EQ(mctb.line(app.name), want);
    std::remove(mctb_path.c_str());

    // Owning records: every record materialized and packed again.
    trace::TraceBuffer repacked;
    for (std::size_t i = 0; i < buffer_sink.buffer().size(); ++i) {
      repacked.append(buffer_sink.buffer().materialize(i));
    }
    TraceDigest owning = digest_buffer(repacked);
    set_run(owning, buffered_run);
    EXPECT_EQ(owning.line(app.name), want);
  }
  // 133.3 MB as 32-byte records and 24-byte operands; 40.4 MB site-indexed.
  EXPECT_LE(trace_bytes, 42'000'000u);
  if (HasFailure()) std::printf("computed digests:\n%s", computed.c_str());
}

// ---------------------------------------------------------------------------
// Two routes out of the VM: a BufferSink is the VM's target, so the VM writes
// each record into its buffer; any other sink gets each record as a view over
// the VM's staging buffer. Both must give the same trace, whole or stopped.
// ---------------------------------------------------------------------------

/// A sink that is not a target: it appends each view to a buffer of its own.
class ViewSink final : public trace::TraceSink {
 public:
  void append(const RecordView& rec) override { buffer_.append(rec); }
  std::uint64_t count() const override { return buffer_.size(); }
  const TraceBuffer& buffer() const { return buffer_; }

 private:
  TraceBuffer buffer_;
};

/// The last record ends where the values end: a stopped run left no values
/// of an unfinished record behind.
void expect_whole_records(const TraceBuffer& buf) {
  ASSERT_FALSE(buf.empty());
  const RecordView last = buf.view(buf.size() - 1);
  EXPECT_EQ(buf.records()[last.index()].value_offset + last.operand_count(), buf.values().size());
}

/// Run `opts` into a BufferSink and into a ViewSink; both must hold the same
/// buffer. Returns the BufferSink's run.
RunResult expect_same_routes(const ir::Module& module, RunOptions opts) {
  trace::BufferSink target;
  opts.sink = &target;
  const RunResult run = run_module(module, opts);
  ViewSink viewed;
  opts.sink = &viewed;
  run_module(module, opts);
  test::expect_same_buffer(target.buffer(), viewed.buffer());
  expect_whole_records(target.buffer());
  return run;
}

TEST(VmTraceRoutes, ViewSinkMatchesTargetOnAllApps) {
  for (const apps::App& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    const ir::Module module = minic::compile(app.source());
    RunOptions opts;
    opts.mcl = app.mcl();
    EXPECT_FALSE(expect_same_routes(module, opts).failed);
    // Stopped by an injected fail-stop as iteration 2 is about to start.
    opts.fail_at_iteration = 2;
    EXPECT_TRUE(expect_same_routes(module, opts).failed);
  }
}

// Untraced runs build no records, but must execute exactly the same program.
TEST(VmTraceUntraced, MatchesTracedRunOnAllApps) {
  for (const apps::App& app : apps::registry()) {
    SCOPED_TRACE(app.name);
    const ir::Module module = minic::compile(app.source());
    RunOptions opts;
    opts.mcl = app.mcl();

    const RunResult untraced = run_module(module, opts);
    trace::BufferSink sink;
    opts.sink = &sink;
    const RunResult traced = run_module(module, opts);
    EXPECT_EQ(untraced.steps, traced.steps);
    EXPECT_EQ(untraced.output, traced.output);
    EXPECT_EQ(untraced.exit_code, traced.exit_code);
    EXPECT_EQ(untraced.iterations_started, traced.iterations_started);
    EXPECT_GT(untraced.iterations_started, 1);
    EXPECT_EQ(untraced.peak_memory, traced.peak_memory);
    EXPECT_EQ(sink.count(), traced.steps);

    // The step limit fires at the same instruction in both modes; the
    // record that crossed it is never emitted, into the target or through a
    // view.
    opts.max_steps = traced.steps / 2;
    opts.sink = nullptr;
    EXPECT_THROW(run_module(module, opts), VmError);
    trace::BufferSink limited;
    opts.sink = &limited;
    EXPECT_THROW(run_module(module, opts), VmError);
    EXPECT_EQ(limited.count(), opts.max_steps);
    expect_whole_records(limited.buffer());
    ViewSink viewed;
    opts.sink = &viewed;
    EXPECT_THROW(run_module(module, opts), VmError);
    test::expect_same_buffer(limited.buffer(), viewed.buffer());
  }
}

}  // namespace
}  // namespace ac::vm
