// VM execution semantics: arithmetic, control flow, arrays, calls, globals,
// builtins, traps, and the MCL instrumentation (engine checkpoints, fail-stop).
#include <gtest/gtest.h>

#include "apps/harness.hpp"
#include "support/error.hpp"
#include "vm/interp.hpp"

#include "helpers.hpp"

namespace ac::vm {
namespace {

using test::run_source;

TEST(VmExec, IntArithmetic) {
  auto r = run_source(R"(
int main() {
  print_int(7 + 3 * 2);
  print_int(7 / 2);
  print_int(-7 % 3);
  print_int(10 - 15);
  return 0;
}
)");
  EXPECT_EQ(r.output, "13\n3\n-1\n-5\n");
}

TEST(VmExec, FloatArithmeticAndPromotion) {
  auto r = run_source(R"(
int main() {
  double d = 1 / 2.0;
  print_float(d);
  int truncated = 2.9;
  print_int(truncated);
  print_float(1 + 0.5);
  return 0;
}
)");
  EXPECT_EQ(r.output, "0.500000\n2\n1.500000\n");
}

TEST(VmExec, ComparisonsAndLogical) {
  auto r = run_source(R"(
int main() {
  print_int(3 < 4);
  print_int(3 >= 4);
  print_int(1 && 0);
  print_int(1 || 0);
  print_int(!5);
  print_int(!0);
  print_int(2.5 == 2.5);
  return 0;
}
)");
  EXPECT_EQ(r.output, "1\n0\n0\n1\n0\n1\n1\n");
}

TEST(VmExec, ControlFlow) {
  auto r = run_source(R"(
int main() {
  int total = 0;
  for (int i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { continue; }
    if (i == 9) { break; }
    total = total + i;
  }
  int w = 0;
  while (w < 5) { w = w + 1; }
  print_int(total);
  print_int(w);
  return 0;
}
)");
  EXPECT_EQ(r.output, "16\n5\n");  // 1+3+5+7
}

TEST(VmExec, MultiDimArrays) {
  auto r = run_source(R"(
double m[3][4][2];
int main() {
  for (int i = 0; i < 3; i = i + 1) {
    for (int j = 0; j < 4; j = j + 1) {
      for (int k = 0; k < 2; k = k + 1) {
        m[i][j][k] = i * 100 + j * 10 + k;
      }
    }
  }
  print_float(m[2][3][1]);
  print_float(m[0][0][0]);
  print_float(m[1][2][0]);
  return 0;
}
)");
  EXPECT_EQ(r.output, "231.000000\n0.000000\n120.000000\n");
}

TEST(VmExec, GlobalsZeroInitialized) {
  auto r = run_source("int g; double h[3]; int main() { print_int(g); print_float(h[2]); return 0; }");
  EXPECT_EQ(r.output, "0\n0.000000\n");
}

TEST(VmExec, FunctionCallsScalarAndArray) {
  auto r = run_source(R"(
int scale(int v) { return v * 3; }
void fill(int dst[], int n, int base) {
  for (int i = 0; i < n; i = i + 1) { dst[i] = base + i; }
}
int sum(int src[], int n) {
  int s = 0;
  for (int i = 0; i < n; i = i + 1) { s = s + src[i]; }
  return s;
}
int main() {
  int a[5];
  fill(a, 5, 10);
  print_int(sum(a, 5));
  print_int(scale(7));
  return 0;
}
)");
  EXPECT_EQ(r.output, "60\n21\n");
}

TEST(VmExec, PointerParamPassThrough) {
  // An array flows through two levels of pointer parameters.
  auto r = run_source(R"(
int inner(int v[]) { return v[1]; }
int outer(int w[]) { return inner(w); }
int main() {
  int a[3];
  a[1] = 42;
  print_int(outer(a));
  return 0;
}
)");
  EXPECT_EQ(r.output, "42\n");
}

TEST(VmExec, Recursion) {
  auto r = run_source(R"(
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
int main() { print_int(fib(12)); return 0; }
)");
  EXPECT_EQ(r.output, "144\n");
}

TEST(VmExec, LocalsReinitializedPerCall) {
  // Stack addresses are reused across calls; locals must start zeroed.
  auto r = run_source(R"(
int bump() {
  int local;
  local = local + 1;
  return local;
}
int main() {
  print_int(bump());
  print_int(bump());
  return 0;
}
)");
  EXPECT_EQ(r.output, "1\n1\n");
}

TEST(VmExec, MathBuiltins) {
  auto r = run_source(R"(
int main() {
  print_float(sqrt(16.0));
  print_float(fabs(0.0 - 2.5));
  print_float(pow(2.0, 10.0));
  print_float(floor(3.7));
  return 0;
}
)");
  EXPECT_EQ(r.output, "4.000000\n2.500000\n1024.000000\n3.000000\n");
}

TEST(VmExec, UnknownBuiltinIsATypedError) {
  ir::Module module = minic::compile("int main() { print_int(1); return 0; }");
  ir::Instr* call = nullptr;
  for (auto& in : module.functions[0].instrs) {
    if (in.kind == ir::IKind::Call) call = &in;
  }
  ASSERT_NE(call, nullptr);
  ASSERT_TRUE(call->is_builtin);
  EXPECT_EQ(call->builtin, ir::Builtin::PrintInt);
  call->builtin = static_cast<ir::Builtin>(ir::kNumBuiltins);  // no such builtin
  EXPECT_THROW(ir::verify_module(module), Error);
  const auto expect_vm_error = [&](trace::TraceSink* sink) {
    RunOptions opts;
    opts.sink = sink;
    try {
      run_module(module, opts);
      ADD_FAILURE() << "unknown builtin executed";
    } catch (const VmError& e) {
      EXPECT_STREQ(e.what(), "vm: unknown builtin: print_int");
    }
  };
  expect_vm_error(nullptr);
  trace::BufferSink traced;
  expect_vm_error(&traced);
}

TEST(VmExec, BuiltinListNamesEveryBuiltin) {
  for (std::size_t i = 0; i < ir::kNumBuiltins; ++i) {
    const auto b = static_cast<ir::Builtin>(i);
    ASSERT_FALSE(ir::builtin_name(b).empty());
    EXPECT_EQ(ir::find_builtin(ir::builtin_name(b)), b);
  }
  EXPECT_EQ(ir::find_builtin("printf"), std::nullopt);
  EXPECT_THROW(minic::compile("int main() { printf(1); return 0; }"), CompileError);
}

TEST(VmExec, DeterministicTimer) {
  auto a = run_source("int main() { print_float(timer()); print_float(timer()); return 0; }");
  auto b = run_source("int main() { print_float(timer()); print_float(timer()); return 0; }");
  EXPECT_EQ(a.output, b.output);
  EXPECT_EQ(a.output, "0.001000\n0.002000\n");
}

TEST(VmExec, ExitCode) {
  auto r = run_source("int main() { return 42; }");
  EXPECT_EQ(r.exit_code, 42);
}

TEST(VmExec, DivisionByZeroTraps) {
  EXPECT_THROW(run_source("int main() { int z = 0; return 1 / z; }"), VmError);
  EXPECT_THROW(run_source("int main() { int z = 0; return 1 % z; }"), VmError);
  EXPECT_THROW(run_source("int main() { double z = 0.0; print_float(1.0 / z); return 0; }"),
               VmError);
}

TEST(VmExec, OutOfBoundsTraps) {
  EXPECT_THROW(run_source("int main() { int a[4]; return a[100000]; }"), VmError);
}

TEST(VmExec, StepLimitGuardsRunaways) {
  const ir::Module module = minic::compile("int main() { while (1) { } return 0; }");
  RunOptions opts;
  opts.max_steps = 10000;
  EXPECT_THROW(run_module(module, opts), VmError);
}

TEST(VmExec, IterationTrackingAndFailureInjection) {
  const std::string src = R"(
int main() {
  int s = 0;
  //@mcl-begin
  for (int i = 0; i < 8; i = i + 1) {
    s = s + i;
  }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  const ir::Module module = minic::compile(src);
  const auto mcl = analysis::find_mcl_region(src);

  RunOptions opts;
  opts.mcl = mcl;
  auto full = run_module(module, opts);
  EXPECT_FALSE(full.failed);
  EXPECT_EQ(full.iterations_started, 8);
  EXPECT_EQ(full.output, "28\n");

  opts.fail_at_iteration = 4;
  auto failed = run_module(module, opts);
  EXPECT_TRUE(failed.failed);
  EXPECT_EQ(failed.iterations_started, 3);
  EXPECT_EQ(failed.output, "");  // never reached the print
}

TEST(VmExec, EngineCheckpointsProtectedVars) {
  const std::string src = R"(
int g;
int main() {
  g = 0;
  int s = 100;
  //@mcl-begin
  for (int i = 0; i < 5; i = i + 1) {
    g = g + 1;
    s = s + 10;
  }
  //@mcl-end
  print_int(g + s);
  return 0;
}
)";
  const ir::Module module = minic::compile(src);
  const auto mcl = analysis::find_mcl_region(src);

  const ckpt::EngineConfig cfg = apps::validation_config(testing::TempDir(), "vm_exec_protect");
  // fail_at -1: a whole run; 3: killed as iteration 3 starts, so the
  // iteration-2 image is the last one committed.
  for (const int fail_at : {-1, 3}) {
    ckpt::CheckpointEngine engine(cfg);
    engine.reset();
    for (const char* name : {"g", "s", "i"}) engine.protect(name);
    RunOptions opts;
    opts.mcl = mcl;
    opts.engine = &engine;
    opts.fail_at_iteration = fail_at;
    const RunResult r = run_module(module, opts);
    EXPECT_EQ(r.failed, fail_at > 0);
    // 5 completed iterations, the last closed by the final (exit) header
    // evaluation boundary.
    if (fail_at < 0) EXPECT_EQ(engine.stats().checkpoints, 5);
  }

  const ckpt::CheckpointImage img = ckpt::CheckpointEngine(cfg).recover();
  EXPECT_EQ(img.iteration(), 2);
  const auto* g2 = img.find("g");
  ASSERT_NE(g2, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(g2->cells[0].payload), 2);
  const auto* s2 = img.find("s");
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(static_cast<std::int64_t>(s2->cells[0].payload), 120);
}

TEST(VmExec, UnknownProtectedVariableThrows) {
  const std::string src = R"(
int main() {
  int s = 0;
  //@mcl-begin
  for (int i = 0; i < 3; i = i + 1) { s = s + 1; }
  //@mcl-end
  print_int(s);
  return 0;
}
)";
  const ir::Module module = minic::compile(src);
  const auto mcl = analysis::find_mcl_region(src);
  ckpt::CheckpointEngine engine(apps::validation_config(testing::TempDir(), "vm_exec_unknown"));
  engine.protect("nope");
  RunOptions opts;
  opts.mcl = mcl;
  opts.engine = &engine;
  EXPECT_THROW(run_module(module, opts), CheckpointError);
}

}  // namespace
}  // namespace ac::vm
