// Quickstart: the complete AutoCheck workflow on a small program.
//
//   1. Compile a MiniC program (the paper's Fig. 4 example).
//   2. Execute it under the tracing VM -> dynamic instruction trace.
//   3. Run an analysis::Session with the main loop's source-line range.
//   4. Read off the variables to checkpoint.
//
// Build & run:  ./examples/quickstart
#include <cstdio>

#include "analysis/session.hpp"
#include "minic/compiler.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

int main() {
  // A program with an initialization phase, a main computation loop (marked
  // with //@mcl-begin / //@mcl-end), and a verification phase.
  const std::string source = R"(
void foo(int p[], int q[]) {
  for (int i = 0; i < 10; i = i + 1) {
    q[i] = p[i] * 2;
  }
}
int main() {
  int a[10];
  int b[10];
  int sum = 0;
  int s = 0;
  int r = 1;
  for (int i = 0; i < 10; i = i + 1) {
    a[i] = 0;
    b[i] = 0;
  }
  //@mcl-begin
  for (int it = 0; it < 10; it = it + 1) {
    int m;
    s = it + 1;
    a[it] = s * r;
    foo(a, b);
    r = r + 1;
    m = a[it] + b[it];
    sum = m;
  }
  //@mcl-end
  print_int(sum);
  return 0;
}
)";

  // 1. Compile.
  const ac::ir::Module module = ac::minic::compile(source);

  // 2. Trace one execution. BufferSink interns records into the compact
  //    SoA TraceBuffer as they are emitted — the analysis's native input
  //    (see README "Trace memory model").
  ac::trace::BufferSink trace;
  ac::vm::RunOptions run_opts;
  run_opts.sink = &trace;
  const ac::vm::RunResult result = ac::vm::run_module(module, run_opts);
  std::printf("program output: %s", result.output.c_str());
  std::printf("dynamic instructions traced: %llu\n\n",
              static_cast<unsigned long long>(trace.count()));

  // 3. Analyze through the Session pipeline. The MCL region comes from the
  //    source markers here; in general the user supplies the host function
  //    and start/end line numbers. The same Session accepts a .file() trace
  //    (options({.threads = N}) parallelizes its read) or a .live()
  //    execution.
  const ac::analysis::Report report = ac::analysis::Session()
                                          .buffer(trace.take())
                                          .region_from_markers(source)
                                          .run();

  // 4. The verdict: which variables a C/R library must protect.
  std::printf("%s", report.render().c_str());
  std::printf("\nThese are exactly the variables to pass to FTI/VeloC-style "
              "Protect() calls\n(the paper's verdict for this example: r, a, sum, it).\n");
  return 0;
}
