// Figures 1, 4, 5 and 6 reproduction: runs the paper's example code (Fig. 4)
// through the whole pipeline and prints
//   * Fig. 1-style dynamic instruction blocks (a Load and a Mul),
//   * Fig. 6-style Call form 1 / form 2 / Alloca records,
//   * the complete DDG (Fig. 5(c)) and the contracted DDG (Fig. 5(d)) as DOT,
//   * the extracted R/W dependency sequence (Fig. 5(e)),
//   * the identified critical variables {r, a, sum, it} (§IV-C).
#include <cstdio>

#include "analysis/session.hpp"
#include "minic/compiler.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

using namespace ac;

namespace {

const char* kFig4 = R"(
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

}  // namespace

int main() {
  const ir::Module module = minic::compile(kFig4);
  const analysis::MclRegion region = analysis::find_mcl_region(kFig4);

  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  const vm::RunResult rr = vm::run_module(module, ropts);

  std::printf("=== Fig. 4 example code executed: output=%s(%llu dynamic instructions)\n\n",
              rr.output.c_str(), static_cast<unsigned long long>(rr.steps));

  std::printf("--- Fig. 1-style trace blocks (first Load and first Mul inside foo) ---\n");
  const trace::TraceBuffer& trace = sink.buffer();
  int shown_load = 0, shown_mul = 0, shown_call1 = 0, shown_call2 = 0, shown_alloca = 0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::RecordView rec = trace.view(i);
    if (rec.func() == "foo" && rec.opcode() == trace::Opcode::Load && shown_load++ == 0) {
      std::printf("%s", rec.to_text().c_str());
    }
    if (rec.func() == "foo" && rec.opcode() == trace::Opcode::Mul && shown_mul++ == 0) {
      std::printf("%s", rec.to_text().c_str());
    }
  }
  std::printf("\n--- Fig. 6-style records: Call form 2 (foo), Alloca (sum), Call form 1 (print) ---\n");
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const trace::RecordView rec = trace.view(i);
    // Call form 2 carries parameter-indicator rows (its body follows).
    const bool call_with_body = rec.find(trace::OperandSlot::Param) != nullptr;
    if (rec.opcode() == trace::Opcode::Call && call_with_body && shown_call2++ == 0) {
      std::printf("%s", rec.to_text().c_str());
    }
    if (rec.opcode() == trace::Opcode::Alloca &&
        rec.name(*rec.find(trace::OperandSlot::Result)) == "sum" && shown_alloca++ == 0) {
      std::printf("%s", rec.to_text().c_str());
    }
    if (rec.opcode() == trace::Opcode::Call && !call_with_body && shown_call1++ == 0) {
      std::printf("%s", rec.to_text().c_str());
    }
  }

  const analysis::Report report = analysis::Session().buffer(sink.take()).region(region).run();

  std::printf("\n--- MLI variables (pre-processing, Fig. 3) ---\n  ");
  for (const auto& m : report.pre.mli) std::printf("%s ", m.name.c_str());

  std::printf("\n\n--- Complete DDG (Fig. 5(c)): %d nodes, %zu edges; DOT ---\n%s",
              report.dep.complete.num_nodes(), report.dep.complete.num_edges(),
              report.dep.complete.to_dot().c_str());

  std::printf("\n--- Contracted DDG (Fig. 5(d), Algorithm 1) ---\n%s",
              report.contracted.to_dot().c_str());

  std::printf("\n--- Extracted R/W dependencies in execution order (Fig. 5(e)) ---\n");
  std::size_t n = 0;
  for (const auto& ev : report.dep.events) {
    if (ev.part != analysis::Part::B || ev.iteration != 1) continue;
    std::printf("%zu: %s-%s; ", ++n, report.pre.vars.def(ev.var).name.c_str(),
                ev.is_write ? "Write" : "Read");
  }

  std::printf("\n\n--- Identified critical variables (paper: r WAR, a RAPO, sum Outcome, it Index) ---\n");
  for (const auto& cv : report.verdicts.critical) {
    std::printf("  %-6s %s\n", cv.name.c_str(), analysis::dep_type_name(cv.type));
  }
  return 0;
}
