// Shared helpers for the AutoCheck test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "minic/compiler.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"

namespace ac::test {

struct PipelineRun {
  ir::Module module;
  trace::TraceBuffer trace;
  vm::RunResult run;
  analysis::Report report;
};

/// Compile MiniC source, execute it under the tracing VM, run AutoCheck.
/// The MCL region comes from //@mcl-begin / //@mcl-end markers.
inline PipelineRun run_pipeline(const std::string& source,
                                const analysis::AnalysisOptions& opts = {}) {
  PipelineRun out;
  out.module = minic::compile(source);
  const analysis::MclRegion region = analysis::find_mcl_region(source);
  trace::BufferSink sink;
  vm::RunOptions ropts;
  ropts.sink = &sink;
  out.run = vm::run_module(out.module, ropts);
  out.trace = sink.take();
  out.report =
      analysis::Session().buffer(trace::TraceBuffer(out.trace)).region(region).options(opts).run();
  return out;
}

/// Drive SessionStream's two passes over the first `count` records of `buf`
/// (all of them by default), as a live execution would feed it.
inline analysis::Report stream_trace(const trace::TraceBuffer& buf,
                                     const analysis::MclRegion& region,
                                     const analysis::AnalysisOptions& opts = {},
                                     std::size_t count = static_cast<std::size_t>(-1)) {
  count = std::min(count, buf.size());
  analysis::SessionStream stream(region, opts);
  for (std::size_t i = 0; i < count; ++i) stream.pass1_add(buf.view(i));
  stream.finish_pass1();
  for (std::size_t i = 0; i < count; ++i) stream.pass2_add(buf.view(i));
  return stream.finish();
}

/// The LLVM-Tracer text rendering of a whole trace.
inline std::string trace_text(const trace::TraceBuffer& buf) {
  std::string text;
  for (std::size_t i = 0; i < buf.size(); ++i) buf.view(i).append_text(text);
  return text;
}

/// `b` is the same parse as `a`: equal pools (size and every id's bytes) and
/// equal packed records and operands, field by field. Rendered text alone
/// would hide a pool that assigns the same symbols different ids.
inline void expect_same_buffer(const trace::TraceBuffer& a, const trace::TraceBuffer& b) {
  ASSERT_EQ(a.pool().size(), b.pool().size());
  for (std::uint32_t id = 0; id < a.pool().size(); ++id) {
    ASSERT_EQ(a.pool().view(id), b.pool().view(id)) << "symbol id " << id;
  }
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::PackedRecord& x = a.records()[i];
    const trace::PackedRecord& y = b.records()[i];
    ASSERT_TRUE(x.dyn_id == y.dyn_id && x.func == y.func && x.bb == y.bb &&
                x.op_offset == y.op_offset && x.op_count == y.op_count && x.line == y.line &&
                x.opcode == y.opcode)
        << "record " << i;
  }
  ASSERT_EQ(a.operands().size(), b.operands().size());
  for (std::size_t i = 0; i < a.operands().size(); ++i) {
    const trace::PackedOperand& x = a.operands()[i];
    const trace::PackedOperand& y = b.operands()[i];
    ASSERT_TRUE(x.raw == y.raw && x.name == y.name && x.index == y.index && x.bits == y.bits &&
                x.flags == y.flags)
        << "operand " << i;
  }
}

/// The text block of a hand-built record, rendered through a one-record
/// TraceBuffer (RecordView::append_text is the only renderer).
inline std::string record_text(const trace::TraceRecord& rec) {
  trace::TraceBuffer buf;
  buf.append(rec);
  return buf.view(0).to_text();
}

/// Execute without analysis (for VM-focused tests).
inline vm::RunResult run_source(const std::string& source, trace::TraceSink* sink = nullptr) {
  const ir::Module module = minic::compile(source);
  vm::RunOptions ropts;
  ropts.sink = sink;
  return vm::run_module(module, ropts);
}

/// name -> dependency-type-name map of the identified critical variables.
inline std::map<std::string, std::string> critical_map(const analysis::Report& report) {
  std::map<std::string, std::string> out;
  for (const auto& cv : report.verdicts.critical) {
    out[cv.name] = analysis::dep_type_name(cv.type);
  }
  return out;
}

inline std::vector<std::string> mli_names(const analysis::Report& report) {
  std::vector<std::string> out;
  for (const auto& m : report.pre.mli) out.push_back(m.name);
  return out;
}

}  // namespace ac::test

namespace ac::test {

/// The paper's Fig. 4 example program, MiniC-ported with MCL markers.
/// Expected: MLI = {a, b, sum, s, r}; critical = {r WAR, a RAPO,
/// sum Outcome, it Index} (paper §IV-C).
inline std::string fig4_source() {
  return R"(
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
}

}  // namespace ac::test
