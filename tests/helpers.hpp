// Shared helpers for the AutoCheck test suite.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analysis/session.hpp"
#include "ckpt/engine.hpp"
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

/// The lines of tests/golden/<file>, keyed by their first word (the app
/// name). Blank lines and '#' comments are skipped.
inline std::map<std::string, std::string> load_golden(const std::string& file) {
  std::ifstream in(std::string(AC_TEST_SOURCE_DIR) + "/golden/" + file);
  std::map<std::string, std::string> out;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    out[line.substr(0, line.find(' '))] = line;
  }
  return out;
}

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

/// Run a live Session whose generator emits the first `count` records of
/// `buf` (all of them by default), as a live execution would.
inline analysis::Report stream_trace(const trace::TraceBuffer& buf,
                                     const analysis::MclRegion& region,
                                     const analysis::AnalysisOptions& opts = {},
                                     std::size_t count = static_cast<std::size_t>(-1)) {
  count = std::min(count, buf.size());
  return analysis::Session()
      .live([&](trace::TraceSink& sink) {
        for (std::size_t i = 0; i < count; ++i) sink.append(buf.view(i));
      })
      .region(region)
      .options(opts)
      .run();
}

/// The LLVM-Tracer text rendering of a whole trace.
inline std::string trace_text(const trace::TraceBuffer& buf) {
  std::string text;
  for (std::size_t i = 0; i < buf.size(); ++i) buf.view(i).append_text(text);
  return text;
}

/// `b` is the same buffer as `a`: equal pools (size and every id's bytes),
/// equal site tables (headers and operand templates), and equal site ids,
/// values and dyn_id breaks. Rendered text alone would hide a pool or a site
/// table that assigns the same content different ids.
inline void expect_same_buffer(const trace::TraceBuffer& a, const trace::TraceBuffer& b) {
  ASSERT_EQ(a.pool().size(), b.pool().size());
  for (std::uint32_t id = 0; id < a.pool().size(); ++id) {
    ASSERT_EQ(a.pool().view(id), b.pool().view(id)) << "symbol id " << id;
  }
  ASSERT_EQ(a.sites().size(), b.sites().size());
  for (std::size_t i = 0; i < a.sites().size(); ++i) {
    const trace::Site& x = a.sites()[i];
    const trace::Site& y = b.sites()[i];
    ASSERT_TRUE(x.same_header(y) && x.op_offset == y.op_offset) << "site " << i;
  }
  ASSERT_TRUE(a.templates() == b.templates());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const trace::RecordEntry& x = a.records()[i];
    const trace::RecordEntry& y = b.records()[i];
    ASSERT_TRUE(x.site == y.site && x.value_offset == y.value_offset) << "record " << i;
  }
  ASSERT_EQ(a.values().size(), b.values().size());
  for (std::size_t i = 0; i < a.values().size(); ++i) {
    ASSERT_EQ(a.values()[i], b.values()[i]) << "value " << i;
  }
  ASSERT_EQ(a.dyn_breaks().size(), b.dyn_breaks().size());
  for (std::size_t i = 0; i < a.dyn_breaks().size(); ++i) {
    ASSERT_TRUE(a.dyn_breaks()[i].record == b.dyn_breaks()[i].record &&
                a.dyn_breaks()[i].dyn_id == b.dyn_breaks()[i].dyn_id)
        << "dyn_id break " << i;
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

/// A fixture whose TearDown removes, at every level, the logs of each engine
/// config passed to track().
class EngineLogs : public testing::Test {
 protected:
  ckpt::EngineConfig track(const ckpt::EngineConfig& cfg) {
    tracked_.push_back(cfg);
    return cfg;
  }
  void TearDown() override {
    for (const ckpt::EngineConfig& cfg : tracked_) ckpt::CheckpointEngine(cfg).reset();
  }

 private:
  std::vector<ckpt::EngineConfig> tracked_;
};

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
