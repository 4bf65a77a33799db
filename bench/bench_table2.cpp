// Table II reproduction: for every benchmark, generate the dynamic trace
// (size + generation time), run AutoCheck, and report the identified critical
// variables with their dependency types, checked against the paper's column.
// Each trace file is deleted once its analysis is done. Exit 1 on any verdict
// mismatch.
//
// Pass --sweep to additionally re-run each benchmark at its default (smaller)
// input and confirm the identified set does not change (paper §VII,
// "With different inputs").
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "apps/harness.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"

using namespace ac;

namespace {

std::string verdict_text(const std::vector<analysis::CriticalVar>& critical) {
  std::vector<std::string> parts;
  for (const auto& cv : critical) {
    parts.push_back(cv.name + " (" + analysis::dep_type_name(cv.type) + ")");
  }
  return join(parts, ", ");
}

std::map<std::string, std::string> verdict_map(const std::vector<analysis::CriticalVar>& cvs) {
  std::map<std::string, std::string> out;
  for (const auto& cv : cvs) out[cv.name] = analysis::dep_type_name(cv.type);
  return out;
}

std::map<std::string, std::string> expected_map(const apps::App& app) {
  std::map<std::string, std::string> out;
  for (const auto& e : app.expected) out[e.name] = analysis::dep_type_name(e.type);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool sweep = argc > 1 && std::strcmp(argv[1], "--sweep") == 0;

  std::printf("=== Table II: benchmarks, traces, and identified critical variables ===\n\n");
  TextTable table({"Name", "Trace size", "Trace gen (s)", "Records",
                   "Critical variables (type)", "Paper MCLR", "Match"});

  std::map<std::string, int> type_histogram;
  int mismatches = 0;

  for (const auto& app : apps::registry()) {
    const std::string trace_path = "/tmp/ac_table2_" + app.name + ".trace";
    const apps::FileAnalysisRun run =
        apps::analyze_app_via_file(app, app.table2_params, trace_path);
    std::remove(trace_path.c_str());

    const bool match = verdict_map(run.report.verdicts.critical) == expected_map(app);
    mismatches += match ? 0 : 1;
    for (const auto& cv : run.report.verdicts.critical) {
      ++type_histogram[analysis::dep_type_name(cv.type)];
    }

    table.add_row({app.name, human_bytes(run.trace_bytes),
                   strf("%.3f", run.trace_generation_seconds),
                   strf("%llu", static_cast<unsigned long long>(run.trace_records)),
                   verdict_text(run.report.verdicts.critical), app.paper_mclr,
                   match ? "yes" : "NO"});
  }

  std::printf("%s\n", table.render().c_str());

  std::printf("Dependency-type histogram (paper: WAR dominates; 2x RAPO; 2x Outcome):\n");
  for (const auto& [type, count] : type_histogram) {
    std::printf("  %-8s %d\n", type.c_str(), count);
  }
  std::printf("\nBenchmarks matching the paper's Table II verdicts: %zu/14\n",
              apps::registry().size() - static_cast<std::size_t>(mismatches));

  if (sweep) {
    std::printf("\n=== Input sweep (paper §VII: variables do not change with input) ===\n");
    int stable = 0;
    for (const auto& app : apps::registry()) {
      const apps::AnalysisRun small = apps::analyze_app(app);  // default (small) input
      const apps::AnalysisRun big = apps::analyze_app(app, app.table2_params);
      const bool same =
          verdict_map(small.report.verdicts.critical) == verdict_map(big.report.verdicts.critical);
      stable += same;
      std::printf("  %-10s %s\n", app.name.c_str(), same ? "stable" : "CHANGED");
    }
    std::printf("Stable across input sizes: %d/14\n", stable);
  }

  return mismatches == 0 ? 0 : 1;
}
