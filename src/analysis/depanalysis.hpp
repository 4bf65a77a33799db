// Data dependency analysis (paper §IV-B): a single ordered replay of the
// trace that maintains the reg-var map (register provenance), the reg-reg map
// (arithmetic links), call argument/parameter correlations and the on-the-fly
// address map — and produces:
//   * the execution-time-ordered Read/Write event sequence on MLI variables
//     (Fig. 5(e)), element-granular so RAPO detection works on arrays;
//   * the complete DDG over variables and registers (Fig. 5(c));
//   * induction-detection facts (header condition reads, self-dependent
//     header stores, loop write set).
//
// The replay runs natively on the interned packed representation: register
// provenance and the reg-reg map are keyed by SymbolPool ids (integer hashes,
// no string traffic), and DDG nodes are resolved through id-keyed caches that
// produce exactly the legacy labels. One implementation serves the batch path
// (a TraceBuffer replay) and the streaming path (RecordViews remapped one at
// a time into a scratch TraceBuffer), so batch and streaming results are
// identical by construction.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "analysis/ddg.hpp"
#include "analysis/preprocess.hpp"

namespace ac::analysis {

struct AccessEvent {
  int var = -1;
  std::int64_t elem = 0;       // 8-byte element index within the variable
  std::uint64_t t = 0;         // record index (execution order)
  int line = 0;                // source line of the access (witness reporting)
  int iteration = 0;           // 0 = outside/before loop body, 1-based inside
  Part part = Part::A;
  bool is_write = false;
};

struct InductionInfo {
  std::set<int> cond_read;    // vars loaded at the MCL header line (part B)
  std::set<int> self_rmw;     // header-line stores whose value depends on the target
  std::vector<char> written_in_b;  // by canonical var id
};

struct DepOptions {
  bool build_ddg = true;  // the event stream alone suffices for classification
};

struct DepResult {
  std::vector<AccessEvent> events;  // MLI variables only, in execution order
  Ddg complete;                     // complete DDG (vars + registers)
  InductionInfo induction;
  int iterations = 0;               // MCL header evaluations observed
  std::uint64_t stores_seen = 0;
  std::uint64_t pointer_assignments = 0;
};

/// Batch replay over the interned buffer (the fast path).
/// `pre.vars` is extended in place (callee locals may first appear here).
DepResult dep_analysis(const trace::TraceBuffer& buf, PreprocessResult& pre,
                       const MclRegion& region, const DepOptions& opts = {});

/// Incremental dependency analysis: feed records one at a time (second pass
/// of the streaming pipeline; requires a finished PreprocessResult so the
/// loop partition is known). Like MliCollector, it remaps each view — over
/// any pool — into a one-record scratch buffer over its own pool and runs the
/// same replay dep_analysis() runs, so batch and streaming results are
/// identical by construction.
class DepAnalyzer {
 public:
  DepAnalyzer(PreprocessResult& pre, const MclRegion& region, const DepOptions& opts = {});
  ~DepAnalyzer();
  DepAnalyzer(const DepAnalyzer&) = delete;
  DepAnalyzer& operator=(const DepAnalyzer&) = delete;

  void add(const trace::RecordView& rec);
  DepResult finish();

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace ac::analysis
