// Data dependency analysis (paper §IV-B): one ordered replay of the trace
// that maintains the reg-var map (register provenance), the reg-reg map
// (arithmetic links), call argument/parameter correlations and the on-the-fly
// address map — and produces:
//   * the execution-time-ordered Read/Write event sequence on MLI variables
//     (Fig. 5(e)), element-granular so RAPO detection works on arrays;
//   * the complete DDG over variables and registers (Fig. 5(c));
//   * induction-detection facts (header condition reads, self-dependent
//     header stores, loop write set).
//
// The same replay does the pre-processing of §IV-A: it finds the loop's
// record range and the MLI variables (preprocess.hpp). Three facts settle
// only when the trace ends, at finish(), from record indices kept on the way:
//   * an event's part: A before loop entry; B or C by its index against the
//     loop's last record;
//   * written_in_b: a variable's first store at or after loop entry falls
//     inside the loop;
//   * is_mli: the conjuncts known at loop entry (host scope, allocated before
//     the loop, and for AddressResolved accessed before it) and a first
//     access at or after entry that falls inside the loop. PaperNameMatch
//     settles its (name, base) sets the same way.
// Events are kept only for variables that can still become MLI, and finish()
// drops the rest. DDG variable nodes start as OtherVar; finish() upgrades the
// MLI ones in place, so node ids and labels are what a replay that knew the
// MLI set in advance would give.
//
// The replay runs natively on the site-indexed representation, on dense
// SymbolPool ids with no string traffic: each record is read in place, its
// site's header and operand templates from the site table and its values
// from the value column, with no per-record copy. Register provenance lives in one
// flat table indexed by pool id, bound shallowly: a slot is visible only to
// the frame that wrote it, a callee's first write saves the caller's slot to
// an undo log, and Ret restores it. Provenance is read by reference, keeps
// its sources in first-seen order, and a register carrying more than a fixed
// bound of sources is an AnalysisError, never a silently dropped read. DDG
// nodes are resolved through per-id vectors that produce exactly the legacy
// labels. The same vectors hold an edge memo: per node, the last edge a Load
// (its source variable), an arithmetic record (its at most 2 register
// inputs) or a Store (the function and register stored) added into it. A
// loop re-adds the same few edges on every iteration, so a record whose edge
// is its node's memo skips the lookups and Ddg::add_edge; any other record
// runs the full add, so the DDG is built exactly as without the memo. One
// implementation serves the batch path (a TraceBuffer replay) and the live
// path (RecordViews appended one at a time, through a per-site remap, to a
// scratch TraceBuffer), so batch and live results are identical by
// construction.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "analysis/ddg.hpp"
#include "analysis/preprocess.hpp"
#include "analysis/region.hpp"
#include "trace/writer.hpp"

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

/// Pipeline configuration. An aggregate, so designated initializers work:
/// `options({.threads = 4})`.
struct AnalysisOptions {
  MliMode mli_mode = MliMode::AddressResolved;
  bool build_ddg = true;  // the event stream alone suffices for classification

  /// Worker budget for the trace read (a file source parses in parallel when
  /// > 1). The analysis itself is sequential.
  int threads = 1;
};

struct DepResult {
  std::vector<AccessEvent> events;  // MLI variables only, in execution order
  Ddg complete;                     // complete DDG (vars + registers)
  InductionInfo induction;
  int iterations = 0;               // MCL header evaluations observed
  std::uint64_t stores_seen = 0;
  std::uint64_t pointer_assignments = 0;
};

/// What one replay produces: the pre-processing and the dependency results.
struct Replay {
  PreprocessResult pre;
  DepResult dep;
};

/// Batch replay over the interned buffer (the fast path). Throws
/// ac::AnalysisError when the region never executes or a record is malformed.
Replay dep_analysis(const trace::TraceBuffer& buf, const MclRegion& region,
                    const AnalysisOptions& opts = {});

/// Incremental replay: the sink a live execution emits into (the paper's §IX
/// trace-file-free mode). It appends each view — over any buffer — to a
/// one-record scratch buffer with its own pool and site table and runs the
/// replay dep_analysis() runs, so batch and live results are identical by
/// construction.
class DepAnalyzer final : public trace::TraceSink {
 public:
  explicit DepAnalyzer(const MclRegion& region, const AnalysisOptions& opts = {});
  ~DepAnalyzer() override;
  DepAnalyzer(const DepAnalyzer&) = delete;
  DepAnalyzer& operator=(const DepAnalyzer&) = delete;

  void append(const trace::RecordView& rec) override;
  std::uint64_t count() const override;
  /// Seals the replay. Throws ac::AnalysisError when the region never
  /// executed.
  Replay finish();

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace ac::analysis
