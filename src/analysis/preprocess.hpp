// Pre-processing module (paper §IV-A and Fig. 3): partition the trace around
// the main computation loop and identify the Main-Loop-Input (MLI) variables.
//
// The scan runs natively on the interned packed representation
// (trace/buffer.hpp): one implementation serves the batch path (a replay of a
// TraceBuffer, zero per-record conversion) and the live path (RecordViews
// remapped one at a time into a one-record scratch TraceBuffer) — so batch
// and live results are identical by construction.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "analysis/region.hpp"
#include "analysis/vartable.hpp"
#include "trace/buffer.hpp"

namespace ac::analysis {

enum class Part : std::uint8_t { A, B, C };

/// Record-index boundaries of the main computation loop (Fig. 4 regions):
/// Part A = [0, first_b), Part B = [first_b, last_b], Part C = (last_b, end).
struct Partition {
  std::ptrdiff_t first_b = -1;
  std::ptrdiff_t last_b = -1;

  bool has_loop() const { return first_b >= 0; }
  Part part_of(std::ptrdiff_t idx) const {
    if (!has_loop() || idx < first_b) return Part::A;
    return idx <= last_b ? Part::B : Part::C;
  }
};

enum class MliMode {
  /// Default: address-resolved matching — a variable is MLI iff its storage
  /// belongs to the host function (or is a global), and it is accessed both
  /// before and inside the loop (accesses through callees resolve to the
  /// owning variable by address). This is the paper's Challenge-1/2 handling
  /// taken to its conclusion.
  AddressResolved,
  /// The paper's literal scheme: collect (name, address) pairs of variables
  /// touched before the loop and — bypassing the bodies of functions called
  /// from the loop — inside it, then match. Exhibits the FT-global
  /// limitation of §V-B, which the tests demonstrate.
  PaperNameMatch,
};

struct MliVar {
  int var_id = -1;
  std::string name;
  int decl_line = 0;
  std::uint64_t bytes = 0;
};

struct PreprocessResult {
  Partition partition;
  VarTable vars;               // canonical registry for the whole trace
  std::vector<MliVar> mli;     // discovery order
  std::vector<char> is_mli;    // indexed by canonical var id
  std::uint64_t records_scanned = 0;
};

/// Batch pre-processing over the interned buffer.
PreprocessResult preprocess(const trace::TraceBuffer& buf, const MclRegion& region,
                            MliMode mode = MliMode::AddressResolved);

/// Incremental pre-processing: feed records one at a time (e.g. directly from
/// an instrumented execution, the paper's stated future work) and call
/// finish() once. Each view — over any pool — is remapped into a one-record
/// scratch TraceBuffer whose pool is the collector's own, and handed to the
/// same scan the batch path runs, so batch and streaming results are
/// identical by construction.
class MliCollector {
 public:
  explicit MliCollector(const MclRegion& region, MliMode mode = MliMode::AddressResolved);
  ~MliCollector();
  MliCollector(const MliCollector&) = delete;
  MliCollector& operator=(const MliCollector&) = delete;

  void add(const trace::RecordView& rec);
  /// Throws ac::AnalysisError when the region never executed.
  PreprocessResult finish();

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace ac::analysis
