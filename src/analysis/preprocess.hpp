// Pre-processing results (paper §IV-A and Fig. 3): the trace's partition
// around the main computation loop and its Main-Loop-Input (MLI) variables.
//
// There is no separate pre-processing pass. The dependency replay
// (analysis/depanalysis.hpp) keeps the partition and MLI bookkeeping as it
// goes and settles these results when the trace ends, so one replay of each
// record fills both PreprocessResult and DepResult.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/vartable.hpp"

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

}  // namespace ac::analysis
