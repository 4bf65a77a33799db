// Main-loop suggestion (extension; paper §VII "Select main loop"): the 14
// benchmark loops were found manually in the paper — "the most
// computationally intensive and longest running loops". This module ranks
// candidate loops straight from the trace so a user without source knowledge
// can pick the MCL: every (function, line) hosting conditional branches is a
// loop header; candidates are ranked by the dynamic-instruction span they
// enclose (computational weight), with their iteration counts and an
// estimated body line range.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/buffer.hpp"

namespace ac::analysis {

struct LoopCandidate {
  std::string function;
  int header_line = 0;
  int end_line = 0;          // estimated last body line (for --begin/--end)
  int evaluations = 0;       // conditional-branch evaluations at the header
  std::uint64_t span = 0;    // dynamic instructions between first/last evaluation
  double coverage = 0;       // span / total trace length

  bool operator==(const LoopCandidate&) const = default;
};

/// Rank loop candidates, heaviest first. `top_n` == 0 returns all.
std::vector<LoopCandidate> suggest_loops(const trace::TraceBuffer& buf, std::size_t top_n = 5);

/// Render a human-readable suggestion list (used by `autocheck --suggest`).
std::string render_suggestions(const std::vector<LoopCandidate>& candidates);

}  // namespace ac::analysis
