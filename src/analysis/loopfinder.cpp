#include "analysis/loopfinder.hpp"

#include <algorithm>
#include <map>

#include "support/strings.hpp"

namespace ac::analysis {

std::vector<LoopCandidate> suggest_loops(const trace::TraceBuffer& buf, std::size_t top_n) {
  struct Stats {
    int evaluations = 0;
    std::uint64_t first = 0;
    std::uint64_t last = 0;
  };
  // Keyed by (func pool id, line); names resolve once per candidate below.
  std::map<std::pair<std::uint32_t, int>, Stats> headers;

  const auto& records = buf.records();
  const auto& sites = buf.sites();
  auto has_input1 = [&](const trace::Site& s) {
    return trace::find_input(buf.templates_of(s), s.op_count, 1) >= 0;
  };

  for (std::size_t i = 0; i < records.size(); ++i) {
    const trace::Site& r = sites[records[i].site];
    // A loop header evaluation is a conditional branch (paper: the `for`
    // statement's condition); unconditional back-edges are not headers.
    if (r.opcode != trace::Opcode::Br || !has_input1(r)) continue;
    auto [it, inserted] = headers.try_emplace({r.func, r.line});
    Stats& st = it->second;
    if (inserted) st.first = i;
    st.last = i;
    ++st.evaluations;
  }

  std::vector<LoopCandidate> out;
  for (const auto& [key, st] : headers) {
    if (st.evaluations < 2) continue;  // an `if`, not a loop
    LoopCandidate c;
    c.function = std::string(buf.pool().view(key.first));
    c.header_line = key.second;
    c.evaluations = st.evaluations;
    c.span = st.last - st.first;
    c.coverage = records.empty() ? 0.0 : static_cast<double>(c.span) / records.size();
    // Estimated body end: the last host-function line executed inside the
    // loop's dynamic span at or after the header.
    int end_line = key.second;
    for (std::uint64_t i = st.first; i <= st.last; ++i) {
      const trace::Site& r = sites[records[static_cast<std::size_t>(i)].site];
      if (r.func == key.first && r.opcode != trace::Opcode::Alloca && r.line > end_line) {
        end_line = r.line;
      }
    }
    c.end_line = end_line;
    out.push_back(c);
  }

  std::sort(out.begin(), out.end(), [](const LoopCandidate& a, const LoopCandidate& b) {
    if (a.span != b.span) return a.span > b.span;
    if (a.evaluations != b.evaluations) return a.evaluations > b.evaluations;
    return std::tie(a.function, a.header_line) < std::tie(b.function, b.header_line);
  });
  if (top_n > 0 && out.size() > top_n) out.resize(top_n);
  return out;
}

std::string render_suggestions(const std::vector<LoopCandidate>& candidates) {
  std::string out = "Candidate main computation loops (heaviest first):\n";
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const LoopCandidate& c = candidates[i];
    out += strf("  %zu. --function %s --begin %d --end %d   "
                "(%d evaluations, %llu dynamic instructions, %.1f%% of trace)\n",
                i + 1, c.function.c_str(), c.header_line, c.end_line, c.evaluations,
                static_cast<unsigned long long>(c.span), 100.0 * c.coverage);
  }
  if (candidates.empty()) out += "  (no loops observed)\n";
  return out;
}

}  // namespace ac::analysis
