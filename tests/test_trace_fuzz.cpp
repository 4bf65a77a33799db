// Robustness: randomly mutated trace text must never crash the parser or the
// analysis — every malformed input surfaces as a TraceFormatError (or parses
// into records that the analysis handles/reports cleanly).
#include <gtest/gtest.h>

#include "analysis/session.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/reader.hpp"

#include "helpers.hpp"

namespace ac::trace {
namespace {

class TraceFuzz : public testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceFuzz, MutatedTraceNeverCrashes) {
  static const std::string base_text = [] {
    return test::trace_text(test::run_pipeline(test::fig4_source()).trace);
  }();
  static const analysis::MclRegion region = analysis::find_mcl_region(test::fig4_source());

  SplitMix64 rng(GetParam());
  std::string text = base_text;
  // Apply a handful of random byte edits: overwrite, delete, duplicate.
  const int edits = static_cast<int>(rng.range(1, 8));
  for (int e = 0; e < edits; ++e) {
    if (text.empty()) break;
    const std::size_t pos = rng.below(text.size());
    switch (rng.below(3)) {
      case 0: text[pos] = static_cast<char>(rng.range(32, 126)); break;
      case 1: text.erase(pos, rng.range(1, 20)); break;
      case 2: text.insert(pos, std::string(rng.range(1, 5), ',')); break;
    }
  }

  try {
    TraceBuffer buf = read_trace_buffer(text);
    // If it still parses, the analysis must either succeed or throw a typed
    // library error — never crash or hang.
    try {
      auto report = analysis::Session().buffer(std::move(buf)).region(region).run();
      (void)report;
    } catch (const ac::Error&) {
    }
  } catch (const TraceFormatError&) {
    // Typed parse error: exactly what malformed input should produce.
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceFuzz, testing::Range<std::uint64_t>(7000, 7050));

}  // namespace
}  // namespace ac::trace
