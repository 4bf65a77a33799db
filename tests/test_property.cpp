// Property-based testing: AutoCheck's identified set must make restart
// reproduce the failure-free output for *randomly generated* loop programs —
// not just the curated benchmarks. Programs are built from dataflow motifs
// (accumulators, recomputed temporaries, partial array writes, sweeps,
// conditional updates), then:
//   (1) sufficiency: restart from the identified set at a random failure
//       iteration prints the same output text as the failure-free run
//       (RunResult::output, where print_float writes %.6f, so a difference
//       below the sixth decimal passes);
//   (2) the identified set stays within MLI ∪ induction;
//   (3) analysis is deterministic.
#include <gtest/gtest.h>

#include <set>

#include "apps/harness.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

#include "helpers.hpp"

namespace ac {
namespace {

constexpr int kScalars = 5;
constexpr int kArrayLen = 8;

std::string scalar(int i) { return strf("s%d", i); }

/// Generate a random-but-well-formed MiniC program with an instrumented loop.
std::string generate_program(std::uint64_t seed) {
  SplitMix64 rng(seed);
  std::string body;

  const int stmts = static_cast<int>(rng.range(3, 9));
  for (int s = 0; s < stmts; ++s) {
    switch (rng.below(7)) {
      case 0:  // accumulate: sX = sX + <expr>
        body += strf("    %s = %s + %s * 0.25 + %lld;\n", scalar(rng.below(kScalars)).c_str(),
                     scalar(rng.below(kScalars)).c_str(), scalar(rng.below(kScalars)).c_str(),
                     static_cast<long long>(rng.range(-3, 3)));
        break;
      case 1:  // recomputed temporary: sX = it * c
        body += strf("    %s = it * %lld + %lld;\n", scalar(rng.below(kScalars)).c_str(),
                     static_cast<long long>(rng.range(1, 4)),
                     static_cast<long long>(rng.range(0, 5)));
        break;
      case 2:  // partial array write
        body += strf("    arr[(it + %lld) %% %d] = %s;\n",
                     static_cast<long long>(rng.below(kArrayLen)), kArrayLen,
                     scalar(rng.below(kScalars)).c_str());
        break;
      case 3:  // stale array read
        body += strf("    %s = %s + arr[(it + %lld) %% %d];\n",
                     scalar(rng.below(kScalars)).c_str(), scalar(rng.below(kScalars)).c_str(),
                     static_cast<long long>(rng.below(kArrayLen)), kArrayLen);
        break;
      case 4:  // in-place sweep
        body += strf(
            "    for (int j = 1; j < %d; j = j + 1) { arr[j] = arr[j] * 0.5 + arr[j - 1] * "
            "0.125; }\n",
            kArrayLen);
        break;
      case 5:  // conditional update
        body += strf("    if (%s > %lld) { %s = %s - 1.0; }\n",
                     scalar(rng.below(kScalars)).c_str(),
                     static_cast<long long>(rng.range(0, 10)),
                     scalar(rng.below(kScalars)).c_str(),
                     scalar(rng.below(kScalars)).c_str());
        break;
      case 6:  // full overwrite of the array (makes it safe again)
        body += strf(
            "    for (int j = 0; j < %d; j = j + 1) { arr[j] = %s + j; }\n", kArrayLen,
            scalar(rng.below(kScalars)).c_str());
        break;
    }
  }

  std::string src = "int main() {\n  double arr[" + strf("%d", kArrayLen) + "];\n";
  for (int i = 0; i < kScalars; ++i) {
    src += strf("  double %s = %lld.5;\n", scalar(i).c_str(),
                static_cast<long long>(rng.range(0, 4)));
  }
  src += strf("  for (int i = 0; i < %d; i = i + 1) { arr[i] = i * 0.75; }\n", kArrayLen);
  src += "  //@mcl-begin\n";
  src += strf("  for (int it = 0; it < %lld; it = it + 1) {\n",
              static_cast<long long>(rng.range(6, 10)));
  src += body;
  src += "  }\n  //@mcl-end\n";
  for (int i = 0; i < kScalars; ++i) src += strf("  print_float(%s);\n", scalar(i).c_str());
  src += strf("  double cs = 0.0;\n  for (int i = 0; i < %d; i = i + 1) { cs = cs + arr[i] * (i "
              "+ 1); }\n  print_float(cs);\n",
              kArrayLen);
  src += "  return 0;\n}\n";
  return src;
}

class RandomPrograms : public testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPrograms, IdentifiedSetIsSufficientForRestart) {
  const std::uint64_t seed = GetParam();
  const std::string src = generate_program(seed);
  SCOPED_TRACE(src);

  auto run = test::run_pipeline(src);
  const auto region = analysis::find_mcl_region(src);
  const auto names = run.report.critical_names();

  SplitMix64 rng(seed ^ 0xABCDEF);
  const int fail_at = static_cast<int>(rng.range(2, 5));
  const auto v = apps::validate_cr(
      run.module, region, names, fail_at,
      apps::validation_config(testing::TempDir(),
                              strf("prop_%llu", static_cast<unsigned long long>(seed))));
  EXPECT_TRUE(v.restart_matches)
      << "identified: " << join(names, ", ") << "\nref:\n" << v.reference_output
      << "\nrestart:\n" << v.restart_output;
}

TEST_P(RandomPrograms, IdentifiedSubsetOfMliAndInduction) {
  auto run = test::run_pipeline(generate_program(GetParam()));
  const auto mli = test::mli_names(run.report);
  std::set<std::string> allowed(mli.begin(), mli.end());
  allowed.insert("it");
  for (const auto& cv : run.report.verdicts.critical) {
    EXPECT_TRUE(allowed.count(cv.name)) << cv.name << " outside MLI ∪ induction";
  }
}

TEST_P(RandomPrograms, AnalysisIsDeterministic) {
  const std::string src = generate_program(GetParam());
  auto a = test::run_pipeline(src);
  auto b = test::run_pipeline(src);
  EXPECT_EQ(test::critical_map(a.report), test::critical_map(b.report));
  EXPECT_EQ(a.report.dep.events.size(), b.report.dep.events.size());
  EXPECT_EQ(a.run.output, b.run.output);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPrograms,
                         testing::Range<std::uint64_t>(1000, 1030));

}  // namespace
}  // namespace ac

// -- Streaming equivalence on random programs (Session::live) --

namespace ac {
namespace {

TEST_P(RandomPrograms, StreamingMatchesBatch) {
  const std::string src = generate_program(GetParam());
  auto batch = test::run_pipeline(src);
  const analysis::Report streamed =
      test::stream_trace(batch.trace, analysis::find_mcl_region(src));

  EXPECT_EQ(test::critical_map(streamed), test::critical_map(batch.report));
  EXPECT_EQ(streamed.dep.events.size(), batch.report.dep.events.size());
}

}  // namespace
}  // namespace ac
