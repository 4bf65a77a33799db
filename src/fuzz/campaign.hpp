// The fault-injection / byte-mutation campaign driver (`autocheck
// --fuzz-campaign`) — the ConfFuzz-style robustness harness over this repo's
// own stack.
//
// A campaign walks a budget of randomized cases, each one point of the
// (mini-app x scale x codec chain x armed fault point x mutation site)
// cross-product:
//
//   mctb   mutate an encoded MCTB container, decode it in a child process,
//          re-serialize canonically, compare;
//   ckpt   same over a full EngineRecord's log frame (the bytes a
//          checkpoint log stores);
//   frame  same over an ACNP TraceChunk frame (net/protocol.hpp);
//   crash  run a mini-app under the CheckpointEngine with a fault point
//          armed (kill / throw / short write), then restart in a fresh
//          child and demand a bit-identical recovery.
//
// Every case runs in a forked child so a genuine crash, hang, or sanitizer
// abort is an observation, not the end of the campaign. Classification:
//
//   clean-error        malformed input became a typed ac::Error
//   benign             the mutation was absorbed; decoded state is canonical
//                      (crash cases: the armed fault never fired)
//   recovered          crash scenario restarted bit-identically
//   silent-corruption  decode "succeeded" but the state is wrong  <- finding
//   crash              unhandled exception / signal / unexpected exit <- finding
//   hang               case exceeded its timeout and was SIGKILLed   <- finding
//
// Findings are auto-shrunk (greedy ddmin over the mutation list) to a minimal
// reproducer and persisted as self-describing corpus entries (corpus.hpp)
// replayable with --replay FILE / --replay-corpus DIR.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/corpus.hpp"

namespace ac::fuzz {

enum class Outcome : std::uint8_t {
  CleanError,
  Benign,
  Recovered,
  SilentCorruption,
  Crash,
  Hang,
};

/// "clean-error" / "benign" / "recovered" / "silent-corruption" / "crash" /
/// "hang" — the corpus-file outcome vocabulary.
const char* outcome_name(Outcome o);
/// Inverse of outcome_name; throws ac::Error on unknown names.
Outcome parse_outcome(const std::string& name);
/// True for the outcomes a campaign reports as findings.
bool outcome_is_failure(Outcome o);

struct CampaignOptions {
  std::uint64_t seed = 1;
  /// Wall-clock budget; <= 0 means case-count-bounded only.
  double budget_seconds = 0;
  /// Case budget; <= 0 with no time budget defaults to 64 cases. A pure
  /// case-count budget makes the campaign fully deterministic per seed.
  int max_cases = 0;
  /// Where findings are persisted as .acfz files ("" = don't persist).
  std::string corpus_dir;

  std::vector<std::string> apps = {"IS", "EP"};
  std::vector<std::string> kinds = {"mctb", "ckpt", "frame", "crash"};
  std::vector<std::string> codecs = {"raw", "rle", "rle+lz"};
  int scale = 1;

  /// Per-case wall limit; a child still running after this is a Hang.
  int case_timeout_ms = 20000;
  /// Mutations per case are drawn uniformly from [1, max_mutations].
  int max_mutations = 4;
  /// Shrink findings to a minimal mutation list before persisting.
  bool shrink = true;
  bool verbose = false;
};

struct Finding {
  CorpusEntry entry;        // shrunk reproducer, outcome/detail recorded
  std::string corpus_path;  // where it was saved ("" when no corpus dir)
};

struct CampaignResult {
  int cases = 0;
  int clean_errors = 0;
  int benign = 0;
  int recovered = 0;
  int silent = 0;
  int crashes = 0;
  int hangs = 0;
  std::vector<Finding> findings;
  /// One line per executed case, in order — deterministic for a fixed seed
  /// and case-count budget (the determinism-test observable).
  std::vector<std::string> case_log;

  bool ok() const { return silent == 0 && crashes == 0 && hangs == 0; }
};

CampaignResult run_campaign(const CampaignOptions& opts);

struct CaseResult {
  Outcome outcome = Outcome::Benign;
  std::string detail;
};

/// Execute one corpus entry in a sandboxed child process and classify it.
/// Only `case_timeout_ms` (and for crash cases the work-dir machinery) of
/// `opts` is consulted — an entry is self-describing.
CaseResult execute_entry(const CorpusEntry& e, const CampaignOptions& opts);

/// Replay one .acfz file; prints the outcome and returns true when it matches
/// the entry's recorded outcome (an entry without one always matches).
bool replay_file(const std::string& path, const CampaignOptions& opts, bool verbose);

/// Replay every .acfz under `dir` in sorted order; returns the number of
/// entries whose outcome did not reproduce.
int replay_corpus_dir(const std::string& dir, const CampaignOptions& opts, bool verbose);

/// The `autocheck --fuzz-campaign` entry point; `args` is everything after
/// the flag. Returns a process exit code (0 = campaign clean / replays match).
int fuzz_main(const std::vector<std::string>& args);

}  // namespace ac::fuzz
