// Tests for the fault-injection / fuzz-campaign stack (src/support/faultpoint,
// src/fuzz): fault-point arm/disarm semantics, mutation and corpus formats,
// campaign determinism, crash-recovery scenarios (the atomic-commit
// guarantee), hang classification, and the self-test that gives the campaign
// its teeth — a deliberately weakened validation check must be found, shrunk
// to a minimal reproducer, and replayed on both sides of the weakening.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>

#include "fuzz/campaign.hpp"
#include "fuzz/corpus.hpp"
#include "fuzz/mutate.hpp"
#include "support/error.hpp"
#include "support/faultpoint.hpp"
#include "support/rng.hpp"

namespace {

using namespace ac;
using namespace ac::fuzz;

namespace fs = std::filesystem;

/// RAII scratch directory under the system temp dir.
struct TempDir {
  fs::path path;
  explicit TempDir(const char* tag) {
    path = fs::temp_directory_path() / (std::string(tag) + "-" + std::to_string(::getpid()));
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Every fault test restores the global disarmed state, pass or fail.
struct FaultPointTest : ::testing::Test {
  void TearDown() override { fault::disarm_all(); }
};

// --- fault points -----------------------------------------------------------

TEST_F(FaultPointTest, DisarmedSitesAreNoops) {
  AC_FAULT("ckpt.unit.nothing");
  EXPECT_EQ(AC_FAULT_IO("ckpt.unit.nothing", std::size_t{100}), std::size_t{100});
  EXPECT_TRUE(fault::armed_points().empty());
}

TEST_F(FaultPointTest, ThrowRespectsSkipAndCountAndDomain) {
  fault::FaultSpec spec;
  spec.action = fault::Action::Throw;
  spec.skip = 2;
  spec.count = 1;
  fault::arm("ckpt.unit.point", spec);

  AC_FAULT("ckpt.unit.point");  // skipped
  AC_FAULT("ckpt.unit.point");  // skipped
  // The ckpt.* prefix resolves Domain::Auto to CheckpointError.
  EXPECT_THROW(AC_FAULT("ckpt.unit.point"), CheckpointError);
  AC_FAULT("ckpt.unit.point");  // count exhausted: armed but spent
  EXPECT_EQ(fault::trigger_count("ckpt.unit.point"), 1u);
}

TEST_F(FaultPointTest, DomainsFollowLayerPrefixes) {
  fault::arm_from_spec("mctb.unit.x=throw");
  fault::arm_from_spec("net.unit.x=throw");
  EXPECT_THROW(AC_FAULT("mctb.unit.x"), TraceFormatError);
  EXPECT_THROW(AC_FAULT("net.unit.x"), ProtocolError);
}

TEST_F(FaultPointTest, ShortWriteClampsIoSites) {
  fault::FaultSpec spec;
  spec.action = fault::Action::ShortWrite;
  spec.frac = 0.5;
  fault::arm("ckpt.unit.io", spec);
  EXPECT_EQ(AC_FAULT_IO("ckpt.unit.io", std::size_t{100}), std::size_t{50});
  // A ShortWrite armed at a non-IO site must not throw or kill.
  AC_FAULT("ckpt.unit.io");
}

TEST_F(FaultPointTest, DisarmRestoresTheSite) {
  fault::arm_from_spec("ckpt.unit.point=throw");
  EXPECT_THROW(AC_FAULT("ckpt.unit.point"), CheckpointError);
  EXPECT_TRUE(fault::disarm("ckpt.unit.point"));
  EXPECT_FALSE(fault::disarm("ckpt.unit.point"));
  AC_FAULT("ckpt.unit.point");
}

TEST_F(FaultPointTest, SpecParsing) {
  const fault::FaultSpec s = fault::parse_fault_spec("throw:skip=2,count=3,domain=trace");
  EXPECT_EQ(s.action, fault::Action::Throw);
  EXPECT_EQ(s.skip, 2);
  EXPECT_EQ(s.count, 3);
  EXPECT_EQ(s.domain, fault::Domain::Trace);

  const fault::FaultSpec d = fault::parse_fault_spec("delay:ms=7");
  EXPECT_EQ(d.action, fault::Action::Delay);
  EXPECT_EQ(d.delay_ms, 7);

  EXPECT_THROW(fault::parse_fault_spec("explode"), Error);
  EXPECT_THROW(fault::parse_fault_spec("throw:skip=x"), Error);
  EXPECT_THROW(fault::parse_fault_spec("throw:bogus=1"), Error);
  EXPECT_THROW(fault::arm_from_spec("missing-equals"), Error);
}

TEST_F(FaultPointTest, CatalogNamesTheWiredSites) {
  const auto& cat = fault::catalog();
  ASSERT_FALSE(cat.empty());
  bool found = false;
  for (const auto& p : cat) {
    if (std::string(p.name) == "ckpt.writeback.pre_rename") found = true;
  }
  EXPECT_TRUE(found);
}

// --- mutations --------------------------------------------------------------

TEST(MutationTest, TextFormatRoundTrips) {
  SplitMix64 rng(11);
  for (int i = 0; i < 200; ++i) {
    const Mutation m = random_mutation(rng, 4096);
    EXPECT_EQ(parse_mutation(mutation_str(m)), m);
  }
}

TEST(MutationTest, ParseRejectsGarbage) {
  EXPECT_THROW(parse_mutation(""), Error);
  EXPECT_THROW(parse_mutation("teleport 1 2 3"), Error);
  EXPECT_THROW(parse_mutation("flip 1 2"), Error);
  EXPECT_THROW(parse_mutation("flip 1 2 3 4"), Error);
}

TEST(MutationTest, ApplyIsTotalOnAnyBuffer) {
  // No mutation may throw or read out of bounds, whatever the buffer size.
  SplitMix64 rng(5);
  for (const std::size_t size : {std::size_t{0}, std::size_t{1}, std::size_t{3},
                                 std::size_t{64}, std::size_t{4096}}) {
    std::string buf(size, 'x');
    for (int i = 0; i < 300; ++i) apply_mutation(buf, random_mutation(rng, buf.size()));
  }
}

TEST(MutationTest, OffsetsWrapModuloCurrentSize) {
  std::string buf = "abcdef";
  apply_mutation(buf, {MutOp::SetByte, /*a=*/6, /*b=*/'Z', 0});  // 6 % 6 == 0
  EXPECT_EQ(buf, "Zbcdef");
  apply_mutation(buf, {MutOp::Truncate, /*a=*/8, 0, 0});  // 8 % 6 == 2
  EXPECT_EQ(buf, "Zb");
}

// --- corpus -----------------------------------------------------------------

CorpusEntry sample_entry() {
  CorpusEntry e;
  e.app = "EP";
  e.kind = "mctb";
  e.codec = "rle+lz";
  e.scale = 2;
  e.seed = 77;
  e.mutations = {{MutOp::FlipBit, 123, 5, 0}, {MutOp::Splice, 10, 200, 32}};
  e.fault = "ckpt.writeback.pre_rename=kill:skip=1";
  e.outcome = "clean-error";
  e.detail = "some: detail; text";
  return e;
}

TEST(CorpusTest, EntryRoundTripsThroughText) {
  const CorpusEntry e = sample_entry();
  EXPECT_EQ(corpus_entry_from_string(corpus_entry_to_string(e)), e);
}

TEST(CorpusTest, RejectsMalformedEntries) {
  EXPECT_THROW(corpus_entry_from_string(""), Error);
  EXPECT_THROW(corpus_entry_from_string("NOTACFZ\napp: IS\n"), Error);
  EXPECT_THROW(corpus_entry_from_string("ACFZ1\nno separator line\n"), Error);
  EXPECT_THROW(corpus_entry_from_string("ACFZ1\nbogus: value\n"), Error);
  EXPECT_THROW(corpus_entry_from_string("ACFZ1\nscale: twelve\n"), Error);
  EXPECT_THROW(corpus_entry_from_string("ACFZ1\ncodec: raw\n"), Error);  // missing app/kind
  EXPECT_THROW(corpus_entry_from_string("ACFZ1\napp: IS\nkind: mctb\nmutation: flip 1\n"),
               Error);
}

TEST(CorpusTest, SaveLoadListRoundTrip) {
  TempDir dir("ac-corpus-test");
  CorpusEntry a = sample_entry();
  CorpusEntry b = sample_entry();
  b.app = "IS";
  b.mutations.pop_back();
  const std::string pa = save_corpus_entry(a, dir.path.string());
  const std::string pb = save_corpus_entry(b, dir.path.string());
  EXPECT_NE(pa, pb);
  EXPECT_EQ(load_corpus_entry(pa), a);
  EXPECT_EQ(load_corpus_entry(pb), b);
  const auto files = list_corpus(dir.path.string());
  ASSERT_EQ(files.size(), 2u);
  EXPECT_LT(files[0], files[1]);  // sorted: deterministic replay order
}

TEST(CorpusTest, OutcomeVocabularyRoundTrips) {
  for (const Outcome o : {Outcome::CleanError, Outcome::Benign, Outcome::Recovered,
                          Outcome::SilentCorruption, Outcome::Crash, Outcome::Hang}) {
    EXPECT_EQ(parse_outcome(outcome_name(o)), o);
  }
  EXPECT_THROW(parse_outcome("meltdown"), Error);
  EXPECT_TRUE(outcome_is_failure(Outcome::SilentCorruption));
  EXPECT_TRUE(outcome_is_failure(Outcome::Crash));
  EXPECT_TRUE(outcome_is_failure(Outcome::Hang));
  EXPECT_FALSE(outcome_is_failure(Outcome::CleanError));
  EXPECT_FALSE(outcome_is_failure(Outcome::Recovered));
}

// --- campaign ---------------------------------------------------------------

TEST(FuzzCampaignTest, CaseLogIsDeterministicPerSeed) {
  CampaignOptions opts;
  opts.seed = 99;
  opts.max_cases = 10;
  opts.kinds = {"mctb", "ckpt", "frame"};
  opts.shrink = false;
  const CampaignResult a = run_campaign(opts);
  const CampaignResult b = run_campaign(opts);
  EXPECT_EQ(a.cases, 10);
  EXPECT_EQ(a.case_log, b.case_log);
}

TEST(FuzzCampaignTest, IntactChecksComeUpClean) {
  CampaignOptions opts;
  opts.seed = 42;
  opts.max_cases = 24;
  const CampaignResult res = run_campaign(opts);
  EXPECT_EQ(res.cases, 24);
  EXPECT_TRUE(res.ok()) << "silent=" << res.silent << " crashes=" << res.crashes
                        << " hangs=" << res.hangs;
  EXPECT_TRUE(res.findings.empty());
}

TEST(FuzzCampaignTest, KillAtPreRenameRecoversBitIdentically) {
  // The atomic-rotation guarantee: a fail-stop between the temp log's
  // fdatasync and its rename (here the first commit's L2 rotation) must
  // leave the previous durable log intact, and a fresh engine must restart
  // to the failure-free output.
  CorpusEntry e;
  e.app = "IS";
  e.kind = "crash";
  e.codec = "raw";
  e.fault = "ckpt.writeback.pre_rename=kill:skip=1";
  const CaseResult r = execute_entry(e, {});
  EXPECT_EQ(r.outcome, Outcome::Recovered) << r.detail;
}

TEST(FuzzCampaignTest, KillBeforeAppendSyncRecoversTheNewRecord) {
  // Every level writes through one append, three per commit at L3: skip=3
  // kills the second commit's L1 append between its write and fdatasync.
  // Process death keeps the written bytes, so the new record comes back.
  CorpusEntry e;
  e.app = "IS";
  e.kind = "crash";
  e.codec = "rle";
  e.fault = "ckpt.writeback.sync=kill:skip=3";
  const CaseResult r = execute_entry(e, {});
  EXPECT_EQ(r.outcome, Outcome::Recovered) << r.detail;
  EXPECT_NE(r.detail.find("recovered iteration 2"), std::string::npos) << r.detail;
}

TEST(FuzzCampaignTest, FaultThatNeverFiresIsBenign) {
  // Only the first commit of the killed run renames (its L1 and L2 log
  // rotations), so a kill after the fifth rename never happens: the case
  // tests the restart, not the fault, and must not claim a recovery.
  CorpusEntry e;
  e.app = "IS";
  e.kind = "crash";
  e.codec = "rle";
  e.fault = "ckpt.writeback.post_rename=kill:skip=4";
  const CaseResult r = execute_entry(e, {});
  EXPECT_EQ(r.outcome, Outcome::Benign) << r.detail;
  EXPECT_NE(r.detail.find("fault never fired"), std::string::npos) << r.detail;
}

TEST(FuzzCampaignTest, InjectedRecoveryFaultFallsBackToPartner) {
  // A throwing local read during recovery must fall back to the L2 replica,
  // not lose the checkpoint.
  CorpusEntry e;
  e.app = "IS";
  e.kind = "crash";
  e.codec = "raw";
  e.fault = "ckpt.recover.local=throw";
  const CaseResult r = execute_entry(e, {});
  EXPECT_EQ(r.outcome, Outcome::Recovered) << r.detail;
}

TEST(FuzzCampaignTest, HangingCasesAreKilledAndClassified) {
  CorpusEntry e;
  e.app = "IS";
  e.kind = "mctb";
  e.codec = "raw";
  e.fault = "mctb.decode.section=delay:ms=5000";
  CampaignOptions opts;
  opts.case_timeout_ms = 200;
  const CaseResult r = execute_entry(e, opts);
  EXPECT_EQ(r.outcome, Outcome::Hang) << r.detail;
}

TEST(FuzzCampaignTest, FindsPlantedBugShrinksAndReplaysBothWays) {
  // The campaign's search-power self-test: weaken the MCTB section-CRC check
  // and the campaign must surface silent corruption, shrink it to a minimal
  // reproducer, and persist a corpus entry; restoring the check must turn the
  // same entry into a typed clean error.
  fault::set_weakened("mctb.section_crc");
  TempDir corpus("ac-fuzz-findings");
  CampaignOptions opts;
  opts.seed = 3;
  opts.max_cases = 30;
  opts.kinds = {"mctb"};
  opts.codecs = {"raw"};
  opts.corpus_dir = corpus.path.string();
  const CampaignResult res = run_campaign(opts);

  ASSERT_FALSE(res.findings.empty()) << "weakened CRC check was not detected";
  const Finding& f = res.findings.front();
  EXPECT_EQ(f.entry.outcome, "silent-corruption");
  EXPECT_EQ(f.entry.mutations.size(), 1u) << "finding was not shrunk to one mutation";
  ASSERT_FALSE(f.corpus_path.empty());

  // The persisted entry replays to the same verdict while the bug is planted.
  const CorpusEntry replayed = load_corpus_entry(f.corpus_path);
  EXPECT_EQ(execute_entry(replayed, opts).outcome, Outcome::SilentCorruption);

  // With the check restored the very same bytes are rejected loudly.
  fault::set_weakened("");
  const CaseResult intact = execute_entry(replayed, opts);
  EXPECT_EQ(intact.outcome, Outcome::CleanError) << intact.detail;
  EXPECT_NE(intact.detail.find("CRC"), std::string::npos) << intact.detail;
}

TEST(FuzzCampaignTest, RejectsUnknownKinds) {
  CampaignOptions opts;
  opts.kinds = {"voodoo"};
  EXPECT_THROW(run_campaign(opts), Error);
  CorpusEntry e;
  e.kind = "voodoo";
  EXPECT_THROW(execute_entry(e, {}), Error);
}

}  // namespace
