// Durability-layer tests: crash-and-resume determinism of the write-ahead
// outcome journal (kill points including multi-threaded retirement orders,
// torn and corrupted records), graceful shutdown via the cooperative stop
// flag and the wall-clock deadline, and worker fault isolation (the
// ISSRTL_FAIL_SITE throw hook exercising the retry → kEngineError path at
// every stage of a site). Shutdown and isolation run on both backends.
//
// The load-bearing claim everywhere: a campaign interrupted at ANY point
// and resumed under ANY thread count merges into a
// result bit-identical — outcomes, latencies, fault::outcome_hash — to an
// uninterrupted run, because per-site records depend only on the site and
// the golden run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/journal.hpp"
#include "engine/rtl_backend.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

namespace fs = std::filesystem;

using fault::CampaignConfig;
using fault::CampaignResult;
using fault::Outcome;
using rtl::FaultModel;

isa::Program small_workload() {
  return workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
}

CampaignConfig small_cfg() {
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 24;
  cfg.models = {FaultModel::kStuckAt1};
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  return cfg;
}

/// Stuck-at sites come first and are never cut off by convergence, so a
/// fail-site hook on one of them reaches every stage; the bit-flips add
/// convergence-cutoff sites to the mix.
fault::IssCampaignConfig iss_cfg(std::size_t samples = 24) {
  fault::IssCampaignConfig cfg;
  cfg.samples = samples;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  return cfg;
}

/// The ISSRTL_FAIL_SITE stage tags: none (the ":arm" default) plus every
/// explicit stage of a site.
constexpr const char* kStageTags[] = {"", ":restore", ":arm", ":step",
                                      ":classify"};

/// Fresh per-test scratch directory under the gtest temp root.
std::string scratch_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("issrtl_journal_" + std::string(info->name()) + "_" +
                        tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

/// The single journal file a campaign left under `dir`.
fs::path journal_file_in(const std::string& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "more than one journal file in " << dir;
    found = entry.path();
  }
  EXPECT_FALSE(found.empty()) << "no journal file in " << dir;
  return found;
}

std::vector<std::string> read_lines(const fs::path& file) {
  std::ifstream in(file);
  EXPECT_TRUE(in.good()) << file;
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void write_file(const fs::path& file, const std::string& content) {
  std::ofstream out(file, std::ios::trunc);
  ASSERT_TRUE(out.good()) << file;
  out << content;
}

std::string join_lines(const std::vector<std::string>& lines,
                       std::size_t count) {
  std::string out;
  for (std::size_t i = 0; i < count && i < lines.size(); ++i) {
    out += lines[i];
    out += '\n';
  }
  return out;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(fault::outcome_hash(a), fault::outcome_hash(b));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].site.node, b.runs[i].site.node) << i;
    EXPECT_EQ(a.runs[i].site.bit, b.runs[i].site.bit) << i;
    EXPECT_EQ(a.runs[i].site.inject_cycle, b.runs[i].site.inject_cycle) << i;
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    EXPECT_EQ(a.runs[i].latency_cycles, b.runs[i].latency_cycles) << i;
    EXPECT_EQ(a.runs[i].error, b.runs[i].error) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].hangs, b.per_model[m].hangs);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_EQ(a.per_model[m].silent, b.per_model[m].silent);
    EXPECT_EQ(a.per_model[m].errors, b.per_model[m].errors);
    EXPECT_EQ(a.per_model[m].max_latency, b.per_model[m].max_latency);
    EXPECT_DOUBLE_EQ(a.per_model[m].mean_latency, b.per_model[m].mean_latency);
  }
}

void expect_identical(const fault::IssCampaignResult& a,
                      const fault::IssCampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const fault::IssInjectionResult& x = a.runs[i];
    const fault::IssInjectionResult& y = b.runs[i];
    EXPECT_EQ(x.fault.phys_reg, y.fault.phys_reg) << i;
    EXPECT_EQ(x.fault.bit, y.fault.bit) << i;
    EXPECT_EQ(x.fault.inject_at_instr, y.fault.inject_at_instr) << i;
    EXPECT_EQ(x.failure, y.failure) << i;
    EXPECT_EQ(x.latent, y.latent) << i;
    EXPECT_EQ(x.latency_instr, y.latency_instr) << i;
    EXPECT_EQ(x.engine_error, y.engine_error) << i;
    EXPECT_EQ(x.error, y.error) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_EQ(a.per_model[m].errors, b.per_model[m].errors);
  }
}

EngineOptions journal_opts(const std::string& dir, bool resume,
                           unsigned threads = 1) {
  EngineOptions opts;
  opts.threads = threads;
  opts.journal_dir = dir;
  opts.resume = resume;
  return opts;
}

// ---- journal unit behaviour -------------------------------------------------

TEST(Journal, AppendAndRecoverRoundTrip) {
  const std::string dir = scratch_dir("roundtrip");
  const u64 key = 0x1234abcd5678ef01ull;
  {
    OutcomeJournal j(dir, key, 5, /*resume=*/false);
    for (std::size_t i = 0; i < 4; ++i) {
      JournalEntry e;
      e.index = i;
      e.site_key = 100 + i;
      e.outcome = static_cast<u32>(i % 3);
      e.latency = 1000 * i;
      e.halt = static_cast<u32>(i);
      // Exercise the field escaping: errors may hold spaces and newlines.
      e.error = i == 2 ? "boom: lane 7\nsecond line %x" : "";
      j.append(e);
    }
  }
  OutcomeJournal j(dir, key, 5, /*resume=*/true);
  EXPECT_EQ(j.dropped_records(), 0u);
  ASSERT_EQ(j.recovered().size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    const JournalEntry& e = j.recovered()[i];
    EXPECT_EQ(e.index, i);
    EXPECT_EQ(e.site_key, 100 + i);
    EXPECT_EQ(e.outcome, static_cast<u32>(i % 3));
    EXPECT_EQ(e.latency, 1000 * i);
    EXPECT_EQ(e.halt, static_cast<u32>(i));
    EXPECT_EQ(e.error, i == 2 ? "boom: lane 7\nsecond line %x" : "");
  }
}

TEST(Journal, RecoveryDropsTornTailAndCompacts) {
  const std::string dir = scratch_dir("torn");
  const u64 key = 42;
  {
    OutcomeJournal j(dir, key, 8, false);
    for (std::size_t i = 0; i < 6; ++i) {
      JournalEntry e;
      e.index = i;
      e.site_key = i;
      j.append(e);
    }
  }
  const fs::path file = journal_file_in(dir);
  const auto lines = read_lines(file);
  ASSERT_EQ(lines.size(), 7u);  // header + 6 records
  // Crash mid-append: keep 4 full records plus half of the fifth.
  write_file(file, join_lines(lines, 5) + lines[5].substr(0, 20));
  OutcomeJournal j(dir, key, 8, true);
  EXPECT_EQ(j.recovered().size(), 4u);
  EXPECT_GE(j.dropped_records(), 1u);
  // The rewrite compacted the file back to the valid prefix.
  EXPECT_EQ(read_lines(file).size(), 5u);
}

TEST(Journal, NonResumeOpenTruncatesExistingFile) {
  const std::string dir = scratch_dir("truncate");
  const u64 key = 7;
  {
    OutcomeJournal j(dir, key, 4, false);
    JournalEntry e;
    j.append(e);
  }
  OutcomeJournal j(dir, key, 4, /*resume=*/false);
  EXPECT_TRUE(j.recovered().empty());
  EXPECT_EQ(read_lines(journal_file_in(dir)).size(), 1u);  // header only
}

TEST(Journal, DifferentCampaignKeysUseDifferentFiles) {
  const std::string dir = scratch_dir("keys");
  OutcomeJournal a(dir, 1, 4, false);
  OutcomeJournal b(dir, 2, 4, false);
  EXPECT_NE(a.path(), b.path());
}

// ---- crash-and-resume determinism -------------------------------------------

// The acceptance matrix: a campaign killed at several journal cut points —
// including cuts of a multi-threaded run's interleaved retirement order —
// and resumed at every thread count must be bit-identical to the
// uninterrupted run.
TEST(JournalResume, KillPointsTimesScheduleMatrix) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();

  // Uninterrupted reference, serial scheduler.
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, journal_opts("", false));
  ASSERT_EQ(ref.runs.size(), 24u);
  EXPECT_FALSE(ref.truncated);

  // Produce a complete journal with 3 threads: the file's record order is
  // the shards' interleaved retirement order, so a prefix of it is exactly
  // what a crash mid-campaign leaves.
  const std::string full_dir = scratch_dir("full");
  const CampaignResult journaled =
      run_rtl_campaign(prog, cfg, {}, journal_opts(full_dir, false, 3));
  expect_identical(ref, journaled);
  const fs::path full_file = journal_file_in(full_dir);
  const auto lines = read_lines(full_file);
  ASSERT_EQ(lines.size(), 25u);  // header + 24 records

  struct Cut {
    const char* tag;
    std::size_t records;  ///< intact records kept
    bool torn;            ///< append half of the next record, no newline
  };
  // Kill points: before any site retired, mid-campaign, and a torn append
  // (the crash window between fwrite and the next fflush).
  const Cut cuts[] = {{"header", 0, false}, {"mid", 8, false}, {"torn", 16, true}};

  for (const Cut& cut : cuts) {
    std::string content = join_lines(lines, 1 + cut.records);
    if (cut.torn) content += lines[1 + cut.records].substr(0, 30);
    for (const unsigned threads : {1u, 3u}) {
      const std::string tag =
          std::string(cut.tag) + "_t" + std::to_string(threads);
      const std::string dir = scratch_dir(tag);
      write_file(fs::path(dir) / full_file.filename(), content);
      const CampaignResult r =
          run_rtl_campaign(prog, cfg, {}, journal_opts(dir, true, threads));
      SCOPED_TRACE(tag);
      expect_identical(ref, r);
      EXPECT_FALSE(r.truncated);
      EXPECT_EQ(r.completed_sites, 24u);
      EXPECT_EQ(r.replay.journal_hits, cut.records);
      if (cut.torn) {
        EXPECT_GE(r.replay.journal_dropped, 1u);
      }
      // The resumed run's journal is complete again: a second resume
      // imports everything.
      const CampaignResult again =
          run_rtl_campaign(prog, cfg, {}, journal_opts(dir, true));
      expect_identical(ref, again);
      EXPECT_EQ(again.replay.journal_hits, 24u);
    }
  }
}

TEST(JournalResume, CorruptedRecordIsReSimulatedNotImported) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, {});

  const std::string dir = scratch_dir("corrupt");
  run_rtl_campaign(prog, cfg, {}, journal_opts(dir, false));
  const fs::path file = journal_file_in(dir);
  auto lines = read_lines(file);
  ASSERT_EQ(lines.size(), 25u);
  // Flip one byte inside record 10's site key: the hash chain must break
  // there, and recovery must drop that record AND everything after it —
  // once the chain is broken nothing downstream is verifiable.
  std::string& line = lines[11];
  const std::size_t at = line.find(' ', 2) + 1;  // first site-key character
  line[at] = line[at] == '0' ? '1' : '0';
  write_file(file, join_lines(lines, lines.size()));

  const CampaignResult r =
      run_rtl_campaign(prog, cfg, {}, journal_opts(dir, true));
  expect_identical(ref, r);
  EXPECT_EQ(r.replay.journal_hits, 10u);
  EXPECT_GE(r.replay.journal_dropped, 14u);
}

TEST(JournalResume, FreshRunTruncatesStaleJournal) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const std::string dir = scratch_dir("stale");
  run_rtl_campaign(prog, cfg, {}, journal_opts(dir, false));
  // Same journal dir, resume NOT requested: the stale records must not be
  // imported.
  const CampaignResult r =
      run_rtl_campaign(prog, cfg, {}, journal_opts(dir, false));
  EXPECT_EQ(r.replay.journal_hits, 0u);
  EXPECT_EQ(r.completed_sites, 24u);
}

// ---- graceful shutdown ------------------------------------------------------

/// Stop a journaled campaign once three sites are done, then resume it at
/// three threads: the cut is a valid partial result and the resumed run
/// merges bit-identically. `run(opts)` runs one backend's campaign.
template <class Run>
void stop_then_resume(const std::string& dir, const Run& run) {
  const auto ref = run(EngineOptions{});

  std::atomic<bool> stop{false};
  EngineOptions opts = journal_opts(dir, false);
  opts.stop = &stop;
  opts.progress_stride = 1;
  opts.on_progress = [&stop](const EngineProgress& p) {
    if (p.completed >= 3) stop.store(true, std::memory_order_relaxed);
  };
  const auto cut = run(opts);
  EXPECT_TRUE(cut.truncated);
  EXPECT_LT(cut.completed_sites, cut.total_sites);
  EXPECT_GE(cut.completed_sites, 3u);
  EXPECT_EQ(cut.total_sites, ref.runs.size());
  // Truncated results hold the completed records only, each bit-identical
  // to its uninterrupted counterpart... and the stats cover exactly them.
  std::size_t runs = 0;
  for (const auto& s : cut.per_model) runs += s.runs;
  EXPECT_EQ(runs, cut.completed_sites);

  // The journal holds what completed; a resumed run finishes the rest and
  // merges bit-identically.
  const auto resumed = run(journal_opts(dir, true, 3));
  expect_identical(ref, resumed);
  EXPECT_FALSE(resumed.truncated);
  EXPECT_EQ(resumed.replay.journal_hits, cut.completed_sites);
}

TEST(Shutdown, StopFlagTruncatesThenResumeCompletes) {
  const auto prog = small_workload();
  {
    SCOPED_TRACE("rtl");
    stop_then_resume(scratch_dir("stop_rtl"), [&](const EngineOptions& o) {
      return run_rtl_campaign(prog, small_cfg(), {}, o);
    });
  }
  {
    SCOPED_TRACE("iss");
    stop_then_resume(scratch_dir("stop_iss"), [&](const EngineOptions& o) {
      return run_iss_campaign_engine(prog, iss_cfg(), o);
    });
  }
}

TEST(Shutdown, DeadlineTruncates) {
  const auto prog = small_workload();
  EngineOptions opts;
  opts.threads = 1;
  opts.deadline_ms = 1;  // expires long before 24 RTL sites can finish
  const CampaignResult r = run_rtl_campaign(prog, small_cfg(), {}, opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.completed_sites, r.total_sites);
  EXPECT_EQ(r.total_sites, 24u);
  // ISS sites are orders of magnitude cheaper: give it thousands.
  const auto ri = run_iss_campaign_engine(prog, iss_cfg(2000), opts);
  EXPECT_TRUE(ri.truncated);
  EXPECT_LT(ri.completed_sites, ri.total_sites);
  EXPECT_EQ(ri.total_sites, 4000u);
}

TEST(Shutdown, SignalStopFlagIsSticky) {
  // install_signal_stop is exercised end-to-end by the CLI; here just pin
  // the flag plumbing: signal_stop_flag() is process-global and resettable.
  std::atomic<bool>& flag = signal_stop_flag();
  flag.store(false);
  EXPECT_FALSE(flag.load());
  flag.store(true);
  EXPECT_TRUE(flag.load());
  flag.store(false);
}

// ---- worker fault isolation -------------------------------------------------

// A persistent throw at any stage of a site classifies that site as an
// engine error after one retry; every other site is untouched.
TEST(FaultIsolation, PersistentThrowClassifiesEngineErrorThatSiteOnly) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, {});

  for (const char* tag : kStageTags) {
    SCOPED_TRACE(std::string("3") + tag);
    EngineOptions opts;
    opts.threads = 1;
    opts.fail_sites = std::string("3") + tag;
    const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
    ASSERT_EQ(r.runs.size(), ref.runs.size());
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
      if (i == 3) {
        EXPECT_EQ(r.runs[i].outcome, Outcome::kEngineError);
        EXPECT_NE(r.runs[i].error.find("ISSRTL_FAIL_SITE"), std::string::npos)
            << r.runs[i].error;
      } else {
        EXPECT_EQ(r.runs[i].outcome, ref.runs[i].outcome) << i;
        EXPECT_EQ(r.runs[i].latency_cycles, ref.runs[i].latency_cycles) << i;
      }
    }
    EXPECT_EQ(r.replay.sites_retried, 1u);
    EXPECT_EQ(r.replay.sites_engine_error, 1u);
    EXPECT_EQ(r.per_model[0].errors, 1u);
    EXPECT_FALSE(r.truncated);
    // kEngineError is not a verdict about the fault: pf() excludes it from
    // the denominator instead of diluting the failure rate.
    EXPECT_DOUBLE_EQ(r.per_model[0].pf(),
                     static_cast<double>(r.per_model[0].failures) / 23.0);
  }
}

TEST(FaultIsolation, TransientThrowRetriesToIdenticalResult) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, {});

  for (const char* tag : kStageTags) {
    SCOPED_TRACE(std::string("5:once") + tag);
    EngineOptions opts;
    opts.threads = 1;
    opts.fail_sites = std::string("5:once") + tag;
    const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
    expect_identical(ref, r);
    EXPECT_EQ(r.replay.sites_retried, 1u);
    EXPECT_EQ(r.replay.sites_engine_error, 0u);
  }
}

// Several throwing sites in one shard, persistent and transient mixed, at
// one and three threads: each is contained to its own site.
TEST(FaultIsolation, MultipleThrowsContainedPerSite) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, {});

  for (const unsigned threads : {1u, 3u}) {
    for (const char* spec : {"3", "3:once", "0,9:once,17"}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.fail_sites = spec;
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      SCOPED_TRACE(std::string(spec) + " threads=" + std::to_string(threads));
      ASSERT_EQ(r.runs.size(), ref.runs.size());
      const FailSiteSpec parsed = parse_fail_sites(spec);
      std::size_t expect_errors = 0;
      for (std::size_t i = 0; i < r.runs.size(); ++i) {
        const FailSiteSpec::Entry* e = parsed.find(i);
        if (e != nullptr && !e->once) {
          ++expect_errors;
          EXPECT_EQ(r.runs[i].outcome, Outcome::kEngineError) << i;
        } else {
          EXPECT_EQ(r.runs[i].outcome, ref.runs[i].outcome) << i;
          EXPECT_EQ(r.runs[i].latency_cycles, ref.runs[i].latency_cycles) << i;
        }
      }
      EXPECT_EQ(r.replay.sites_retried, parsed.sites.size());
      EXPECT_EQ(r.replay.sites_engine_error, expect_errors);
    }
  }
}

TEST(FaultIsolation, EngineErrorSitesJournalAndResume) {
  // kEngineError records round-trip through the journal like any other
  // outcome — a resume must not retry them behind the user's back.
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const std::string dir = scratch_dir("journal");
  EngineOptions opts = journal_opts(dir, false);
  opts.fail_sites = "3";
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, opts);
  EXPECT_EQ(a.replay.sites_engine_error, 1u);

  const CampaignResult b =
      run_rtl_campaign(prog, cfg, {}, journal_opts(dir, true));
  EXPECT_EQ(b.replay.journal_hits, 24u);
  EXPECT_EQ(b.runs[3].outcome, Outcome::kEngineError);
  EXPECT_EQ(b.runs[3].error, a.runs[3].error);
  expect_identical(a, b);
}

// ---- ISS backend ------------------------------------------------------------

TEST(IssJournal, ResumeMergesBitIdentically) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg(40);
  const auto ref = run_iss_campaign_engine(prog, cfg, {});

  const std::string dir = scratch_dir("iss");
  run_iss_campaign_engine(prog, cfg, journal_opts(dir, false));
  const fs::path file = journal_file_in(dir);
  const auto lines = read_lines(file);
  ASSERT_EQ(lines.size(), 1u + ref.runs.size());
  // Kill mid-campaign: keep half the records.
  write_file(file, join_lines(lines, 1 + ref.runs.size() / 2));

  const auto r =
      run_iss_campaign_engine(prog, cfg, journal_opts(dir, true, 3));
  ASSERT_EQ(r.runs.size(), ref.runs.size());
  for (std::size_t i = 0; i < r.runs.size(); ++i) {
    EXPECT_EQ(r.runs[i].failure, ref.runs[i].failure) << i;
    EXPECT_EQ(r.runs[i].latent, ref.runs[i].latent) << i;
    EXPECT_EQ(r.runs[i].latency_instr, ref.runs[i].latency_instr) << i;
    EXPECT_FALSE(r.runs[i].engine_error) << i;
  }
  EXPECT_EQ(r.replay.journal_hits, ref.runs.size() / 2);
  ASSERT_EQ(r.per_model.size(), ref.per_model.size());
  for (std::size_t m = 0; m < r.per_model.size(); ++m) {
    EXPECT_EQ(r.per_model[m].failures, ref.per_model[m].failures);
    EXPECT_EQ(r.per_model[m].latent, ref.per_model[m].latent);
    EXPECT_DOUBLE_EQ(r.per_model[m].pf(), ref.per_model[m].pf());
  }
}

// One persistent and one transient throw at every stage: the persistent
// site classifies as an engine error, the transient one retries to its
// reference record.
TEST(IssJournal, FailSiteIsolatesOneSite) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg(20);
  const auto ref = run_iss_campaign_engine(prog, cfg, {});

  for (const char* tag : kStageTags) {
    const std::string spec =
        std::string("2") + tag + ",11:once" + tag;
    SCOPED_TRACE(spec);
    EngineOptions opts;
    opts.threads = 1;
    opts.fail_sites = spec;
    const auto r = run_iss_campaign_engine(prog, cfg, opts);
    ASSERT_EQ(r.runs.size(), ref.runs.size());
    for (std::size_t i = 0; i < r.runs.size(); ++i) {
      if (i == 2) {
        EXPECT_TRUE(r.runs[i].engine_error);
        EXPECT_NE(r.runs[i].error.find("ISSRTL_FAIL_SITE"), std::string::npos);
      } else {
        EXPECT_FALSE(r.runs[i].engine_error) << i;
        EXPECT_EQ(r.runs[i].failure, ref.runs[i].failure) << i;
        EXPECT_EQ(r.runs[i].latent, ref.runs[i].latent) << i;
        EXPECT_EQ(r.runs[i].latency_instr, ref.runs[i].latency_instr) << i;
      }
    }
    EXPECT_EQ(r.replay.sites_retried, 2u);
    EXPECT_EQ(r.replay.sites_engine_error, 1u);
    EXPECT_EQ(r.per_model[0].errors, 1u);
  }
}

}  // namespace
}  // namespace issrtl::engine
