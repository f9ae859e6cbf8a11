// Staged-pipeline tests (engine/pipeline.hpp): the restore -> arm/step ->
// classify driver must be an implementation detail of *scheduling*, never
// of *results*. The ISS backend is the one backend with a staged driver, so
// the staged cases run ISS campaigns. The load-bearing claim: every
// per-record field is bit-identical pipeline on or off, at every thread
// count x prefetch depth, across journal-resume cuts that cross the
// pipeline boundary, under graceful truncation, and with ISSRTL_FAIL_SITE
// throws landing on each stage. RTL campaigns run the synchronous loop
// whatever the flag says; their fail-site cases close the file.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/pipeline.hpp"
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

/// Stuck-at sites are never pre-classified (no convergence cut-off), so
/// every one of them crosses the classify stage; bit-flips add the
/// pre-classified path.
fault::IssCampaignConfig iss_cfg(std::size_t samples = 24) {
  fault::IssCampaignConfig cfg;
  cfg.samples = samples;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  return cfg;
}

EngineOptions pipe_opts(bool pipeline, unsigned threads = 1) {
  EngineOptions opts;
  opts.pipeline = pipeline;
  opts.threads = threads;
  return opts;
}

void expect_identical(const fault::IssCampaignResult& a,
                      const fault::IssCampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const fault::IssInjectionResult& x = a.runs[i];
    const fault::IssInjectionResult& y = b.runs[i];
    EXPECT_EQ(x.fault.phys_reg, y.fault.phys_reg) << i;
    EXPECT_EQ(x.fault.bit, y.fault.bit) << i;
    EXPECT_EQ(x.fault.model, y.fault.model) << i;
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

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  EXPECT_EQ(fault::outcome_hash(a), fault::outcome_hash(b));
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].site.node, b.runs[i].site.node) << i;
    EXPECT_EQ(a.runs[i].site.inject_cycle, b.runs[i].site.inject_cycle) << i;
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
    EXPECT_EQ(a.runs[i].latency_cycles, b.runs[i].latency_cycles) << i;
    EXPECT_EQ(a.runs[i].error, b.runs[i].error) << i;
  }
}

std::string scratch_dir(const std::string& tag) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("issrtl_pipeline_" + std::string(info->name()) + "_" +
                        tag);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

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

/// Cut a journal file down to its header plus the first `records` records.
void truncate_journal(const fs::path& file, std::size_t records) {
  const auto lines = read_lines(file);
  ASSERT_GE(lines.size(), 1 + records);
  std::string kept;
  for (std::size_t i = 0; i < 1 + records; ++i) {
    kept += lines[i];
    kept += '\n';
  }
  write_file(file, kept);
}

// ---- the bounded queue underneath every stage boundary ----------------------

TEST(BoundedQueue, FifoCapacityAndClose) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_EQ(q.try_pop(), 1);  // FIFO across the capacity boundary
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.pop(), 2);
  q.close();
  EXPECT_FALSE(q.push(4));    // closed: producers bounce...
  EXPECT_EQ(q.pop(), 3);      // ...but queued items still drain
  EXPECT_EQ(q.pop(), std::nullopt);
  EXPECT_EQ(q.try_pop(), std::nullopt);
  q.close();                  // idempotent
  EXPECT_EQ(q.peak_depth(), 2u);
}

TEST(BoundedQueue, PushBlocksUntilPopAndCountsStalls) {
  BoundedQueue<int> q(1);
  EXPECT_TRUE(q.push(1));
  std::thread t([&] {
    EXPECT_TRUE(q.push(2));  // blocks: capacity 1, slot occupied
  });
  // Don't pop until the producer has registered its stall, so the assert
  // below is deterministic rather than a race against thread startup.
  while (q.push_stalls() == 0) std::this_thread::yield();
  EXPECT_EQ(q.pop(), 1);
  EXPECT_EQ(q.pop(), 2);
  t.join();
  EXPECT_EQ(q.push_stalls(), 1u);
}

// ---- suffix-compare equivalence ---------------------------------------------

TEST(SuffixCompare, MatchesFullTraceCompareSemantics) {
  std::vector<BusRecord> golden(4);
  for (std::size_t i = 0; i < golden.size(); ++i) {
    golden[i].addr = static_cast<u32>(0x100 + 4 * i);
    golden[i].data = i;
    golden[i].cycle = 10 * (i + 1);
  }
  // Identical suffix -> no divergence.
  EXPECT_FALSE(
      compare_suffix_writes(golden, 2, {golden[2], golden[3]}).diverged);
  // Payload mismatch at absolute index 3.
  std::vector<BusRecord> bad = {golden[2], golden[3]};
  bad[1].data ^= 1;
  const TraceDivergence d = compare_suffix_writes(golden, 2, bad);
  EXPECT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 3u);
  EXPECT_EQ(d.cycle, bad[1].cycle);
  // Missing writes: divergence at the first absent index, stamped with the
  // faulty run's last write cycle.
  const TraceDivergence miss = compare_suffix_writes(golden, 2, {golden[2]});
  EXPECT_TRUE(miss.diverged);
  EXPECT_EQ(miss.index, 3u);
  EXPECT_EQ(miss.cycle, golden[2].cycle);
  // Extra write past the golden end.
  BusRecord extra = golden[3];
  extra.cycle = 99;
  const TraceDivergence ex =
      compare_suffix_writes(golden, 3, {golden[3], extra});
  EXPECT_TRUE(ex.diverged);
  EXPECT_EQ(ex.index, 4u);
  EXPECT_EQ(ex.cycle, 99u);
}

// ---- determinism: pipeline on == pipeline off -------------------------------

TEST(Pipeline, IssBitIdenticalOnOffAcrossThreads) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto ref = run_iss_campaign_engine(prog, cfg, pipe_opts(false));
  for (const unsigned threads : {1u, 3u}) {
    for (const bool pipeline : {true, false}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " pipeline=" + std::to_string(pipeline));
      expect_identical(
          ref, run_iss_campaign_engine(prog, cfg, pipe_opts(pipeline, threads)));
    }
  }
}

TEST(Pipeline, PrefetchDepthIsOutcomeNeutral) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto ref = run_iss_campaign_engine(prog, cfg, pipe_opts(false));
  for (const std::size_t depth : {std::size_t{1}, std::size_t{8}}) {
    EngineOptions opts = pipe_opts(true, 3);
    opts.prefetch_depth = depth;
    SCOPED_TRACE(depth);
    expect_identical(ref, run_iss_campaign_engine(prog, cfg, opts));
  }
}

TEST(Pipeline, StageTalliesSurfaceOnlyWhenStaged) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto on = run_iss_campaign_engine(prog, cfg, pipe_opts(true));
  // Every staged site is either an adoption or a demand restore.
  EXPECT_GT(on.replay.restores_prefetched + on.replay.restores_demand, 0u);

  const auto off = run_iss_campaign_engine(prog, cfg, pipe_opts(false));
  EXPECT_EQ(off.replay.restores_prefetched, 0u);
  EXPECT_EQ(off.replay.restores_demand, 0u);
  EXPECT_EQ(off.replay.snapshot_waits, 0u);
  EXPECT_EQ(off.replay.restore_queue_stalls, 0u);
  EXPECT_EQ(off.replay.classify_queue_stalls, 0u);
  EXPECT_EQ(off.replay.classify_backlog_peak, 0u);
}

TEST(Pipeline, RtlRunsTheSynchronousLoopWhateverTheFlag) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref =
      run_rtl_campaign(prog, cfg, {}, pipe_opts(false));
  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE(threads);
    const CampaignResult r =
        run_rtl_campaign(prog, cfg, {}, pipe_opts(true, threads));
    expect_identical(ref, r);
    EXPECT_EQ(r.replay.restores_prefetched + r.replay.restores_demand, 0u);
  }
}

// ---- journal resume across the pipeline boundary ----------------------------

TEST(Pipeline, JournalResumeCrossesPipelineBoundary) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto ref = run_iss_campaign_engine(prog, cfg, pipe_opts(false));
  const std::size_t half = ref.runs.size() / 2;

  // Staged run journals; cut mid-run; the synchronous loop resumes. Then
  // the reverse cut: synchronous run journals, the staged driver resumes
  // (on a different schedule, for good measure).
  for (const bool staged_first : {true, false}) {
    SCOPED_TRACE(staged_first ? "on_to_off" : "off_to_on");
    const std::string dir = scratch_dir(staged_first ? "on_to_off" : "off_to_on");
    EngineOptions opts = pipe_opts(staged_first);
    opts.journal_dir = dir;
    run_iss_campaign_engine(prog, cfg, opts);
    const fs::path file = journal_file_in(dir);
    ASSERT_EQ(read_lines(file).size(), 1u + ref.runs.size());
    truncate_journal(file, half);
    EngineOptions resume = pipe_opts(!staged_first, 3);
    resume.journal_dir = dir;
    resume.resume = true;
    const auto r = run_iss_campaign_engine(prog, cfg, resume);
    expect_identical(ref, r);
    EXPECT_EQ(r.replay.journal_hits, half);
  }
}

// ---- graceful truncation through the staged driver --------------------------

TEST(Pipeline, StopFlagTruncatesStagedDriverThenResumeCompletes) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto ref = run_iss_campaign_engine(prog, cfg, pipe_opts(false));

  const std::string dir = scratch_dir("stop");
  std::atomic<bool> stop{false};
  EngineOptions opts = pipe_opts(true);
  opts.journal_dir = dir;
  opts.stop = &stop;
  opts.progress_stride = 1;
  opts.on_progress = [&stop](const EngineProgress& p) {
    if (p.completed >= 3) stop.store(true, std::memory_order_relaxed);
  };
  const auto cut = run_iss_campaign_engine(prog, cfg, opts);
  EXPECT_TRUE(cut.truncated);
  EXPECT_GE(cut.completed_sites, 3u);
  EXPECT_LT(cut.completed_sites, cut.total_sites);

  EngineOptions resume = pipe_opts(true, 3);
  resume.journal_dir = dir;
  resume.resume = true;
  const auto r = run_iss_campaign_engine(prog, cfg, resume);
  expect_identical(ref, r);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.replay.journal_hits, cut.completed_sites);
}

TEST(Pipeline, DeadlineTruncatesStagedDriver) {
  const auto prog = small_workload();
  EngineOptions opts = pipe_opts(true);
  opts.deadline_ms = 1;  // expires long before thousands of sites can finish
  const auto r = run_iss_campaign_engine(prog, iss_cfg(2000), opts);
  EXPECT_TRUE(r.truncated);
  EXPECT_LT(r.completed_sites, r.total_sites);
}

// ---- ISSRTL_FAIL_SITE isolation on every stage ------------------------------

// A deterministic throw at each stage must classify that site as an engine
// error — with a byte-identical error record (including the retry-attempt
// count) pipeline on or off — and a :once throw must retry to a clean
// campaign.
TEST(Pipeline, FailSiteLandsOnEveryStageIss) {
  const auto prog = small_workload();
  const auto cfg = iss_cfg();
  const auto ref = run_iss_campaign_engine(prog, cfg, pipe_opts(false));

  for (const char* stage : {"restore", "arm", "step", "classify"}) {
    SCOPED_TRACE(stage);
    std::string error_on;
    std::string error_off;
    for (const bool pipeline : {true, false}) {
      EngineOptions opts = pipe_opts(pipeline);
      opts.fail_sites = std::string("2:") + stage;
      const auto r = run_iss_campaign_engine(prog, cfg, opts);
      ASSERT_EQ(r.runs.size(), ref.runs.size());
      for (std::size_t i = 0; i < r.runs.size(); ++i) {
        if (i == 2) {
          EXPECT_TRUE(r.runs[i].engine_error) << pipeline;
          (pipeline ? error_on : error_off) = r.runs[i].error;
        } else {
          EXPECT_FALSE(r.runs[i].engine_error) << i;
          EXPECT_EQ(r.runs[i].failure, ref.runs[i].failure) << i;
          EXPECT_EQ(r.runs[i].latency_instr, ref.runs[i].latency_instr) << i;
        }
      }
      EXPECT_EQ(r.replay.sites_retried, 1u) << pipeline;
      EXPECT_EQ(r.replay.sites_engine_error, 1u) << pipeline;
    }
    EXPECT_EQ(error_on, error_off);

    EngineOptions once = pipe_opts(true);
    once.fail_sites = std::string("2:once:") + stage;
    const auto r = run_iss_campaign_engine(prog, cfg, once);
    expect_identical(ref, r);
    EXPECT_EQ(r.replay.sites_retried, 1u);
    EXPECT_EQ(r.replay.sites_engine_error, 0u);
  }
}

// The same stage tags on the RTL synchronous loop: every tag fires at its
// counterpart point of run_site.
TEST(Pipeline, FailSiteLandsOnEveryStageRtl) {
  const auto prog = small_workload();
  const auto cfg = small_cfg();
  const CampaignResult ref =
      run_rtl_campaign(prog, cfg, {}, pipe_opts(false));

  for (const char* stage : {"restore", "arm", "step", "classify"}) {
    SCOPED_TRACE(stage);
    EngineOptions opts = pipe_opts(false);
    opts.fail_sites = std::string("3:") + stage;
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

    // Transient (:once): the retry succeeds and the campaign is clean.
    EngineOptions once = pipe_opts(false);
    once.fail_sites = std::string("3:once:") + stage;
    const CampaignResult clean = run_rtl_campaign(prog, cfg, {}, once);
    expect_identical(ref, clean);
    EXPECT_EQ(clean.replay.sites_retried, 1u);
    EXPECT_EQ(clean.replay.sites_engine_error, 0u);
  }
}

}  // namespace
}  // namespace issrtl::engine
