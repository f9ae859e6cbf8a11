// Checkpoint-ladder tests: eviction policy and nearest-rung lookup on the
// container itself, then end-to-end stride invariance — a multi-instant
// campaign must produce bit-identical outcomes with the ladder disabled, at
// stride 1, and at an arbitrary stride, at any thread count (the ladder
// only changes where fault-free prefixes are resumed from, never what the
// faulty run computes).
#include <gtest/gtest.h>

#include <memory>

#include "engine/iss_backend.hpp"
#include "engine/ladder.hpp"
#include "engine/rtl_backend.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

using fault::CampaignConfig;
using fault::CampaignResult;

std::shared_ptr<const int> snap(int v) { return std::make_shared<int>(v); }

// ---- container: eviction ----------------------------------------------------

TEST(Ladder, EvictsOldestFirstUnderByteCap) {
  CheckpointLadder<int> ladder(/*stride=*/10, /*max_bytes=*/300);
  ladder.record(10, snap(1), 100);
  ladder.record(20, snap(2), 100);
  ladder.record(30, snap(3), 100);
  EXPECT_EQ(ladder.rung_count(), 3u);
  EXPECT_EQ(ladder.evicted_count(), 0u);

  // 100 bytes over cap: exactly the oldest rung goes.
  ladder.record(40, snap(4), 100);
  EXPECT_EQ(ladder.rung_count(), 3u);
  EXPECT_EQ(ladder.evicted_count(), 1u);
  EXPECT_EQ(ladder.total_bytes(), 300u);
  EXPECT_EQ(ladder.best_at_or_below(10), nullptr)
      << "evicted rung must be unreachable";
  ASSERT_NE(ladder.best_at_or_below(20), nullptr);
  EXPECT_EQ(ladder.best_at_or_below(20)->instant, 20u);

  // A big rung evicts several oldest rungs, in order: 550 bytes shrink to
  // 250 only once 20, 30 and 40 have all gone.
  ladder.record(50, snap(5), 250);
  EXPECT_EQ(ladder.rung_count(), 1u);  // only the newest survives
  EXPECT_EQ(ladder.evicted_count(), 4u);
  EXPECT_EQ(ladder.total_bytes(), 250u);
  EXPECT_EQ(ladder.best_at_or_below(49), nullptr);
  ASSERT_NE(ladder.best_at_or_below(50), nullptr);
  EXPECT_EQ(ladder.best_at_or_below(50)->instant, 50u);
}

TEST(Ladder, NewestRungSurvivesEvenWhenOverCapAlone) {
  CheckpointLadder<int> ladder(10, 100);
  ladder.record(10, snap(1), 50);
  ladder.record(20, snap(2), 400);  // alone over the cap
  EXPECT_EQ(ladder.rung_count(), 1u);
  ASSERT_NE(ladder.best_at_or_below(25), nullptr);
  EXPECT_EQ(ladder.best_at_or_below(25)->instant, 20u);
}

TEST(Ladder, AutoModeDoublesStrideByThinning) {
  // max_rungs 4: the 5th rung triggers a doubling; survivors sit on the
  // doubled grid (plus the always-kept newest rung).
  CheckpointLadder<int> ladder(10, std::size_t{1} << 30, /*max_rungs=*/4);
  for (u64 t = 10; t <= 50; t += 10) ladder.record(t, snap(1), 8);
  EXPECT_EQ(ladder.stride(), 20u);
  EXPECT_EQ(ladder.rung_count(), 3u);  // 20, 40 on the grid + newest (50)
  EXPECT_EQ(ladder.evicted_count(), 2u);  // 10 and 30 thinned
  EXPECT_EQ(ladder.best_at_or_below(39)->instant, 20u);
  EXPECT_EQ(ladder.best_at_or_below(50)->instant, 50u);
  // Recording continues on the doubled grid.
  EXPECT_FALSE(ladder.wants(70));
  EXPECT_TRUE(ladder.wants(60));
}

// ---- container: lookup ------------------------------------------------------

TEST(Ladder, NearestRungLookupAtBoundaries) {
  CheckpointLadder<int> ladder(100, std::size_t{1} << 20);
  ladder.record(100, snap(1), 10);
  ladder.record(200, snap(2), 10);
  ladder.record(300, snap(3), 10);

  EXPECT_EQ(ladder.best_at_or_below(0), nullptr);
  EXPECT_EQ(ladder.best_at_or_below(99), nullptr);
  EXPECT_EQ(ladder.best_at_or_below(100)->instant, 100u);  // exact hit
  EXPECT_EQ(ladder.best_at_or_below(101)->instant, 100u);
  EXPECT_EQ(ladder.best_at_or_below(299)->instant, 200u);
  EXPECT_EQ(ladder.best_at_or_below(300)->instant, 300u);
  EXPECT_EQ(ladder.best_at_or_below(~0ull)->instant, 300u);  // clamps to top

  EXPECT_EQ(ladder.at(100)->instant, 100u);
  EXPECT_EQ(ladder.at(150), nullptr);
  EXPECT_EQ(ladder.at(400), nullptr);
}

TEST(Ladder, DisabledLadderWantsNothing) {
  CheckpointLadder<int> ladder;  // stride 0
  EXPECT_FALSE(ladder.enabled());
  EXPECT_FALSE(ladder.wants(0));
  EXPECT_FALSE(ladder.wants(64));
  EXPECT_EQ(ladder.best_at_or_below(~0ull), nullptr);
}

TEST(Ladder, WantsOnlyOnGridAndForward) {
  CheckpointLadder<int> ladder(50, std::size_t{1} << 20);
  EXPECT_FALSE(ladder.wants(0)) << "reset state is never a rung";
  EXPECT_FALSE(ladder.wants(49));
  EXPECT_TRUE(ladder.wants(50));
  ladder.record(50, snap(1), 10);
  EXPECT_FALSE(ladder.wants(50)) << "no duplicate rungs";
  EXPECT_TRUE(ladder.wants(100));
}

// ---- stride helpers ---------------------------------------------------------

TEST(Ladder, StrideResolution) {
  EXPECT_EQ(initial_ladder_stride(0), 0u);
  EXPECT_EQ(initial_ladder_stride(kLadderStrideAuto), kAutoInitialStride);
  EXPECT_EQ(initial_ladder_stride(777), 777u);
  EXPECT_EQ(ladder_rung_limit(kLadderStrideAuto), kAutoMaxRungs);
  EXPECT_EQ(ladder_rung_limit(777), 0u);
}

// ---- end-to-end: stride invariance ------------------------------------------

using fault::outcome_hash;

// Multi-instant campaign (8 instants per site, transients + permanents so
// both the convergence cut-off and the plain restore path are exercised):
// ladder disabled, stride 1 (a rung at literally every cycle, under a byte
// cap that forces eviction) and stride 97 must agree bit-for-bit, at 1 and
// 3 threads.
TEST(Ladder, MultiInstantCampaignStrideInvariant) {
  const auto prog = workloads::build("a2time_x", {.iterations = 1,
                                                  .data_seed = 1});
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 8;
  cfg.instants_per_site = 8;
  cfg.models = {rtl::FaultModel::kTransientBitFlip, rtl::FaultModel::kStuckAt1};
  cfg.inject_time = fault::InjectTime::kUniformRandom;

  u64 reference_hash = 0;
  std::vector<fault::CampaignStats> reference_stats;
  bool have_reference = false;
  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, u64{1}, u64{97}}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      if (stride == 1) {
        // Force the byte cap into play: a rung per cycle at ~4 KiB each
        // overflows 2 MiB quickly, so eviction must not perturb outcomes.
        opts.ladder_max_bytes = std::size_t{2} << 20;
      }
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      ASSERT_EQ(r.runs.size(), cfg.samples * 8 * cfg.models.size());
      const u64 h = outcome_hash(r);
      if (!have_reference) {
        reference_hash = h;
        reference_stats = r.per_model;
        have_reference = true;
        continue;
      }
      EXPECT_EQ(h, reference_hash) << "threads=" << threads
                                   << " stride=" << stride;
      ASSERT_EQ(r.per_model.size(), reference_stats.size());
      for (std::size_t m = 0; m < r.per_model.size(); ++m) {
        EXPECT_EQ(r.per_model[m].failures, reference_stats[m].failures);
        EXPECT_EQ(r.per_model[m].hangs, reference_stats[m].hangs);
        EXPECT_EQ(r.per_model[m].latent, reference_stats[m].latent);
        EXPECT_EQ(r.per_model[m].silent, reference_stats[m].silent);
      }
    }
  }
}

// The default (auto-stride) ladder must actually be used — and the
// transient convergence cut-off must actually fire — on a campaign sized
// like the real ones. Each site is positioned exactly once, from a rung or
// by a reset; with the ladder disabled every site resets.
TEST(Ladder, ReplayCountersShowLadderAtWork) {
  const auto prog = workloads::build("a2time_x", {.iterations = 1,
                                                  .data_seed = 1});
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 12;
  cfg.instants_per_site = 4;
  cfg.models = {rtl::FaultModel::kTransientBitFlip};
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  EngineOptions opts;
  opts.threads = 2;
  const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
  EXPECT_GT(r.replay.ladder_rungs, 0u);
  EXPECT_GT(r.replay.ladder_bytes, 0u);
  EXPECT_GT(r.replay.ladder_restores, 0u);
  EXPECT_GT(r.replay.convergence_cutoffs, 0u);
  EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets, r.runs.size());
  EXPECT_EQ(r.replay.rolling_restores, 0u);
  // The naive path reports a dead ladder.
  EngineOptions naive;
  naive.threads = 2;
  naive.ladder_stride = 0;
  const CampaignResult n = run_rtl_campaign(prog, cfg, {}, naive);
  EXPECT_EQ(n.replay.ladder_rungs, 0u);
  EXPECT_EQ(n.replay.ladder_restores, 0u);
  EXPECT_EQ(n.replay.convergence_cutoffs, 0u);
  EXPECT_EQ(n.replay.cold_resets, n.runs.size());
  EXPECT_EQ(n.replay.rolling_restores, 0u);
  EXPECT_EQ(outcome_hash(n), outcome_hash(r));
}

// ISS backend: same invariance on the instruction-indexed ladder,
// including the bit-flip convergence cut-off.
TEST(Ladder, IssCampaignLadderInvariant) {
  const auto prog = workloads::build("a2time_x", {.iterations = 1,
                                                  .data_seed = 1});
  fault::IssCampaignConfig cfg;
  cfg.samples = 60;
  cfg.models = {iss::IssFaultModel::kBitFlip, iss::IssFaultModel::kStuckAt1};

  fault::IssCampaignResult reference;
  bool have_reference = false;
  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, u64{1}, u64{37}}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      const auto r = run_iss_campaign_engine(prog, cfg, opts);
      // Each site is positioned exactly once, from a rung or by a reset.
      EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
                r.runs.size());
      EXPECT_EQ(r.replay.rolling_restores, 0u);
      if (stride == 0) {
        EXPECT_EQ(r.replay.cold_resets, r.runs.size());
      }
      if (!have_reference) {
        reference = r;
        have_reference = true;
        continue;
      }
      ASSERT_EQ(r.runs.size(), reference.runs.size());
      for (std::size_t i = 0; i < r.runs.size(); ++i) {
        EXPECT_EQ(r.runs[i].failure, reference.runs[i].failure) << i;
        EXPECT_EQ(r.runs[i].latent, reference.runs[i].latent) << i;
        EXPECT_EQ(r.runs[i].latency_instr, reference.runs[i].latency_instr)
            << i;
      }
    }
  }
}

}  // namespace
}  // namespace issrtl::engine
