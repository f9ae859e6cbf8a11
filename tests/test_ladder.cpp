// Checkpoint-ladder tests: stride doubling and nearest-rung lookup on the
// container itself, then end-to-end stride invariance — a multi-instant
// campaign must produce bit-identical outcomes with the ladder disabled, at
// stride 1, and at an arbitrary stride, at any thread count (the ladder
// only changes where fault-free prefixes are resumed from, never what the
// faulty run computes).
#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <string>
#include <vector>

#include "engine/iss_backend.hpp"
#include "engine/ladder.hpp"
#include "engine/rtl_backend.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

using fault::CampaignConfig;
using fault::CampaignResult;

std::shared_ptr<const int> snap(int v) { return std::make_shared<int>(v); }

// ---- container: stride doubling ---------------------------------------------

TEST(Ladder, ExplicitStrideDoublesByThinning) {
  // The rung past kLadderMaxRungs triggers a doubling; survivors sit on the
  // doubled grid (plus the always-kept newest rung).
  CheckpointLadder<int> ladder(10);
  const u64 last = 10 * (kLadderMaxRungs + 1);
  for (u64 t = 10; t <= last; t += 10) {
    ASSERT_TRUE(ladder.wants(t)) << t;
    ladder.record(t, snap(1), 8);
  }
  EXPECT_EQ(ladder.stride(), 20u);
  // Even multiples of 10 up to `last` on the grid, plus the newest (odd).
  EXPECT_EQ(ladder.rung_count(), kLadderMaxRungs / 2 + 1);
  EXPECT_EQ(ladder.evicted_count(), kLadderMaxRungs / 2);
  EXPECT_EQ(ladder.total_bytes(), 8 * ladder.rung_count());
  EXPECT_EQ(ladder.best_at_or_below(39)->instant, 20u);
  EXPECT_EQ(ladder.best_at_or_below(last)->instant, last);
  // Recording continues on the doubled grid.
  EXPECT_FALSE(ladder.wants(last + 20));
  EXPECT_TRUE(ladder.wants(last + 10));
}

// ---- container: lookup ------------------------------------------------------

TEST(Ladder, NearestRungLookupAtBoundaries) {
  CheckpointLadder<int> ladder(100);
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

  EXPECT_EQ(ladder.first_above(0)->instant, 100u);
  EXPECT_EQ(ladder.first_above(100)->instant, 200u);  // strictly above
  EXPECT_EQ(ladder.first_above(299)->instant, 300u);
  EXPECT_EQ(ladder.first_above(300), nullptr);
}

TEST(Ladder, DisabledLadderWantsNothing) {
  CheckpointLadder<int> ladder;  // stride 0
  EXPECT_FALSE(ladder.enabled());
  EXPECT_FALSE(ladder.wants(0));
  EXPECT_FALSE(ladder.wants(64));
  EXPECT_EQ(ladder.best_at_or_below(~0ull), nullptr);
  EXPECT_EQ(ladder.first_above(0), nullptr);
}

TEST(Ladder, WantsOnlyOnGridAndForward) {
  CheckpointLadder<int> ladder(50);
  EXPECT_FALSE(ladder.wants(0)) << "reset state is never a rung";
  EXPECT_FALSE(ladder.wants(49));
  EXPECT_TRUE(ladder.wants(50));
  ladder.record(50, snap(1), 10);
  EXPECT_FALSE(ladder.wants(50)) << "no duplicate rungs";
  EXPECT_TRUE(ladder.wants(100));
}

// ---- end-to-end: stride invariance ------------------------------------------

using fault::outcome_hash;

// Multi-instant campaign (8 instants per site, transients + permanents so
// both the convergence cut-off and the plain restore path are exercised):
// ladder disabled, stride 1 (a rung at literally every cycle, so the ladder
// must double its stride to stay within kLadderMaxRungs) and stride 97 must
// agree bit-for-bit, at 1 and 3 threads.
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
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      ASSERT_EQ(r.runs.size(), cfg.samples * 8 * cfg.models.size());
      EXPECT_LE(r.replay.ladder_rungs, kLadderMaxRungs) << "stride=" << stride;
      if (stride == 1) {
        EXPECT_GT(r.replay.ladder_evicted, 0u)
            << "a rung per cycle must have been thinned by stride doubling";
      }
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

// The default ladder must actually be used — and the transient
// convergence cut-off must actually fire — on a campaign sized like the
// real ones. Each site is positioned exactly once, from a rung or
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

// Stuck-at campaigns: the activation pre-screen answers some sites without
// positioning them, so every site (and every retry) is either pre-screened
// or positioned exactly once. The retried sites include pre-screened and
// simulated ones.
TEST(Ladder, StuckAtSitesArePrescreenedOrPositionedOnce) {
  const auto prog = workloads::build("a2time_x", {.iterations = 1,
                                                  .data_seed = 1});
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 24;
  cfg.models = {rtl::FaultModel::kStuckAt0, rtl::FaultModel::kStuckAt1};
  for (const u64 stride : {u64{0}, EngineOptions{}.ladder_stride}) {
    EngineOptions opts;
    opts.threads = 2;
    opts.ladder_stride = stride;
    opts.fail_sites = "0:once,1:once,2:once,3:once";
    const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
    EXPECT_GT(r.replay.prescreened, 0u) << "stride=" << stride;
    EXPECT_LT(r.replay.prescreened, r.runs.size()) << "stride=" << stride;
    EXPECT_EQ(r.replay.sites_retried, 4u);
    EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
              r.runs.size() - r.replay.prescreened + r.replay.sites_retried)
        << "stride=" << stride;
  }
}

// The same accounting on the ISS backend, whose pre-screen answers unread
// register-file stuck-at sites without positioning them: two pre-screened
// and two simulated sites are retried once each, at 1 and 3 threads.
TEST(Ladder, IssStuckAtSitesArePrescreenedOrPositionedOnce) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  fault::IssCampaignConfig cfg;
  cfg.samples = 24;
  cfg.models = {iss::IssFaultModel::kStuckAt0, iss::IssFaultModel::kStuckAt1};
  std::vector<std::size_t> screened, simulated;
  {
    const IssCampaignBackend backend(prog, cfg, {});
    for (std::size_t i = 0; i < backend.site_count(); ++i) {
      std::vector<std::size_t>& into =
          backend.prescreened(i) ? screened : simulated;
      if (into.size() < 2) into.push_back(i);
    }
  }
  ASSERT_EQ(screened.size(), 2u);
  ASSERT_EQ(simulated.size(), 2u);
  std::string spec;
  for (const std::size_t i : {screened[0], screened[1], simulated[0],
                              simulated[1]}) {
    spec += (spec.empty() ? "" : ",") + std::to_string(i) + ":once";
  }
  for (const unsigned threads : {1u, 3u}) {
    EngineOptions opts;
    opts.threads = threads;
    opts.fail_sites = spec;
    const auto r = run_iss_campaign_engine(prog, cfg, opts);
    EXPECT_GT(r.replay.prescreened, 0u) << "threads=" << threads;
    EXPECT_LT(r.replay.prescreened, r.runs.size()) << "threads=" << threads;
    EXPECT_EQ(r.replay.sites_retried, 4u);
    EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
              r.runs.size() - r.replay.prescreened + r.replay.sites_retried)
        << "threads=" << threads;
  }
}

// Every ReplayCounters field of one default RTL and one default ISS
// bit-flip campaign, pinned: the replay tallies (rungs, their bytes and
// thinning, restores, resets, fast-forward, cut-offs) are a function of the
// fault list and the ladder policy alone, so any change to positioning or
// to the convergence gate shows here even when the outcomes do not move.
// Restore tallies do not depend on the thread count. The RTL instants are
// drawn over the whole golden run; the first-half draw this replaced
// fast-forwarded 5283 cycles, every other tally the same.
TEST(Ladder, ReplayCountersPinned) {
  const auto prog = workloads::build("rspeed", {.iterations = 1,
                                                .data_seed = 1});
  using Counters = std::array<u64, 7>;
  const auto counters = [](const fault::ReplayCounters& c) {
    return Counters{c.ladder_rungs,        c.ladder_bytes,
                    c.ladder_evicted,      c.ladder_restores,
                    c.cold_resets,         c.fast_forward_cycles,
                    c.convergence_cutoffs};
  };
  CampaignConfig rtl_cfg;
  rtl_cfg.samples = 48;
  rtl_cfg.models = {rtl::FaultModel::kTransientBitFlip};
  rtl_cfg.inject_time = fault::InjectTime::kUniformRandom;
  fault::IssCampaignConfig iss_cfg;
  iss_cfg.samples = 48;
  iss_cfg.models = {iss::IssFaultModel::kBitFlip};
  for (const unsigned threads : {1u, 3u}) {
    EngineOptions opts;
    opts.threads = threads;
    EXPECT_EQ(counters(run_rtl_campaign(prog, rtl_cfg, {}, opts).replay),
              (Counters{527, 2373608, 1025, 48, 0, 6133, 17}))
        << "rtl, threads=" << threads;
    EXPECT_EQ(counters(run_iss_campaign_engine(prog, iss_cfg, opts).replay),
              (Counters{643, 931064, 0, 48, 0, 1547, 11}))
        << "iss, threads=" << threads;
  }
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
      // Each site is pre-screened or positioned exactly once, from a rung
      // or by a reset.
      EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
                r.runs.size() - r.replay.prescreened);
      EXPECT_EQ(r.replay.rolling_restores, 0u);
      if (stride == 0) {
        EXPECT_EQ(r.replay.cold_resets, r.runs.size() - r.replay.prescreened);
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
