// Differential gate for the shifted convergence cut-off (slow label): every
// bit of the rspeed EX stage (the latch and the multicycle countdown) is
// flipped at two uniform-random instants. Flips of the mul/div countdown
// shorten or lengthen a multicycle instruction, and such a run rejoins the
// golden run a few cycles early or late, so with the ladder on some of them
// end at a shifted cut-off. Every site must still get exactly the record it
// gets with the ladder off, where no site is cut off and every suffix runs
// to its halt or the watchdog, at any thread count.
#include <gtest/gtest.h>

#include "engine/engine.hpp"
#include "engine/rtl_backend.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

TEST(Convergence, ShiftedCutoffsMatchFullSimulation) {
  const isa::Program prog =
      workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  fault::CampaignConfig cfg;
  cfg.unit_prefix = "iu.ex";
  cfg.models = {rtl::FaultModel::kTransientBitFlip};
  cfg.samples = 0;  // exhaustive
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  cfg.instants_per_site = 2;

  EngineOptions unladdered;
  unladdered.ladder_stride = 0;
  const fault::CampaignResult ref = run_rtl_campaign(prog, cfg, {}, unladdered);
  EXPECT_EQ(ref.replay.convergence_cutoffs, 0u);

  for (const unsigned threads : {1u, 3u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EngineOptions opts;
    opts.threads = threads;
    const fault::CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
    EXPECT_GT(r.replay.shifted_cutoffs, 0u);
    EXPECT_LE(r.replay.shifted_cutoffs, r.replay.convergence_cutoffs);
    EXPECT_EQ(fault::outcome_hash(r), fault::outcome_hash(ref));
  }
}

}  // namespace
}  // namespace issrtl::engine
