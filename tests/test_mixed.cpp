// Mixed-fidelity golden-prefix accelerator tests.
//
// In mixed mode (EngineOptions::mixed_fidelity) the fault-free prefix of
// every injection runs on the ISS and the architectural state is
// transplanted into the RTL core at the injection instant; only the faulty
// suffix is simulated at RTL fidelity. The claims under test:
//
//   * the transplant contract — state crosses only at a drained instruction
//     boundary (npc == pc + 4), and a fault-free transplanted run completes
//     exactly like the pure-RTL golden run (same suffix writes, same final
//     memory, same retirement count);
//   * schedule invariance — the mixed campaign's fault::outcome_hash is
//     bit-identical across threads and checkpoint-ladder strides;
//   * campaign identity — mixed mode is a DIFFERENT experiment than pure
//     RTL for pipeline-resident faults (the transplanted pipeline starts
//     empty), so it must be folded into the campaign key: a pure-mode
//     journal must not satisfy a mixed-mode resume;
//   * the ISS backend ignores the flag (there is no RTL fidelity to mix).
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>

#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

namespace fs = std::filesystem;

using fault::CampaignConfig;
using fault::CampaignResult;
using rtl::FaultModel;

isa::Program mixed_workload() {
  return workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
}

CampaignConfig mixed_cfg(std::size_t samples) {
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = samples;
  cfg.models = {FaultModel::kTransientBitFlip};
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  return cfg;
}

// ---- transplant contract ----------------------------------------------------

TEST(Transplant, RejectsInFlightControlTransfer) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  iss::ArchState st;
  st.reset(0x1000);
  st.npc = 0x2000;  // taken branch in flight: not a drained boundary
  EXPECT_THROW(core.transplant(st, 0, 0), std::invalid_argument);
}

TEST(Transplant, FaultFreeSuffixMatchesPureRtlRun) {
  const auto prog = mixed_workload();

  // Pure-RTL reference run.
  Memory golden_mem;
  rtlcore::Leon3Core golden(golden_mem);
  golden.load(prog);
  ASSERT_EQ(golden.run(), iss::HaltReason::kHalted);
  const u64 golden_instret = golden.instret();
  const auto& golden_writes = golden.offcore().writes();

  // ISS to the midpoint instruction boundary, forward-adjusted past any
  // delay slot (same protocol as the mixed worker: an in-flight control
  // transfer cannot be represented in an empty pipeline).
  u64 n = golden_instret / 2;
  Memory iss_mem;
  iss::Emulator emu(iss_mem);
  emu.load(prog);
  emu.advance(n);
  ASSERT_EQ(emu.instret(), n);
  while (emu.halt_reason() == iss::HaltReason::kRunning &&
         emu.state().npc != emu.state().pc + 4) {
    emu.step();
    ++n;
  }
  ASSERT_EQ(emu.state().npc, emu.state().pc + 4);
  const std::size_t prefix_writes = emu.offcore().writes().size();

  // Transplant into a fresh core over a clone of the ISS memory and run the
  // fault-free suffix to completion.
  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  mem = iss_mem.clone();
  core.transplant(emu.state(), /*cycle=*/0, n, emu.halt_reason(),
                  emu.trap_code());
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);

  // Same retirement count, suffix write trace and final memory image.
  EXPECT_EQ(core.instret(), golden_instret);
  const auto& suffix = core.offcore().writes();
  ASSERT_EQ(prefix_writes + suffix.size(), golden_writes.size());
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    const auto& got = suffix[i];
    const auto& want = golden_writes[prefix_writes + i];
    EXPECT_EQ(got.addr, want.addr) << i;
    EXPECT_EQ(got.size, want.size) << i;
    EXPECT_EQ(got.data, want.data) << i;
  }
  EXPECT_TRUE(mem.equals(golden_mem));
}

TEST(Transplant, PrefixOverloadMakesFullTraceComparable) {
  // The 8-argument overload additionally materialises the golden bus-trace
  // prefix, so end-of-run classification (compare_writes against the full
  // golden trace) works unchanged on a transplanted core.
  const auto prog = mixed_workload();
  Memory golden_mem;
  rtlcore::Leon3Core golden(golden_mem);
  golden.load(prog);
  ASSERT_EQ(golden.run(), iss::HaltReason::kHalted);

  u64 n = golden.instret() / 3;
  Memory iss_mem;
  iss::Emulator emu(iss_mem);
  emu.load(prog);
  emu.advance(n);
  while (emu.halt_reason() == iss::HaltReason::kRunning &&
         emu.state().npc != emu.state().pc + 4) {
    emu.step();
    ++n;
  }
  ASSERT_EQ(emu.state().npc, emu.state().pc + 4);

  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  mem = iss_mem.clone();
  core.transplant(emu.state(), /*cycle=*/0, n, emu.halt_reason(),
                  emu.trap_code(), golden.offcore(),
                  emu.offcore().writes().size(), 0);
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);
  const TraceDivergence div = core.offcore().compare_writes(golden.offcore());
  EXPECT_FALSE(div.diverged) << div.detail;
}

// ---- schedule invariance ----------------------------------------------------

TEST(Mixed, HashInvariantAcrossStrideAndThreads) {
  const auto prog = mixed_workload();
  const auto cfg = mixed_cfg(16);

  EngineOptions ref_opts;
  ref_opts.threads = 1;
  ref_opts.mixed_fidelity = true;
  const CampaignResult ref = run_rtl_campaign(prog, cfg, {}, ref_opts);
  const u64 ref_hash = fault::outcome_hash(ref);
  ASSERT_EQ(ref.runs.size(), 16u);

  struct Case {
    unsigned threads;
    u64 stride;  // 0 = keep default (auto)
    const char* tag;
  };
  const Case cases[] = {
      {3, 0, "t3"},
      {3, 977, "t3/stride977"},
      {1, 1, "t1/stride1"},
  };
  for (const Case& c : cases) {
    EngineOptions opts;
    opts.threads = c.threads;
    if (c.stride != 0) opts.ladder_stride = c.stride;
    opts.mixed_fidelity = true;
    const CampaignResult got = run_rtl_campaign(prog, cfg, {}, opts);
    EXPECT_EQ(fault::outcome_hash(got), ref_hash) << c.tag;
    ASSERT_EQ(got.runs.size(), ref.runs.size()) << c.tag;
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
      EXPECT_EQ(got.runs[i].outcome, ref.runs[i].outcome) << c.tag << " " << i;
      EXPECT_EQ(got.runs[i].latency_cycles, ref.runs[i].latency_cycles)
          << c.tag << " " << i;
    }
  }
}

TEST(Mixed, SitesMatchPureModeEnumeration) {
  // Mixed mode changes how a site is simulated, never which sites exist:
  // the fault list (node, bit, instant, model) must be identical to pure
  // mode so Pf numbers stay sample-comparable across fidelities.
  const auto prog = mixed_workload();
  const auto cfg = mixed_cfg(16);
  EngineOptions pure;
  pure.threads = 1;
  EngineOptions mixed;
  mixed.threads = 1;
  mixed.mixed_fidelity = true;
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, pure);
  const CampaignResult b = run_rtl_campaign(prog, cfg, {}, mixed);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.golden_cycles, b.golden_cycles);
  EXPECT_EQ(a.golden_instret, b.golden_instret);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].site.node, b.runs[i].site.node) << i;
    EXPECT_EQ(a.runs[i].site.bit, b.runs[i].site.bit) << i;
    EXPECT_EQ(a.runs[i].site.inject_cycle, b.runs[i].site.inject_cycle) << i;
    EXPECT_EQ(a.runs[i].site.model, b.runs[i].site.model) << i;
  }
}

// ---- campaign identity ------------------------------------------------------

TEST(Mixed, JournalIdentityDiffersFromPureMode) {
  const auto prog = mixed_workload();
  const auto cfg = mixed_cfg(12);
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("issrtl_mixed_" + std::string(info->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // Populate a journal in pure mode...
  EngineOptions writer;
  writer.threads = 1;
  writer.journal_dir = dir.string();
  const CampaignResult pure = run_rtl_campaign(prog, cfg, {}, writer);
  ASSERT_EQ(pure.runs.size(), 12u);

  // ...a pure-mode resume trusts it in full...
  EngineOptions pure_resume = writer;
  pure_resume.resume = true;
  const CampaignResult resumed = run_rtl_campaign(prog, cfg, {}, pure_resume);
  EXPECT_EQ(resumed.replay.journal_hits, resumed.runs.size());
  EXPECT_EQ(fault::outcome_hash(resumed), fault::outcome_hash(pure));

  // ...but a mixed-mode resume must not import a single pure-mode record:
  // the fidelity is part of the campaign key, so the journal belongs to a
  // different experiment and every site re-simulates.
  EngineOptions mixed_resume = writer;
  mixed_resume.resume = true;
  mixed_resume.mixed_fidelity = true;
  const CampaignResult remixed = run_rtl_campaign(prog, cfg, {}, mixed_resume);
  EXPECT_EQ(remixed.replay.journal_hits, 0u);
  EXPECT_EQ(remixed.runs.size(), pure.runs.size());
  fs::remove_all(dir);
}

TEST(Mixed, IssBackendIgnoresMixedFlag) {
  // There is no lower-fidelity prefix vehicle to mix for the ISS backend;
  // the flag must be a no-op there (and stay out of its campaign key).
  const auto prog =
      workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
  fault::IssCampaignConfig cfg;
  cfg.samples = 24;
  cfg.models = {iss::IssFaultModel::kStuckAt1};
  EngineOptions plain;
  plain.threads = 1;
  EngineOptions mixed = plain;
  mixed.mixed_fidelity = true;
  const auto a = run_iss_campaign_engine(prog, cfg, plain);
  const auto b = run_iss_campaign_engine(prog, cfg, mixed);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].failure, b.runs[i].failure) << i;
    EXPECT_EQ(a.runs[i].latent, b.runs[i].latent) << i;
    EXPECT_EQ(a.runs[i].latency_instr, b.runs[i].latency_instr) << i;
  }
}

// ---- replay economics -------------------------------------------------------

TEST(Mixed, CampaignCompletesWithIssLadder) {
  // Sanity over the mixed replay counters: the ISS golden ladder is the
  // checkpoint store (rungs exist when checkpointing is on), the campaign
  // classifies every site, and convergence cutoffs stay off (a transplanted
  // node state can never be declared coincident with a golden rung).
  const auto prog = mixed_workload();
  const auto cfg = mixed_cfg(12);
  EngineOptions opts;
  opts.threads = 2;
  opts.mixed_fidelity = true;
  const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
  EXPECT_EQ(r.runs.size(), 12u);
  EXPECT_FALSE(r.truncated);
  EXPECT_EQ(r.replay.convergence_cutoffs, 0u);
  for (const auto& run : r.runs) {
    EXPECT_NE(run.outcome, fault::Outcome::kEngineError) << run.error;
  }
}

}  // namespace
}  // namespace issrtl::engine
