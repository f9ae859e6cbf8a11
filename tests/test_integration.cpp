// Cross-module integration tests: cache-geometry sweeps (architectural
// behaviour must be invariant to CMEM configuration), text-assembler →
// cosimulation pipelines, VCD dumping from live cores, and end-to-end
// campaign → predictor flows.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "core/diversity.hpp"
#include "core/predict.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "isa/asm_parser.hpp"
#include "iss/emulator.hpp"
#include "rtl/vcd.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl {
namespace {

// Architectural results must not depend on cache geometry: sweep size, line
// and penalty and compare against the ISS reference.
struct Geometry {
  u32 size;
  u32 line;
  u32 penalty;
};

class CacheGeometryCosim : public ::testing::TestWithParam<Geometry> {};

TEST_P(CacheGeometryCosim, ArchitectureInvariant) {
  const auto prog =
      workloads::build("canrdr", {.iterations = 1, .data_seed = 7});

  Memory iss_mem;
  iss::Emulator emu(iss_mem);
  emu.load(prog);
  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);

  const Geometry g = GetParam();
  rtlcore::CoreConfig cfg;
  cfg.icache = {g.size, g.line, g.penalty};
  cfg.dcache = {g.size, g.line, g.penalty};
  Memory rtl_mem;
  rtlcore::Leon3Core core(rtl_mem, cfg);
  core.load(prog);
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);

  EXPECT_FALSE(core.offcore().compare_writes(emu.offcore()).diverged);
  EXPECT_EQ(core.arch_state().regs, emu.state().regs);
  EXPECT_EQ(core.instret(), emu.instret());
  // Smaller caches / bigger penalties may only slow things down.
  EXPECT_GE(core.cycles(), core.instret());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometryCosim,
    ::testing::Values(Geometry{256, 16, 3}, Geometry{512, 8, 1},
                      Geometry{1024, 16, 5}, Geometry{2048, 32, 10},
                      Geometry{4096, 16, 20}),
    [](const auto& info) {
      return "s" + std::to_string(info.param.size) + "l" +
             std::to_string(info.param.line) + "p" +
             std::to_string(info.param.penalty);
    });

TEST(Integration, SmallerCachesCostMoreCycles) {
  const auto prog = workloads::build("tblook", {.iterations = 1});
  auto cycles_with = [&](u32 size) {
    rtlcore::CoreConfig cfg;
    cfg.icache = {size, 16, 5};
    cfg.dcache = {size, 16, 5};
    Memory mem;
    rtlcore::Leon3Core core(mem, cfg);
    core.load(prog);
    EXPECT_EQ(core.run(), iss::HaltReason::kHalted);
    return core.cycles();
  };
  EXPECT_GT(cycles_with(256), cycles_with(4096));
}

TEST(Integration, TextAssemblerProgramCosimulates) {
  const isa::Program prog = isa::assemble_text(R"(
    .data
    tbl:  .word 3, 1, 4, 1, 5, 9, 2, 6
    out:  .space 8
    .text
      set tbl, %l0
      set out, %l1
      mov 8, %o2
      clr %o0
    loop:
      ld [%l0], %o1
      add %o0, %o1, %o0
      add %l0, 4, %l0
      subcc %o2, 1, %o2
      bne loop
      nop
      st %o0, [%l1]
      ta 0
  )");
  Memory im;
  iss::Emulator emu(im);
  emu.load(prog);
  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);
  EXPECT_EQ(im.load_u32(prog.symbol("out")), 31u);

  Memory rm;
  rtlcore::Leon3Core core(rm);
  core.load(prog);
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);
  EXPECT_FALSE(core.offcore().compare_writes(emu.offcore()).diverged);
}

TEST(Integration, VcdFromLiveCoreRun) {
  const auto prog = workloads::build("intbench", {.iterations = 1});
  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  const std::string path = ::testing::TempDir() + "core_run.vcd";
  {
    rtl::VcdWriter vcd(path, core.sim());
    for (int c = 0; c < 50; ++c) {
      core.step();
      vcd.sample(core.cycles());
    }
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("fetch_pc"), std::string::npos);
  EXPECT_NE(all.find("#50"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Integration, CampaignFeedsPredictorEndToEnd) {
  // Small but complete pipeline: ISS diversity + RTL campaigns -> calibrate
  // -> sane prediction for a held-out workload.
  Memory probe_mem;
  rtlcore::Leon3Core probe(probe_mem);
  const core::AreaModel area = core::build_area_model(probe.sim());

  std::vector<core::CalibrationSample> samples;
  for (const char* name : {"a2time_x", "rspeed_x", "intbench", "membench"}) {
    const auto prog = workloads::build(name, {.iterations = 1});
    core::CalibrationSample s;
    s.diversity = core::analyze_diversity(prog);
    fault::CampaignConfig cfg;
    cfg.unit_prefix = "iu";
    cfg.samples = 40;
    const auto r = engine::run_rtl_campaign(prog, cfg);
    s.total_pf = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
    samples.push_back(std::move(s));
  }
  core::PfPredictor p;
  p.calibrate(samples, area);
  // An automotive workload (diversity ~48) must be predicted above every
  // low-diversity calibration point.
  const double pred = p.predict_global(48);
  for (const auto& s : samples) EXPECT_GE(pred + 1e-9, s.total_pf);
  EXPECT_LE(pred, 1.0);
}

TEST(Integration, TransientCampaignLessSevereThanPermanent) {
  const auto prog = workloads::build("rspeed_x", {.iterations = 1});
  fault::CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 120;
  cfg.models = {rtl::FaultModel::kStuckAt1,
                rtl::FaultModel::kTransientBitFlip};
  const auto r = engine::run_rtl_campaign(prog, cfg);
  EXPECT_LE(r.stats_for(rtl::FaultModel::kTransientBitFlip).pf(),
            r.stats_for(rtl::FaultModel::kStuckAt1).pf());
}

TEST(Integration, ExhaustiveCampaignOnTinyUnit) {
  // Exhaustive mode over the special-register unit: every bit, both
  // polarities, deterministic totals.
  const auto prog = workloads::build("a2time_x", {.iterations = 1});
  fault::CampaignConfig cfg;
  cfg.unit_prefix = "iu.special";
  cfg.samples = 0;
  cfg.models = {rtl::FaultModel::kStuckAt0, rtl::FaultModel::kStuckAt1};
  const auto r = engine::run_rtl_campaign(prog, cfg);
  Memory mem;
  rtlcore::Leon3Core probe(mem);
  EXPECT_EQ(r.runs.size(),
            2 * probe.sim().injectable_bits("iu.special"));
  for (const auto& s : r.per_model) {
    EXPECT_EQ(s.failures + s.hangs + s.latent + s.silent, s.runs);
  }
}

}  // namespace
}  // namespace issrtl
