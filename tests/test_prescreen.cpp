// Differential gates for the activation pre-screen (slow label), one per
// backend. RTL: on every registry workload, for the IU and CMEM units and
// the IU register file alone, stuck-at-0/1 and open-line faults, at the
// early instant and at uniform-random instants (two per site, so one node
// carries faults armed at different instants). The pass keys register-file
// entries and cache arrays on the values their read ports return, so each
// workload must pre-screen some register-file sites and some CMEM stuck-at
// site whose node holds the bit the other way at the arm, which only a
// read-keyed proof covers. ISS: on
// every registry workload, register-file
// stuck-at-0/1 and open-line faults at their random instants. Every site
// the pass proves never activated is simulated in full through
// Worker::simulate, and must produce exactly the record run_site answered
// without simulating it. The results and the pre-screen count must not
// depend on the thread count or on the ladder.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

using fault::CampaignConfig;
using fault::CampaignResult;
using rtl::FaultModel;

CampaignConfig gate_cfg(const std::string& unit, bool uniform) {
  CampaignConfig cfg;
  cfg.unit_prefix = unit;
  cfg.models = {FaultModel::kStuckAt0, FaultModel::kStuckAt1,
                FaultModel::kOpenLine};
  cfg.samples = 6;
  if (uniform) {
    cfg.inject_time = fault::InjectTime::kUniformRandom;
    cfg.instants_per_site = 2;
  }
  return cfg;
}

// True when the golden run of `prog` holds the bit of some stuck-at site in
// `sites` opposite to the forced value at the site's instant.
bool golden_holds_opposite_bit(const isa::Program& prog,
                               std::vector<fault::FaultSite> sites) {
  std::ranges::sort(sites, {}, &fault::FaultSite::inject_cycle);
  Memory mem;
  rtlcore::Leon3Core golden(mem);
  golden.load(prog);
  for (const fault::FaultSite& site : sites) {
    if (golden.cycles() < site.inject_cycle) {
      golden.advance(site.inject_cycle - golden.cycles());
    }
    const bool held = (golden.sim().value(site.node) >> site.bit & 1u) != 0;
    if (held != (site.model == FaultModel::kStuckAt1)) return true;
  }
  return false;
}

TEST(Prescreen, PrescreenedSitesMatchFullSimulation) {
  std::map<FaultModel, std::size_t> prescreened_by_model;
  for (const workloads::WorkloadInfo& info : workloads::registry()) {
    const isa::Program prog =
        workloads::build(info.name, {.iterations = 1, .data_seed = 1});
    std::size_t regfile_prescreened = 0;
    std::vector<fault::FaultSite> cmem_stuck_prescreened;
    for (const std::string unit : {"iu", "cmem", "iu.regfile"}) {
      for (const bool uniform : {false, true}) {
        SCOPED_TRACE(info.name + " " + unit +
                     (uniform ? " uniform-random" : " early"));
        const CampaignConfig cfg = gate_cfg(unit, uniform);
        const EngineOptions reference_opts;
        RtlCampaignBackend backend(prog, cfg, {}, reference_opts);
        CampaignEngine engine(reference_opts);
        const CampaignResult ref = backend.finish(engine.run(backend));
        ASSERT_EQ(ref.runs.size(), backend.site_count());

        const auto worker = backend.make_worker(0);
        u64 screened = 0;
        for (std::size_t i = 0; i < backend.site_count(); ++i) {
          if (!backend.prescreened(i)) continue;
          ++screened;
          ++prescreened_by_model[ref.runs[i].site.model];
          if (unit == "iu.regfile") ++regfile_prescreened;
          if (unit == "cmem" &&
              ref.runs[i].site.model != FaultModel::kOpenLine) {
            cmem_stuck_prescreened.push_back(ref.runs[i].site);
          }
          const fault::InjectionResult sim = worker->simulate(i);
          EXPECT_EQ(sim.outcome, ref.runs[i].outcome) << "site " << i;
          EXPECT_EQ(sim.latency_cycles, ref.runs[i].latency_cycles)
              << "site " << i;
          EXPECT_EQ(sim.halt, ref.runs[i].halt) << "site " << i;
          EXPECT_EQ(sim.error, ref.runs[i].error) << "site " << i;
        }
        EXPECT_EQ(ref.replay.prescreened, screened);

        for (const unsigned threads : {1u, 3u}) {
          for (const u64 stride : {u64{0}, EngineOptions{}.ladder_stride}) {
            if (threads == reference_opts.threads &&
                stride == reference_opts.ladder_stride) {
              continue;  // the reference itself
            }
            EngineOptions opts;
            opts.threads = threads;
            opts.ladder_stride = stride;
            const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
            SCOPED_TRACE("threads=" + std::to_string(threads) +
                         " stride=" + std::to_string(stride));
            EXPECT_EQ(fault::outcome_hash(r), fault::outcome_hash(ref));
            EXPECT_EQ(r.replay.prescreened, ref.replay.prescreened);
            EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
                      r.total_sites - r.replay.prescreened);
          }
        }
      }
    }
    EXPECT_GT(regfile_prescreened, 0u) << info.name << " iu.regfile";
    EXPECT_TRUE(golden_holds_opposite_bit(prog, cmem_stuck_prescreened))
        << info.name << " cmem";
  }
  // Each model must have been pre-screened somewhere, or the gate proves
  // nothing about it.
  for (const FaultModel m : {FaultModel::kStuckAt0, FaultModel::kStuckAt1,
                             FaultModel::kOpenLine}) {
    EXPECT_GT(prescreened_by_model[m], 0u) << rtl::fault_model_name(m);
  }
}

// Everything of an ISS campaign's records (fault, verdict, latency,
// error), in site order.
u64 iss_fingerprint(const fault::IssCampaignResult& r) {
  Fingerprint fp;
  fp.mix(r.runs.size());
  for (const fault::IssInjectionResult& run : r.runs) {
    fp.mix(run.fault.phys_reg);
    fp.mix(run.fault.bit);
    fp.mix(static_cast<u64>(run.fault.model));
    fp.mix(run.fault.inject_at_instr);
    fp.mix(static_cast<u64>(run.failure));
    fp.mix(static_cast<u64>(run.latent));
    fp.mix(static_cast<u64>(run.engine_error));
    fp.mix(run.latency_instr);
    fp.mix_str(run.error);
  }
  return fp.h;
}

TEST(Prescreen, IssPrescreenedSitesMatchFullSimulation) {
  using iss::IssFaultModel;
  fault::IssCampaignConfig cfg;
  cfg.models = {IssFaultModel::kStuckAt0, IssFaultModel::kStuckAt1,
                IssFaultModel::kOpenLine};
  cfg.samples = 64;
  std::map<IssFaultModel, std::size_t> prescreened_by_model;
  std::size_t proven_silent = 0;
  std::size_t proven_latent = 0;
  for (const workloads::WorkloadInfo& info : workloads::registry()) {
    SCOPED_TRACE(info.name);
    const isa::Program prog =
        workloads::build(info.name, {.iterations = 1, .data_seed = 1});
    const EngineOptions reference_opts;
    IssCampaignBackend backend(prog, cfg, reference_opts);
    CampaignEngine engine(reference_opts);
    const fault::IssCampaignResult ref = backend.finish(engine.run(backend));
    ASSERT_EQ(ref.runs.size(), backend.site_count());

    const auto worker = backend.make_worker(0);
    u64 screened = 0;
    for (std::size_t i = 0; i < backend.site_count(); ++i) {
      if (!backend.prescreened(i)) continue;
      ++screened;
      const fault::IssInjectionResult& got = ref.runs[i];
      ++prescreened_by_model[got.fault.model];
      ++(got.latent ? proven_latent : proven_silent);
      const fault::IssInjectionResult sim = worker->simulate(i);
      EXPECT_EQ(sim.failure, got.failure) << "site " << i;
      EXPECT_EQ(sim.latent, got.latent) << "site " << i;
      EXPECT_EQ(sim.engine_error, got.engine_error) << "site " << i;
      EXPECT_EQ(sim.latency_instr, got.latency_instr) << "site " << i;
      EXPECT_EQ(sim.error, got.error) << "site " << i;
    }
    EXPECT_EQ(ref.replay.prescreened, screened);

    for (const unsigned threads : {1u, 3u}) {
      for (const u64 stride : {u64{0}, EngineOptions{}.ladder_stride}) {
        if (threads == reference_opts.threads &&
            stride == reference_opts.ladder_stride) {
          continue;  // the reference itself
        }
        EngineOptions opts;
        opts.threads = threads;
        opts.ladder_stride = stride;
        const fault::IssCampaignResult r =
            run_iss_campaign_engine(prog, cfg, opts);
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " stride=" + std::to_string(stride));
        EXPECT_EQ(iss_fingerprint(r), iss_fingerprint(ref));
        EXPECT_EQ(r.replay.prescreened, ref.replay.prescreened);
        EXPECT_EQ(r.replay.ladder_restores + r.replay.cold_resets,
                  r.total_sites - r.replay.prescreened);
      }
    }
  }
  for (const IssFaultModel m : cfg.models) {
    EXPECT_GT(prescreened_by_model[m], 0u) << static_cast<int>(m);
  }
  // Both branches of the proven record must have been exercised.
  EXPECT_GT(proven_silent, 0u);
  EXPECT_GT(proven_latent, 0u);
}

}  // namespace
}  // namespace issrtl::engine
