// Fault-injection framework tests: fault-list construction, campaign outcome
// classification, directed injections with known consequences, ISS-level
// campaigns and the lockstep checker.
#include <gtest/gtest.h>

#include <limits>

#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"
#include "fault/lockstep.hpp"
#include "fault/report.hpp"
#include "workloads/workload.hpp"

namespace issrtl::fault {
namespace {

using rtl::FaultModel;

isa::Program small_workload() {
  return workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
}

// ---- fault list construction ----------------------------------------------------

TEST(FaultList, DeterministicPerSeed) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.samples = 50;
  const auto a = build_fault_list(core.sim(), cfg, 10000);
  const auto b = build_fault_list(core.sim(), cfg, 10000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].bit, b[i].bit);
  }
}

TEST(FaultList, SeedChangesSelection) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.samples = 50;
  const auto a = build_fault_list(core.sim(), cfg, 10000);
  cfg.seed = 999;
  const auto b = build_fault_list(core.sim(), cfg, 10000);
  int same = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    same += (a[i].node == b[i].node && a[i].bit == b[i].bit);
  }
  EXPECT_LT(same, 10);
}

TEST(FaultList, RespectsUnitFilter) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.unit_prefix = "cmem";
  cfg.samples = 100;
  for (const auto& s : build_fault_list(core.sim(), cfg, 10000)) {
    EXPECT_EQ(core.sim().unit(s.node).rfind("cmem", 0), 0u);
  }
}

TEST(FaultList, BitsWithinWidth) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.samples = 500;
  for (const auto& s : build_fault_list(core.sim(), cfg, 10000)) {
    EXPECT_LT(s.bit, core.sim().width(s.node));
  }
}

TEST(FaultList, ExhaustiveCoversEveryBit) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.special";  // small unit: icc, y, cwp, wdepth
  cfg.samples = 0;                 // exhaustive
  cfg.models = {FaultModel::kStuckAt0, FaultModel::kStuckAt1};
  const auto sites = build_fault_list(core.sim(), cfg, 1000);
  EXPECT_EQ(sites.size(),
            2 * core.sim().injectable_bits("iu.special"));
}

TEST(FaultList, UnknownUnitThrows) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.unit_prefix = "gpu";
  EXPECT_THROW(build_fault_list(core.sim(), cfg, 1000),
               std::invalid_argument);
}

TEST(FaultList, InvalidInstantConfigRejected) {
  // Both used to be accepted silently: zero instants was clamped to 1, and
  // the full window was ignored with the fixed early instant, so "full"
  // and "half" ran the same campaign.
  Memory mem;
  rtlcore::Leon3Core core(mem);
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.instants_per_site = 0;
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  EXPECT_THROW(build_fault_list(core.sim(), cfg, 1000),
               std::invalid_argument);
  CampaignConfig early;
  early.unit_prefix = "iu";
  early.instant_window = fault::InstantWindow::kFull;
  EXPECT_THROW(build_fault_list(core.sim(), early, 1000),
               std::invalid_argument);
}

// ---- campaign classification ------------------------------------------------------

TEST(Campaign, OutcomesPartitionRuns) {
  CampaignConfig cfg;
  cfg.samples = 40;
  cfg.models = {FaultModel::kStuckAt1, FaultModel::kOpenLine};
  const auto r = engine::run_rtl_campaign(small_workload(), cfg);
  EXPECT_EQ(r.runs.size(), 80u);
  for (const auto& st : r.per_model) {
    EXPECT_EQ(st.runs, 40u);
    EXPECT_EQ(st.failures + st.hangs + st.latent + st.silent, st.runs);
    EXPECT_GE(st.pf(), 0.0);
    EXPECT_LE(st.pf(), 1.0);
  }
}

TEST(Campaign, DeterministicPerSeed) {
  CampaignConfig cfg;
  cfg.samples = 30;
  const auto a = engine::run_rtl_campaign(small_workload(), cfg);
  const auto b = engine::run_rtl_campaign(small_workload(), cfg);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].outcome, b.runs[i].outcome) << i;
  }
}

TEST(Campaign, GoldenMetadataFilled) {
  CampaignConfig cfg;
  cfg.samples = 5;
  const auto r = engine::run_rtl_campaign(small_workload(), cfg);
  EXPECT_GT(r.golden_cycles, 0u);
  EXPECT_GT(r.golden_instret, 0u);
  EXPECT_EQ(r.unit_prefix, "iu");
  EXPECT_FALSE(r.workload.empty());
}

TEST(Campaign, StatsForUnknownModelIsZeroed) {
  CampaignConfig cfg;
  cfg.samples = 5;
  const auto r = engine::run_rtl_campaign(small_workload(), cfg);
  EXPECT_EQ(r.stats_for(FaultModel::kStuckAt1).runs, 5u);
  const CampaignStats missing = r.stats_for(FaultModel::kOpenLine);
  EXPECT_EQ(missing.model, FaultModel::kOpenLine);
  EXPECT_EQ(missing.runs, 0u);
  EXPECT_EQ(missing.pf(), 0.0);
}

TEST(Campaign, EmptyCampaignStatsAreZeroed) {
  // An empty result (no runs at all) must not throw either.
  const CampaignResult empty;
  const CampaignStats s = empty.stats_for(FaultModel::kStuckAt1);
  EXPECT_EQ(s.runs, 0u);
  EXPECT_EQ(s.pf(), 0.0);
}

TEST(Campaign, LatencyOnlyOnFailures) {
  CampaignConfig cfg;
  cfg.samples = 60;
  const auto r = engine::run_rtl_campaign(small_workload(), cfg);
  for (const auto& run : r.runs) {
    if (run.outcome == Outcome::kSilent || run.outcome == Outcome::kLatent) {
      EXPECT_EQ(run.latency_cycles, 0u);
    }
  }
}

// Directed injections with known consequences.
namespace {

Outcome inject_named(const isa::Program& prog, const std::string& node_name,
                     u8 bit, FaultModel model) {
  Memory golden_mem;
  rtlcore::Leon3Core golden(golden_mem);
  golden.load(prog);
  EXPECT_EQ(golden.run(), iss::HaltReason::kHalted);

  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  const auto id = core.sim().find_node(node_name);
  EXPECT_TRUE(id.has_value()) << node_name;
  for (int i = 0; i < 10; ++i) core.step();
  core.sim().arm_fault(*id, model, bit);
  const auto halt = core.run(golden.cycles() * 4 + 1000);
  const auto div = core.offcore().compare_writes(golden.offcore());
  if (div.diverged) return Outcome::kFailure;
  if (halt == iss::HaltReason::kStepLimit) return Outcome::kHang;
  return core.arch_state().regs == golden.arch_state().regs
             ? Outcome::kSilent
             : Outcome::kLatent;
}

}  // namespace

TEST(Campaign, StuckFetchPcBitIsCatastrophic) {
  // Forcing a low PC bit corrupts the instruction stream: failure or hang.
  const auto o =
      inject_named(small_workload(), "fetch_pc", 2, FaultModel::kStuckAt1);
  EXPECT_TRUE(o == Outcome::kFailure || o == Outcome::kHang);
}

TEST(Campaign, FaultInUnusedWindowIsSilentOrLatent) {
  // The excerpt never SAVEs: windows 3-6 are untouched, so a stuck bit in
  // one of their locals can never propagate to off-core activity.
  const auto o =
      inject_named(small_workload(), "r_w4_8", 13, FaultModel::kStuckAt1);
  EXPECT_TRUE(o == Outcome::kSilent || o == Outcome::kLatent);
}

TEST(Campaign, StuckDestIndexBitAliasesInsteadOfCrashing) {
  // A stuck high bit in the WB-stage destination index can push the
  // physical register number past the 136-entry table; the regfile address
  // decoder aliases it back in (hardware ignores unimplemented address
  // bits), so the run classifies deterministically instead of aborting.
  const auto o =
      inject_named(small_workload(), "wb_dphys", 7, FaultModel::kStuckAt1);
  EXPECT_TRUE(o == Outcome::kFailure || o == Outcome::kHang ||
              o == Outcome::kLatent || o == Outcome::kSilent);
}

TEST(Campaign, OpenLineOnQuietNodeIsSilent) {
  // Open-line freezes the value a node already holds — on a constant-zero
  // node of an idle unit this can never change anything.
  const auto o =
      inject_named(small_workload(), "div_q", 7, FaultModel::kOpenLine);
  EXPECT_EQ(o, Outcome::kSilent);
}

TEST(Campaign, StoreDataPathFaultCausesFailure) {
  // sdata in the ME latch feeds every store's bus payload; the excerpt
  // stores every word it copies, so a stuck bit must show up off-core.
  const auto o =
      inject_named(small_workload(), "me_sdata", 0, FaultModel::kStuckAt1);
  EXPECT_EQ(o, Outcome::kFailure);
}

// ---- ISS campaign -------------------------------------------------------------------

TEST(IssCampaign, RunsAndClassifies) {
  IssCampaignConfig cfg;
  cfg.samples = 60;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  const auto r = engine::run_iss_campaign_engine(small_workload(), cfg);
  EXPECT_EQ(r.runs.size(), 120u);
  EXPECT_GT(r.golden_instret, 0u);
  for (const auto& st : r.per_model) {
    EXPECT_EQ(st.runs, 60u);
    EXPECT_LE(st.failures + st.latent, st.runs);
  }
}

TEST(IssCampaign, PermanentFaultsFailMoreThanTransients) {
  IssCampaignConfig cfg;
  cfg.samples = 120;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  const auto r = engine::run_iss_campaign_engine(
      workloads::build("rspeed", {.iterations = 1, .data_seed = 1}), cfg);
  EXPECT_GE(r.per_model[0].pf(), r.per_model[1].pf());
}

// ---- lockstep ------------------------------------------------------------------------

TEST(Lockstep, DetectsStoreDataFault) {
  const auto prog = small_workload();
  Memory mem;
  rtlcore::Leon3Core probe(mem);  // only for node lookup
  const auto id = probe.sim().find_node("me_sdata");
  ASSERT_TRUE(id.has_value());
  FaultSite site{*id, 1, FaultModel::kStuckAt1, 20};
  const auto r = run_lockstep(prog, site);
  EXPECT_TRUE(r.detected);
  EXPECT_GT(r.detect_cycle, site.inject_cycle);
  EXPECT_EQ(r.detection_latency, r.detect_cycle - site.inject_cycle);
}

TEST(Lockstep, SilentFaultNotDetected) {
  const auto prog = small_workload();
  Memory mem;
  rtlcore::Leon3Core probe(mem);
  const auto id = probe.sim().find_node("r_w4_8");
  ASSERT_TRUE(id.has_value());
  FaultSite site{*id, 3, FaultModel::kStuckAt1, 20};
  const auto r = run_lockstep(prog, site);
  EXPECT_FALSE(r.detected);
  EXPECT_EQ(r.master_halt, iss::HaltReason::kHalted);
  EXPECT_EQ(r.checker_halt, iss::HaltReason::kHalted);
}

// ---- report --------------------------------------------------------------------------

TEST(Report, TableRendersAligned) {
  TextTable t({"bench", "Pf"});
  t.add_row({"rspeed", TextTable::pct(0.25)});
  t.add_row({"membench-long-name", TextTable::pct(0.071, 2)});
  const std::string s = t.render();
  EXPECT_NE(s.find("| bench"), std::string::npos);
  EXPECT_NE(s.find("25.0%"), std::string::npos);
  EXPECT_NE(s.find("7.10%"), std::string::npos);
  // All lines have equal length.
  std::size_t first = s.find('\n');
  std::size_t pos = 0, len = first;
  while (pos < s.size()) {
    const std::size_t next = s.find('\n', pos);
    if (next == std::string::npos) break;
    EXPECT_EQ(next - pos, len);
    pos = next + 1;
  }
}

TEST(Report, NumberFormatting) {
  EXPECT_EQ(TextTable::pct(0.5), "50.0%");
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::num(2.0, 0), "2");
}

TEST(Report, PctRendersNonFiniteAsNa) {
  // A 0-sample campaign divides 0/0: the table must say "n/a", not "nan%"
  // or "-nan%" (which read as formatting bugs in a report).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(TextTable::pct(nan), "n/a");
  EXPECT_EQ(TextTable::pct(-nan), "n/a");
  EXPECT_EQ(TextTable::pct(inf), "n/a");
  EXPECT_EQ(TextTable::pct(-inf), "n/a");
  // A zeroed CampaignStats (runs == 0) renders cleanly end to end.
  CampaignStats zero;
  TextTable t({"model", "Pf"});
  t.add_row({"none", TextTable::pct(zero.pf())});
  EXPECT_NE(t.render().find("0.0%"), std::string::npos);
  TextTable u({"model", "Pf"});
  u.add_row({"none", TextTable::pct(0.0 / static_cast<double>(zero.runs))});
  EXPECT_NE(u.render().find("n/a"), std::string::npos);
}

TEST(Report, AddRowRejectsRowsWiderThanHeader) {
  TextTable t({"a", "b"});
  t.add_row({"1"});            // short rows pad
  t.add_row({"1", "2"});       // exact rows fine
  EXPECT_THROW(t.add_row({"1", "2", "3"}), std::invalid_argument);
  // The two good rows survive; render still aligns.
  const std::string s = t.render();
  EXPECT_NE(s.find("| 1 |"), std::string::npos);
}

}  // namespace
}  // namespace issrtl::fault
