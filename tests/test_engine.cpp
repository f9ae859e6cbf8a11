// Campaign-engine tests: determinism under sharding (N-thread runs must be
// bit-identical to serial), checkpoint/restore correctness for both
// simulation vehicles, equivalence of the checkpoint ladder with the naive
// serial algorithm, and the early divergence cut-off.
#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>
#include <string>

#include "engine/engine.hpp"
#include "engine/iss_backend.hpp"
#include "engine/rtl_backend.hpp"
#include "engine/stats.hpp"
#include "isa/asm_parser.hpp"
#include "workloads/workload.hpp"

namespace issrtl::engine {
namespace {

using fault::CampaignConfig;
using fault::CampaignResult;
using fault::IssCampaignConfig;
using rtl::FaultModel;

isa::Program small_workload() {
  return workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
}

CampaignConfig rtl_cfg(std::size_t samples) {
  CampaignConfig cfg;
  cfg.samples = samples;
  cfg.models = {FaultModel::kStuckAt1, FaultModel::kOpenLine};
  // Spread inject instants so sites restore from many different rungs.
  cfg.inject_time = fault::InjectTime::kUniformRandom;
  return cfg;
}

void expect_identical(const CampaignResult& a, const CampaignResult& b) {
  ASSERT_EQ(a.runs.size(), b.runs.size());
  EXPECT_EQ(a.golden_cycles, b.golden_cycles);
  EXPECT_EQ(a.golden_instret, b.golden_instret);
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    const fault::InjectionResult& x = a.runs[i];
    const fault::InjectionResult& y = b.runs[i];
    EXPECT_EQ(x.site.node, y.site.node) << i;
    EXPECT_EQ(x.site.bit, y.site.bit) << i;
    EXPECT_EQ(x.site.inject_cycle, y.site.inject_cycle) << i;
    EXPECT_EQ(x.node_name, y.node_name) << i;
    EXPECT_EQ(x.outcome, y.outcome) << i;
    EXPECT_EQ(x.latency_cycles, y.latency_cycles) << i;
    EXPECT_EQ(x.halt, y.halt) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].hangs, b.per_model[m].hangs);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_EQ(a.per_model[m].silent, b.per_model[m].silent);
    EXPECT_EQ(a.per_model[m].max_latency, b.per_model[m].max_latency);
    EXPECT_DOUBLE_EQ(a.per_model[m].mean_latency, b.per_model[m].mean_latency);
    EXPECT_DOUBLE_EQ(a.per_model[m].pf(), b.per_model[m].pf());
  }
}

// ---- determinism under sharding ---------------------------------------------

TEST(Engine, RtlParallelBitIdenticalToSerial) {
  const auto prog = small_workload();
  const auto cfg = rtl_cfg(40);
  EngineOptions serial;
  serial.threads = 1;
  EngineOptions parallel;
  parallel.threads = 4;
  const CampaignResult a = run_rtl_campaign(prog, cfg, {}, serial);
  const CampaignResult b = run_rtl_campaign(prog, cfg, {}, parallel);
  expect_identical(a, b);
}

TEST(Engine, IssParallelBitIdenticalToSerial) {
  const auto prog = small_workload();
  IssCampaignConfig cfg;
  cfg.samples = 60;
  cfg.models = {iss::IssFaultModel::kStuckAt1, iss::IssFaultModel::kBitFlip};
  EngineOptions serial;
  serial.threads = 1;
  EngineOptions parallel;
  parallel.threads = 4;
  const auto a = run_iss_campaign_engine(prog, cfg, serial);
  const auto b = run_iss_campaign_engine(prog, cfg, parallel);
  ASSERT_EQ(a.runs.size(), b.runs.size());
  for (std::size_t i = 0; i < a.runs.size(); ++i) {
    EXPECT_EQ(a.runs[i].failure, b.runs[i].failure) << i;
    EXPECT_EQ(a.runs[i].latent, b.runs[i].latent) << i;
    EXPECT_EQ(a.runs[i].latency_instr, b.runs[i].latency_instr) << i;
  }
  ASSERT_EQ(a.per_model.size(), b.per_model.size());
  for (std::size_t m = 0; m < a.per_model.size(); ++m) {
    EXPECT_EQ(a.per_model[m].failures, b.per_model[m].failures);
    EXPECT_EQ(a.per_model[m].latent, b.per_model[m].latent);
    EXPECT_DOUBLE_EQ(a.per_model[m].pf(), b.per_model[m].pf());
  }
}

TEST(Engine, FaultListSeedAndShardStable) {
  // The engine assigns site i to shard i % threads and stores record i in
  // slot i — the fault list itself must not depend on who consumes it.
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const auto cfg = rtl_cfg(64);
  const auto a = fault::build_fault_list(core.sim(), cfg, 10000);
  const auto b = fault::build_fault_list(core.sim(), cfg, 10000);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].bit, b[i].bit);
    EXPECT_EQ(a[i].inject_cycle, b[i].inject_cycle);
    EXPECT_EQ(a[i].model, b[i].model);
  }
}

// ---- fast-path equivalence --------------------------------------------------

TEST(Engine, CheckpointingDoesNotChangeResults) {
  const auto prog = small_workload();
  const auto cfg = rtl_cfg(30);
  EngineOptions naive;
  naive.threads = 1;
  naive.ladder_stride = 0;  // every prefix re-simulated from reset
  EngineOptions checkpointed;
  checkpointed.threads = 1;
  expect_identical(run_rtl_campaign(prog, cfg, {}, naive),
                   run_rtl_campaign(prog, cfg, {}, checkpointed));
}

TEST(Engine, EarlyStopAbandonsDivergedRuns) {
  // A faulty run stops at its first wrong or extra off-core write and
  // keeps halt == kRunning; only a failure can stop that way. Simulated on
  // past that write, every such run of this campaign halts before the
  // watchdog, so without the cut-off no record keeps kRunning.
  CampaignConfig cfg;
  cfg.samples = 30;
  cfg.models = {FaultModel::kStuckAt1, FaultModel::kOpenLine};
  const CampaignResult r = run_rtl_campaign(small_workload(), cfg);
  std::size_t abandoned = 0;
  for (const fault::InjectionResult& run : r.runs) {
    if (run.halt != iss::HaltReason::kRunning ||
        run.outcome == fault::Outcome::kEngineError) {
      continue;
    }
    EXPECT_EQ(run.outcome, fault::Outcome::kFailure) << run.node_name;
    ++abandoned;
  }
  EXPECT_GT(abandoned, 0u) << "expected at least one early-stopped failure";
}

// Register-file entries are pre-screened on the values the read port
// returns. Each RA read kind is the only reader of one global: rs1 (%g1),
// rs2 (%g2), store data (%g3) and STD's second word (%g5). A stuck-at
// opposite to the bit read is activated, so it is simulated, and it shows.
// %g6 holds the opposite bit only until it is overwritten, before any
// read: that site is proven silent, as simulating it confirms.
TEST(Engine, RegisterFilePrescreenKeysOnReads) {
  const isa::Program prog = isa::assemble_text(R"(
    .data
    .align 8
    buf: .space 16
    .text
      set buf, %l7
      mov 0x2aa, %g1
      mov 0x2aa, %g2
      mov 0x2aa, %g3
      mov 0x2aa, %g4
      mov 0x2aa, %g5
      mov 1, %g6
      mov 0x2aa, %g6
      add %g1, 1, %l0
      add %g0, %g2, %l1
      st %g3, [%l7]
      std %g4, [%l7 + 8]
      add %g6, 1, %l2
      ta 0
  )");
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.regfile";
  cfg.models = {FaultModel::kStuckAt0, FaultModel::kStuckAt1};
  cfg.samples = 0;  // every bit of every entry
  cfg.inject_time = fault::InjectTime::kFixedCycle;
  cfg.fixed_cycle = 1;  // before any of the writes above retires
  RtlCampaignBackend backend(prog, cfg, {}, {});
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const auto find = [&](unsigned phys, FaultModel model) {
    for (std::size_t i = 0; i < backend.site_count(); ++i) {
      const fault::FaultSite& site = backend.site(i);
      if (site.bit == 0 && site.model == model &&
          core.regfile().entry_of(site.node) == phys) {
        return i;
      }
    }
    ADD_FAILURE() << "no bit-0 site on entry " << phys;
    return std::size_t{0};
  };
  const auto worker = backend.make_worker(0);
  for (const unsigned phys : {1u, 2u, 3u, 5u}) {
    SCOPED_TRACE("%g" + std::to_string(phys));
    const std::size_t i = find(phys, FaultModel::kStuckAt1);  // reads 0
    EXPECT_FALSE(backend.prescreened(i));
    EXPECT_NE(worker->simulate(i).outcome, fault::Outcome::kSilent);
  }
  const std::size_t dead = find(6, FaultModel::kStuckAt0);
  EXPECT_TRUE(backend.prescreened(dead));
  const fault::InjectionResult sim = worker->simulate(dead);
  EXPECT_EQ(sim.outcome, fault::Outcome::kSilent);
  EXPECT_EQ(sim.latency_cycles, 0u);
  EXPECT_EQ(sim.halt, iss::HaltReason::kHalted);
}

TEST(Engine, FetchFaultHangsRunToTheWatchdog) {
  // Fetch-unit faults are the hang factory: a stuck fetch_pc or redirect
  // bit freezes or derails the front end. Exhaustive over iu.fe. A hung
  // run steps until the watchdog expires, so every hang record carries
  // the watchdog's halt reason.
  const auto prog = small_workload();
  CampaignConfig cfg;
  cfg.unit_prefix = "iu.fe";
  cfg.samples = 0;  // exhaustive: every bit, 66 sites
  cfg.models = {FaultModel::kStuckAt0};
  const CampaignResult r = run_rtl_campaign(prog, cfg);
  std::size_t hangs = 0;
  for (const fault::InjectionResult& run : r.runs) {
    if (run.outcome != fault::Outcome::kHang) continue;
    ++hangs;
    EXPECT_EQ(run.halt, iss::HaltReason::kStepLimit) << run.node_name;
  }
  EXPECT_GT(hangs, 0u) << "expected at least one hang among fetch faults";
}

// Cross-refactor regression fixture: per-model outcome counts and a hash of
// the full (outcome, latency) sequence for this exact (workload, config,
// seed). The counts were captured from the pre-SoA-kernel serial driver.
// The hash is the one the opt-in whole-run instant window produced before
// it became the only draw; the first-half draw it replaced hashed to
// 53577475502873108 with the same counts. The campaign is fully
// deterministic, so any divergence — at any thread count, and at any
// checkpoint-ladder configuration (disabled, auto, explicit stride) —
// means a semantic change in the kernel, the memory model or the engine.
TEST(Engine, ResultsBitIdenticalToPreRefactorBaseline) {
  const auto prog = workloads::build("rspeed", {.iterations = 1, .data_seed = 1});
  CampaignConfig cfg;
  cfg.unit_prefix = "iu";
  cfg.samples = 60;
  cfg.models = {FaultModel::kStuckAt1};
  cfg.inject_time = fault::InjectTime::kUniformRandom;

  for (const unsigned threads : {1u, 3u}) {
    for (const u64 stride : {u64{0}, EngineOptions{}.ladder_stride, u64{977}}) {
      EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
      EXPECT_EQ(r.golden_cycles, 134966u) << threads;
      EXPECT_EQ(r.golden_instret, 41181u) << threads;
      const fault::CampaignStats s = r.stats_for(FaultModel::kStuckAt1);
      EXPECT_EQ(s.runs, 60u) << threads;
      EXPECT_EQ(s.failures, 13u) << threads;
      EXPECT_EQ(s.hangs, 0u) << threads;
      EXPECT_EQ(s.latent, 2u) << threads;
      EXPECT_EQ(s.silent, 45u) << threads;
      EXPECT_EQ(s.max_latency, 131258u) << threads;
      EXPECT_EQ(fault::outcome_hash(r), 955283264066474419ull)
          << threads << " threads, stride " << stride;
    }
  }
}

// ---- checkpoint correctness -------------------------------------------------

TEST(Checkpoint, RtlCoreResumesToIdenticalRun) {
  const auto prog = small_workload();

  Memory ref_mem;
  rtlcore::Leon3Core ref(ref_mem);
  ref.load(prog);
  ASSERT_EQ(ref.run(), iss::HaltReason::kHalted);

  Memory mem;
  rtlcore::Leon3Core core(mem);
  core.load(prog);
  const u64 mid = ref.cycles() / 2;
  while (core.cycles() < mid) core.step();
  const rtlcore::CoreCheckpoint ck = core.checkpoint();
  const Memory ck_mem = mem.clone();
  EXPECT_EQ(ck.writes, core.offcore().writes().size());
  EXPECT_TRUE(core.matches(ck));

  // Run to completion once...
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);
  EXPECT_FALSE(core.matches(ck));
  const u64 cycles_a = core.cycles();
  const auto writes_a = core.offcore().writes();
  const iss::ArchState state_a = core.arch_state();

  // ...then rewind to the checkpoint, rebuilding its bus-trace prefix from
  // the reference run's trace, and run again.
  core.sim().clear_faults();
  core.restore(ck, ref.offcore());
  EXPECT_EQ(core.offcore().writes().size(), ck.writes);
  EXPECT_TRUE(core.matches(ck));
  mem = ck_mem.clone();
  EXPECT_EQ(core.cycles(), mid);
  ASSERT_EQ(core.run(), iss::HaltReason::kHalted);

  EXPECT_EQ(core.cycles(), cycles_a);
  EXPECT_EQ(core.instret(), ref.instret());
  const auto& writes_b = core.offcore().writes();
  ASSERT_EQ(writes_a.size(), writes_b.size());
  for (std::size_t i = 0; i < writes_a.size(); ++i) {
    EXPECT_TRUE(writes_a[i].same_payload(writes_b[i])) << i;
    EXPECT_EQ(writes_a[i].cycle, writes_b[i].cycle) << i;
  }
  EXPECT_EQ(state_a, core.arch_state());
  EXPECT_TRUE(core.memory().equals(ref_mem));
  EXPECT_FALSE(core.offcore().compare_writes(ref.offcore()).diverged);

  // A core can also rewind itself: its own trace extends the checkpoint's.
  core.restore(ck, core.offcore());
  EXPECT_EQ(core.cycles(), mid);
  EXPECT_EQ(core.offcore().writes().size(), ck.writes);
}

TEST(Checkpoint, IssEmulatorResumesToIdenticalRun) {
  const auto prog = small_workload();

  Memory ref_mem;
  iss::Emulator ref(ref_mem);
  ref.load(prog);
  ASSERT_EQ(ref.run(), iss::HaltReason::kHalted);

  Memory mem;
  iss::Emulator emu(mem);
  emu.load(prog);
  const u64 mid = ref.instret() / 2;
  while (emu.instret() < mid) emu.step();
  const iss::EmuCheckpoint ck = emu.checkpoint();
  const Memory ck_mem = mem.clone();
  EXPECT_TRUE(emu.matches(ck));

  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);
  EXPECT_FALSE(emu.matches(ck));
  const u64 instret_a = emu.instret();
  const auto writes_a = emu.offcore().writes();
  const iss::ArchState state_a = emu.state();
  const unsigned diversity_a = emu.trace().diversity();

  emu.clear_faults();
  emu.restore(ck, ref.offcore());
  EXPECT_EQ(emu.offcore().writes().size(), ck.writes);
  EXPECT_TRUE(emu.matches(ck));
  mem = ck_mem.clone();
  EXPECT_EQ(emu.instret(), mid);
  ASSERT_EQ(emu.run(), iss::HaltReason::kHalted);

  EXPECT_EQ(emu.instret(), instret_a);
  EXPECT_EQ(emu.trace().diversity(), diversity_a);
  const auto& writes_b = emu.offcore().writes();
  ASSERT_EQ(writes_a.size(), writes_b.size());
  for (std::size_t i = 0; i < writes_a.size(); ++i) {
    EXPECT_TRUE(writes_a[i].same_payload(writes_b[i])) << i;
  }
  EXPECT_EQ(state_a, emu.state());
  EXPECT_TRUE(emu.memory().equals(ref_mem));
}

TEST(Checkpoint, RestoreRejectsForeignRegistry) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  rtlcore::CoreCheckpoint ck = core.checkpoint();
  ck.node_values.pop_back();
  EXPECT_THROW(core.restore(ck, core.offcore()), std::invalid_argument);
}

// ---- engine plumbing --------------------------------------------------------

TEST(Engine, ProgressIsMonotonicAndComplete) {
  const auto prog = small_workload();
  CampaignConfig cfg;
  cfg.samples = 12;
  EngineOptions opts;
  opts.threads = 2;
  opts.progress_stride = 1;
  std::size_t last = 0;
  std::size_t calls = 0;
  std::size_t final_total = 0;
  opts.on_progress = [&](const EngineProgress& p) {
    EXPECT_GE(p.completed, last);  // serialized under the engine's lock
    last = p.completed;
    final_total = p.total;
    ++calls;
  };
  const CampaignResult r = run_rtl_campaign(prog, cfg, {}, opts);
  EXPECT_EQ(r.runs.size(), 12u);
  EXPECT_EQ(last, 12u);
  EXPECT_EQ(final_total, 12u);
  EXPECT_GE(calls, 2u);
}

TEST(Engine, ResolveThreadsClampsToSites) {
  EXPECT_EQ(resolve_threads(8, 3), 3u);
  EXPECT_EQ(resolve_threads(2, 100), 2u);
  EXPECT_GE(resolve_threads(0, 100), 1u);
}

// RAII helper: set an environment variable for one test, restore after.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      setenv(name, value, 1);
    } else {
      unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      setenv(name_.c_str(), saved_.c_str(), 1);
    } else {
      unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string saved_;
  bool had_ = false;
};

TEST(Engine, OptionsFromEnvParsesValidValues) {
  ScopedEnv t("ISSRTL_THREADS", "6");
  ScopedEnv s("ISSRTL_CKPT_STRIDE", "977");
  const EngineOptions opts = options_from_env();
  EXPECT_EQ(opts.threads, 6u);
  EXPECT_EQ(opts.ladder_stride, 977u);
}

TEST(Engine, OptionsFromEnvAcceptsZeroStride) {
  ScopedEnv s("ISSRTL_CKPT_STRIDE", "0");
  EXPECT_EQ(options_from_env().ladder_stride, 0u);
}

TEST(Engine, OptionsFromEnvLeavesUnsetAndEmptyAlone) {
  ScopedEnv t("ISSRTL_THREADS", nullptr);
  ScopedEnv s("ISSRTL_CKPT_STRIDE", "");
  EngineOptions base;
  base.threads = 3;
  base.ladder_stride = 55;
  const EngineOptions opts = options_from_env(base);
  EXPECT_EQ(opts.threads, 3u);
  EXPECT_EQ(opts.ladder_stride, 55u);
}

TEST(Engine, OptionsFromEnvRejectsMalformedValues) {
  // strtoul-style parsing used to fold all of these into 0 or a wrapped
  // huge number and silently run a misconfigured campaign.
  const char* bad[] = {"abc", "-4", "4x", " 4", "+4", "0x10",
                       "99999999999999999999999999"};
  for (const char* v : bad) {
    ScopedEnv t("ISSRTL_THREADS", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
  for (const char* v : {"fast", "auto"}) {  // no stride literal is special
    ScopedEnv s("ISSRTL_CKPT_STRIDE", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
  {
    // Error messages must name the offending variable, or the user cannot
    // tell which of the four knobs to fix.
    ScopedEnv t("ISSRTL_THREADS", "abc");
    try {
      options_from_env();
      FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ISSRTL_THREADS"),
                std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Engine, OptionsFromEnvParsesJournalAndResume) {
  {
    ScopedEnv j("ISSRTL_JOURNAL", "/tmp/issrtl-env-journal");
    EXPECT_EQ(options_from_env().journal_dir, "/tmp/issrtl-env-journal");
  }
  {
    ScopedEnv j("ISSRTL_JOURNAL", nullptr);
    EngineOptions base;
    base.journal_dir = "keep";
    EXPECT_EQ(options_from_env(base).journal_dir, "keep");  // unset: untouched
  }
  {
    ScopedEnv r("ISSRTL_RESUME", "1");
    EXPECT_TRUE(options_from_env().resume);
  }
  {
    ScopedEnv r("ISSRTL_RESUME", "0");
    EXPECT_FALSE(options_from_env().resume);
  }
  // Resume is a boolean switch, not a count — anything but 0/1 is a typo
  // that must not silently decide whether journaled work is trusted.
  for (const char* v : {"2", "x", "yes", "-1", "true", "01x"}) {
    ScopedEnv r("ISSRTL_RESUME", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, OptionsFromEnvParsesDeadline) {
  {
    ScopedEnv d("ISSRTL_DEADLINE_MS", "1500");
    EXPECT_EQ(options_from_env().deadline_ms, 1500u);
  }
  {
    ScopedEnv d("ISSRTL_DEADLINE_MS", "0");  // 0 = no deadline
    EXPECT_EQ(options_from_env().deadline_ms, 0u);
  }
  for (const char* v : {"-1", "1x", "abc", " 5", "0x10", "1.5"}) {
    ScopedEnv d("ISSRTL_DEADLINE_MS", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, OptionsFromEnvValidatesFailSiteEagerly) {
  {
    ScopedEnv f("ISSRTL_FAIL_SITE", "3:once,7");
    EXPECT_EQ(options_from_env().fail_sites, "3:once,7");
  }
  {
    ScopedEnv f("ISSRTL_FAIL_SITE", "3:once:classify,7:step");
    EXPECT_EQ(options_from_env().fail_sites, "3:once:classify,7:step");
  }
  // A typo'd hook must fail at option parse time, by variable name — not
  // silently inject (or fail to inject) faults mid-campaign.
  for (const char* v : {"a", "3:twice", "3,", ",3", "3::once", "-1", ":once",
                        "3:bogus", "3:arm:step", "3:classify:"}) {
    ScopedEnv f("ISSRTL_FAIL_SITE", v);
    EXPECT_THROW(options_from_env(), std::invalid_argument) << v;
  }
}

TEST(Engine, ParseFailSitesSpec) {
  EXPECT_TRUE(parse_fail_sites("").empty());
  const FailSiteSpec s = parse_fail_sites("3:once,7");
  ASSERT_NE(s.find(3), nullptr);
  EXPECT_TRUE(s.find(3)->once);
  EXPECT_EQ(s.find(3)->stage, FailStage::kArm);  // default stage
  ASSERT_NE(s.find(7), nullptr);
  EXPECT_FALSE(s.find(7)->once);
  EXPECT_EQ(s.find(5), nullptr);
}

TEST(Engine, ParseFailSitesStageTags) {
  const FailSiteSpec s =
      parse_fail_sites("1:restore,2:arm,3:step,4:classify:once,5");
  ASSERT_NE(s.find(1), nullptr);
  EXPECT_EQ(s.find(1)->stage, FailStage::kRestore);
  ASSERT_NE(s.find(2), nullptr);
  EXPECT_EQ(s.find(2)->stage, FailStage::kArm);
  ASSERT_NE(s.find(3), nullptr);
  EXPECT_EQ(s.find(3)->stage, FailStage::kStep);
  ASSERT_NE(s.find(4), nullptr);
  EXPECT_EQ(s.find(4)->stage, FailStage::kClassify);
  EXPECT_TRUE(s.find(4)->once);  // tags compose in any order
  ASSERT_NE(s.find(5), nullptr);
  EXPECT_EQ(s.find(5)->stage, FailStage::kArm);
  // At most one stage tag per site: a second one is a conflict, not a
  // last-wins override.
  EXPECT_THROW(parse_fail_sites("3:restore:classify"), std::invalid_argument);
}

TEST(Engine, AccumulatorAggregatesOutcomes) {
  OutcomeAccumulator acc;
  acc.add(fault::Outcome::kFailure, 10);
  acc.add(fault::Outcome::kHang, 0);
  acc.add(fault::Outcome::kFailure, 30);
  acc.add(fault::Outcome::kSilent, 0);
  EXPECT_EQ(acc.runs, 4u);
  EXPECT_EQ(acc.max_latency, 30u);
  EXPECT_DOUBLE_EQ(acc.mean_latency(), 20.0);
  const fault::CampaignStats s = acc.to_stats(FaultModel::kStuckAt1);
  EXPECT_EQ(s.failures, 2u);
  EXPECT_EQ(s.hangs, 1u);
  EXPECT_DOUBLE_EQ(s.pf(), 3.0 / 4.0);
}

}  // namespace
}  // namespace issrtl::engine
