#include "engine/rtl_backend.hpp"

#include <algorithm>
#include <string>

#include "engine/activation.hpp"
#include "engine/stats.hpp"

namespace issrtl::engine {

namespace {

/// Complete architectural + memory state comparison for the latent check.
bool states_match(const rtlcore::Leon3Core& faulty,
                  const iss::ArchState& golden_state, const Memory& golden_mem) {
  const iss::ArchState fs = faulty.arch_state();
  if (fs.regs != golden_state.regs) return false;
  if (fs.cwp != golden_state.cwp) return false;
  if (!(fs.icc == golden_state.icc)) return false;
  if (fs.y != golden_state.y) return false;
  return faulty.memory().equals(golden_mem);
}

}  // namespace

RtlCampaignBackend::RtlCampaignBackend(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg,
                                       const EngineOptions& opts)
    : cfg_(cfg), core_cfg_(core_cfg), replay_(prog, opts) {
  rtlcore::Leon3Core golden(replay_.golden_mem(), core_cfg_);
  // Same 50M-cycle watchdog as Leon3Core::run's default.
  replay_.record(golden, 50'000'000);
  golden_instret_ = golden.instret();
  golden_state_ = golden.arch_state();
  sites_ = fault::build_fault_list(golden.sim(), cfg_,
                                   replay_.golden_instant());
  fail_spec_ = parse_fail_sites(opts.fail_sites);
  // Snapshot the node metadata so finish() can label records without the
  // golden core (and without workers copying strings in the per-site loop).
  const rtl::SimContext& sim = golden.sim();
  node_names_.reserve(sim.node_count());
  node_units_.reserve(sim.node_count());
  for (rtl::NodeId id = 0; id < sim.node_count(); ++id) {
    node_names_.push_back(sim.name(id));
    node_units_.push_back(sim.unit(id));
  }
}

u64 RtlCampaignBackend::campaign_key() const {
  Fingerprint fp;
  // v2: uniform-random instants span the whole golden run; v1 journals
  // hold sites drawn from its first half.
  fp.mix_str("issrtl-rtl-campaign-v2");
  replay_.mix_image(fp);
  // Campaign config: every field that shapes the fault list or the
  // classification of a site.
  fp.mix_str(cfg_.unit_prefix);
  fp.mix(cfg_.models.size());
  for (const rtl::FaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.instants_per_site);
  fp.mix(cfg_.seed);
  fp.mix(static_cast<u64>(cfg_.inject_time));
  fp.mix(cfg_.fixed_cycle);
  fp.mix(kWatchdogFactor);
  // Golden-run summary: a cheap proxy for the core config and simulator
  // semantics — any change to either moves these and retires the journal.
  fp.mix(replay_.golden_instant());
  fp.mix(golden_instret_);
  fp.mix(replay_.golden_trace().writes().size());
  fp.mix(sites_.size());
  return fp.h;
}

u64 RtlCampaignBackend::site_key(std::size_t i) const {
  const fault::FaultSite& s = sites_[i];
  Fingerprint fp;
  fp.mix_str("issrtl-rtl-site-v1");
  fp.mix(i);
  fp.mix(s.node);
  fp.mix(s.bit);
  fp.mix(static_cast<u64>(s.model));
  fp.mix(s.inject_cycle);
  return fp.h;
}

JournalEntry RtlCampaignBackend::journal_entry(std::size_t i,
                                               const Record& r) const {
  JournalEntry e;
  e.index = i;
  e.site_key = site_key(i);
  e.outcome = static_cast<u32>(r.outcome);
  e.latency = r.latency_cycles;
  e.halt = static_cast<u32>(r.halt);
  e.error = r.error;
  return e;
}

RtlCampaignBackend::Record RtlCampaignBackend::record_from_journal(
    const JournalEntry& e) const {
  Record r;
  r.site = sites_[e.index];
  r.outcome = static_cast<fault::Outcome>(e.outcome);
  r.latency_cycles = e.latency;
  r.halt = static_cast<iss::HaltReason>(e.halt);
  r.error = e.error;
  return r;
}

RtlCampaignBackend::Record RtlCampaignBackend::error_record(
    std::size_t i, const std::string& what) const {
  Record r;
  r.site = sites_[i];
  r.outcome = fault::Outcome::kEngineError;
  r.halt = iss::HaltReason::kRunning;  // the simulation never concluded
  r.error = what;
  return r;
}

bool RtlCampaignBackend::prescreened(std::size_t i) const {
  if (sites_.at(i).model == rtl::FaultModel::kTransientBitFlip) return false;
  std::call_once(screen_once_, [this] {
    Worker scratch(*this);
    screen(scratch.core_, scratch.mem_);
  });
  return never_activated_[i] != 0;
}

void RtlCampaignBackend::screen(rtlcore::Leon3Core& core, Memory& mem) const {
  // Permanent sites, per distinct node.
  std::vector<std::size_t> index;
  std::vector<rtl::NodeId> nodes;
  for (std::size_t i = 0; i < sites_.size(); ++i) {
    if (sites_[i].model != rtl::FaultModel::kTransientBitFlip) {
      index.push_back(i);
      nodes.push_back(sites_[i].node);
    }
  }
  never_activated_.assign(sites_.size(), 0);
  if (index.empty()) return;
  std::ranges::sort(nodes);
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<ActivationSite> screened;
  for (const std::size_t i : index) {
    const fault::FaultSite& site = sites_[i];
    const auto slot = static_cast<std::size_t>(
        std::ranges::lower_bound(nodes, site.node) - nodes.begin());
    screened.push_back({slot, site.bit, site.model, site.inject_cycle});
  }
  const u64 first =
      std::ranges::min(screened, {}, &ActivationSite::instant).instant;

  // A node behind a read port (register-file entry, cache array entry) is
  // keyed on the values the port returns; every other node on the raw
  // values it takes.
  rtlcore::Leon3Core::ReadProbes probes = core.read_probes();
  std::vector<rtl::ReadProbe*> probe_of(nodes.size(), nullptr);
  std::vector<rtl::NodeId> watched;
  for (std::size_t slot = 0; slot < nodes.size(); ++slot) {
    for (rtl::ReadProbe& probe : probes) {
      if (probe.covers(nodes[slot])) probe_of[slot] = &probe;
    }
    if (probe_of[slot] == nullptr) watched.push_back(nodes[slot]);
  }

  const auto advance_to = [&core](u64 instant) {
    if (core.cycles() < instant) core.advance(instant - core.cycles());
  };
  // The pass replays the golden run, untallied: it positions no site.
  replay_.restore(core, mem, first);
  advance_to(first);
  rtl::SimContext& sim = core.sim();
  sim.watch(watched);
  core.record_reads(&probes);
  struct Unwatch {
    rtlcore::Leon3Core& core;
    ~Unwatch() {
      core.sim().unwatch();
      core.record_reads(nullptr);
    }
  } unwatch{core};
  const std::vector<Activation> verdicts = screen_activation(
      screened, nodes.size(), replay_.golden_instant(), advance_to,
      [&](std::size_t slot) {
        return probe_of[slot] != nullptr ? probe_of[slot]->take(nodes[slot])
                                         : sim.take_seen(nodes[slot]);
      },
      [&](const ActivationSite& site) {
        const u32 raw = sim.value(nodes[site.slot]);
        return probe_of[site.slot] != nullptr
                   ? read_keyed_arm_value(site, raw)
                   : raw;
      });
  for (std::size_t k = 0; k < index.size(); ++k) {
    never_activated_[index[k]] = verdicts[k].never ? 1 : 0;
  }
}

RtlCampaignBackend::Worker::Worker(const RtlCampaignBackend& backend)
    : b_(backend), core_(mem_, backend.core_cfg_) {}

void RtlCampaignBackend::Worker::fail_at(std::size_t index, FailStage stage) {
  maybe_fail_stage(b_.fail_spec_, fail_attempts_, index, stage);
}

fault::InjectionResult RtlCampaignBackend::Worker::run_site(
    std::size_t index) {
  const fault::FaultSite& site = b_.sites_[index];
  if (site.model != rtl::FaultModel::kTransientBitFlip) {
    std::call_once(b_.screen_once_, [this] { b_.screen(core_, mem_); });
    if (b_.never_activated_[index] != 0) {
      // The faulty run would equal the golden run cycle for cycle: the
      // record a simulation produces, through every stage hook.
      b_.prescreened_.fetch_add(1, std::memory_order_relaxed);
      for (const FailStage stage : {FailStage::kRestore, FailStage::kArm,
                                    FailStage::kStep, FailStage::kClassify}) {
        fail_at(index, stage);
      }
      fault::InjectionResult result;
      result.site = site;
      result.outcome = fault::Outcome::kSilent;
      result.halt = iss::HaltReason::kHalted;
      return result;
    }
  }
  return simulate(index);
}

fault::InjectionResult RtlCampaignBackend::Worker::simulate(
    std::size_t index) {
  const fault::FaultSite site = b_.sites_[index];
  b_.replay_.position(core_, mem_, site.inject_cycle);
  fail_at(index, FailStage::kRestore);
  core_.sim().arm_fault(site.node, site.model, site.bit);
  fail_at(index, FailStage::kArm);

  Replay::Suffix suffix(b_.replay_, core_, mem_,
                        site.model == rtl::FaultModel::kTransientBitFlip);
  u64 budget = suffix.budget();
  fail_at(index, FailStage::kStep);
  iss::HaltReason halt = core_.halt_reason();
  while (budget > 0 && halt == iss::HaltReason::kRunning &&
         !suffix.diverged()) {
    core_.step();
    --budget;
    halt = core_.halt_reason();
    if (suffix.converged(halt)) {
      // The run retires silently with the golden halt reason.
      fault::InjectionResult result;
      result.site = site;
      result.outcome = fault::Outcome::kSilent;
      result.halt = iss::HaltReason::kHalted;
      return result;
    }
  }
  if (halt == iss::HaltReason::kRunning && !suffix.diverged()) {
    halt = iss::HaltReason::kStepLimit;  // watchdog expired
  }
  fail_at(index, FailStage::kClassify);

  fault::InjectionResult result;
  result.site = site;
  result.halt = halt;  // node_name/unit are resolved once, in finish()

  const TraceDivergence div =
      core_.offcore().compare_writes(b_.replay_.golden_trace());
  if (div.diverged) {
    result.outcome = halt == iss::HaltReason::kStepLimit &&
                             div.index >= core_.offcore().writes().size()
                         ? fault::Outcome::kHang
                         : fault::Outcome::kFailure;
    result.latency_cycles =
        div.cycle > site.inject_cycle ? div.cycle - site.inject_cycle : 0;
  } else if (halt == iss::HaltReason::kStepLimit) {
    result.outcome = fault::Outcome::kHang;
    result.latency_cycles = b_.replay_.watchdog() - site.inject_cycle;
  } else if (states_match(core_, b_.golden_state_, b_.replay_.golden_mem())) {
    result.outcome = fault::Outcome::kSilent;
  } else {
    result.outcome = fault::Outcome::kLatent;
  }
  return result;
}

fault::CampaignResult RtlCampaignBackend::finish(EngineRun<Record> run) const {
  fault::CampaignResult result;
  replay_.finish(result, run);
  result.replay.prescreened = prescreened_.load();
  result.unit_prefix = cfg_.unit_prefix;
  result.golden_cycles = replay_.golden_instant();
  result.golden_instret = golden_instret_;
  for (fault::InjectionResult& r : result.runs) {
    r.node_name = node_names_[r.site.node];
    r.unit = node_units_[r.site.node];
  }
  for (const rtl::FaultModel model : cfg_.models) {
    OutcomeAccumulator acc;
    for (const fault::InjectionResult& r : result.runs) {
      if (r.site.model == model) acc.add(r.outcome, r.latency_cycles);
    }
    result.per_model.push_back(acc.to_stats(model));
  }
  return result;
}

fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg,
                                       const EngineOptions& opts) {
  RtlCampaignBackend backend(prog, cfg, core_cfg, opts);
  CampaignEngine engine(opts);
  return backend.finish(engine.run(backend));
}

}  // namespace issrtl::engine
