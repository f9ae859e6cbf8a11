#include "engine/rtl_backend.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "engine/stats.hpp"

namespace issrtl::engine {

namespace {

/// Complete architectural + memory state comparison for the latent check.
bool states_match(const rtlcore::Leon3Core& faulty,
                  const iss::ArchState& golden_state, const Memory& golden_mem,
                  bool compare_memory) {
  const iss::ArchState fs = faulty.arch_state();
  if (fs.regs != golden_state.regs) return false;
  if (fs.cwp != golden_state.cwp) return false;
  if (!(fs.icc == golden_state.icc)) return false;
  if (fs.y != golden_state.y) return false;
  if (compare_memory && !faulty.memory().equals(golden_mem)) return false;
  return true;
}

/// Rung-size estimate reported as ReplayCounters::ladder_bytes: the
/// node-value array plus fixed overhead plus per-page bookkeeping. COW
/// pages are shared with the golden image, so a rung is charged the
/// pointer-copy cost per page, not 4 KiB — the bytes a later store forces
/// to be copied are attributed to the writer, not the snapshot.
std::size_t snapshot_bytes(const RtlCampaignBackend::GoldenSnapshot& s) {
  return s.checkpoint.node_values.size() * sizeof(u32) +
         s.mem.allocated_pages() * 64 + sizeof(s);
}

}  // namespace

RtlCampaignBackend::RtlCampaignBackend(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg,
                                       const EngineOptions& opts)
    : prog_(prog),
      cfg_(cfg),
      core_cfg_(core_cfg),
      opts_(opts),
      ladder_(opts.ladder_stride) {
  // Load the program image once; the golden memory and every worker reset
  // clone from it, so pages neither run touches stay COW-shared and the
  // latent check's Memory::equals can short-circuit them by pointer.
  prog_.load_into(initial_mem_);
  golden_mem_ = initial_mem_.clone();
  rtlcore::Leon3Core golden(golden_mem_, core_cfg_);
  golden.reset(prog_.entry);
  // The golden run, stepped manually so the ladder can snapshot it on the
  // stride grid (same 50M-cycle watchdog as Leon3Core::run's default).
  constexpr u64 kGoldenMaxCycles = 50'000'000;
  for (u64 i = 0;
       i < kGoldenMaxCycles && golden.halt_reason() == iss::HaltReason::kRunning;
       ++i) {
    if (ladder_.wants(golden.cycles())) {
      auto snap = std::make_shared<GoldenSnapshot>();
      snap->checkpoint = golden.checkpoint();
      snap->mem = golden_mem_.clone();
      const std::size_t bytes = snapshot_bytes(*snap);
      ladder_.record(golden.cycles(), std::move(snap), bytes);
    }
    golden.step();
  }
  const iss::HaltReason golden_halt =
      golden.halt_reason() == iss::HaltReason::kRunning
          ? iss::HaltReason::kStepLimit
          : golden.halt_reason();
  if (golden_halt != iss::HaltReason::kHalted) {
    throw std::runtime_error("golden run did not halt cleanly: " +
                             std::string(iss::halt_reason_name(golden_halt)));
  }
  golden_cycles_ = golden.cycles();
  golden_instret_ = golden.instret();
  golden_trace_ = golden.offcore();
  golden_state_ = golden.arch_state();
  watchdog_ = static_cast<u64>(static_cast<double>(golden_cycles_) *
                                   cfg_.watchdog_factor +
                               1000);
  sites_ = fault::build_fault_list(golden.sim(), cfg_, golden_cycles_);
  fail_spec_ = parse_fail_sites(opts_.fail_sites);
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

std::unique_ptr<RtlCampaignBackend::Worker> RtlCampaignBackend::make_worker(
    unsigned shard) const {
  return std::make_unique<Worker>(*this, shard);
}

u64 RtlCampaignBackend::campaign_key() const {
  Fingerprint fp;
  fp.mix_str("issrtl-rtl-campaign-v1");
  // Workload image: name, layout and every code/data byte.
  fp.mix_str(prog_.name);
  fp.mix(prog_.code_base);
  fp.mix(prog_.data_base);
  fp.mix(prog_.entry);
  fp.mix(prog_.code.size());
  for (const u32 w : prog_.code) fp.mix(w);
  fp.mix(prog_.data.size());
  fp.mix_bytes(prog_.data.data(), prog_.data.size());
  // Campaign config: every field that shapes the fault list or the
  // classification of a site.
  fp.mix_str(cfg_.unit_prefix);
  fp.mix(cfg_.models.size());
  for (const rtl::FaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.instants_per_site);
  fp.mix(cfg_.seed);
  fp.mix(static_cast<u64>(cfg_.inject_time));
  fp.mix(static_cast<u64>(cfg_.instant_window));
  fp.mix(cfg_.fixed_cycle);
  fp.mix_bytes(&cfg_.watchdog_factor, sizeof(cfg_.watchdog_factor));
  fp.mix(static_cast<u64>(cfg_.compare_memory));
  // Golden-run summary: a cheap proxy for the core config and simulator
  // semantics — any change to either moves these and retires the journal.
  fp.mix(golden_cycles_);
  fp.mix(golden_instret_);
  fp.mix(golden_trace_.writes().size());
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

RtlCampaignBackend::Worker::Worker(const RtlCampaignBackend& backend,
                                   unsigned /*shard*/)
    : b_(backend), core_(mem_, backend.core_cfg_) {}

void RtlCampaignBackend::Worker::prepare(u64 inject_cycle) {
  core_.sim().clear_faults();
  if (const auto* rung = b_.ladder_.best_at_or_below(inject_cycle)) {
    core_.restore(rung->snap->checkpoint, b_.golden_trace_);
    mem_ = rung->snap->mem.clone();
    b_.ladder_restores_.fetch_add(1, std::memory_order_relaxed);
  } else {
    mem_ = b_.initial_mem_.clone();
    core_.reset(b_.prog_.entry);
    b_.cold_resets_.fetch_add(1, std::memory_order_relaxed);
  }
  u64 stepped = 0;
  while (core_.cycles() < inject_cycle &&
         core_.halt_reason() == iss::HaltReason::kRunning) {
    core_.step();
    ++stepped;
  }
  if (stepped != 0) {
    b_.fast_forward_cycles_.fetch_add(stepped, std::memory_order_relaxed);
  }
}

fault::InjectionResult RtlCampaignBackend::Worker::run_site(
    std::size_t index) {
  const fault::FaultSite site = b_.sites_[index];
  prepare(site.inject_cycle);
  maybe_fail_site(index, FailStage::kRestore);
  core_.sim().arm_fault(site.node, site.model, site.bit);
  maybe_fail_site(index, FailStage::kArm);

  // Faulty suffix under the serial driver's cycle budget: total cycles,
  // golden prefix included, may not exceed the watchdog. A prefix already at
  // or past the watchdog gets no further cycles and classifies as a hang
  // immediately (a budget of 1 would step past the watchdog).
  u64 budget =
      b_.watchdog_ > core_.cycles() ? b_.watchdog_ - core_.cycles() : 0;
  const std::vector<BusRecord>& golden_writes = b_.golden_trace_.writes();
  // Every prefix write replayed the golden run, so matching resumes here.
  std::size_t matched = core_.offcore().writes().size();
  // Transient faults leave no armed overlay behind, so a faulty run whose
  // full state coincides with the golden state at the same cycle is
  // provably identical from there on: compare against ladder rungs as they
  // are crossed and classify silent on the spot.
  const bool converge = b_.ladder_.enabled() &&
                        site.model == rtl::FaultModel::kTransientBitFlip;
  const bool track_writes = b_.opts_.early_stop || converge;
  const u64 rung_stride = b_.ladder_.stride();
  bool write_mismatch = false;
  bool definite_divergence = false;
  rtlcore::CoreActivityScalars scalars_prev;
  bool scalars_valid = false;
  bool nodes_valid = false;
  maybe_fail_site(index, FailStage::kStep);
  iss::HaltReason halt = core_.halt_reason();
  while (budget > 0 && halt == iss::HaltReason::kRunning &&
         !definite_divergence) {
    core_.step();
    --budget;
    halt = core_.halt_reason();
    if (track_writes) {
      const std::vector<BusRecord>& writes = core_.offcore().writes();
      while (!write_mismatch && matched < writes.size()) {
        if (matched >= golden_writes.size() ||
            !writes[matched].same_payload(golden_writes[matched])) {
          // A wrong or extra write can never heal: the run is a failure no
          // matter what it would do next. Abandon the simulation (early
          // stop) or at least stop comparing (convergence is off the
          // table).
          write_mismatch = true;
          if (b_.opts_.early_stop) definite_divergence = true;
        } else {
          ++matched;
        }
      }
    }
    if (converge && !write_mismatch && halt == iss::HaltReason::kRunning &&
        core_.cycles() % rung_stride == 0) {
      if (const auto* rung = b_.ladder_.at(core_.cycles())) {
        const rtlcore::CoreCheckpoint& g = rung->snap->checkpoint;
        const rtlcore::CoreActivityScalars sc = core_.activity_scalars();
        // Cheap scalar gate first; reads are deliberately not compared —
        // past bus reads are diagnostics, not state the core evolves from.
        if (sc.instret == g.instret && sc.slot_seq == g.slot_seq &&
            sc.next_fetch_seq == g.next_fetch_seq &&
            sc.redirect_after_seq == g.redirect_after_seq &&
            sc.annul_seq == g.annul_seq && sc.bus_writes == g.writes &&
            core_.node_values_equal(g.node_values) &&
            core_.memory().equals(rung->snap->mem)) {
          // State, memory and write history all coincide with the golden
          // run at this cycle: the remainder is the golden remainder. The
          // run retires silently with the golden halt reason.
          b_.convergence_cutoffs_.fetch_add(1, std::memory_order_relaxed);
          fault::InjectionResult result;
          result.site = site;
          result.outcome = fault::Outcome::kSilent;
          result.halt = iss::HaltReason::kHalted;
          return result;
        }
      }
    }
    // A run that outlived the golden cycle count is headed for the
    // watchdog; probe for a fixed point and, once found, skip the
    // remaining cycles — they are provably identical. The scalar
    // counters act as a filter: a spin-loop hang keeps fetching (so
    // next_fetch_seq advances every cycle) and never pays for the
    // node-array half of the probe.
    if (b_.opts_.hang_fast_forward && halt == iss::HaltReason::kRunning &&
        core_.cycles() > b_.golden_cycles_) {
      const rtlcore::CoreActivityScalars scalars = core_.activity_scalars();
      if (!scalars_valid || !(scalars == scalars_prev)) {
        scalars_prev = scalars;
        scalars_valid = true;
        nodes_valid = false;
      } else if (!nodes_valid) {
        core_.save_node_values(probe_nodes_);
        nodes_valid = true;
      } else if (core_.node_values_equal(probe_nodes_)) {
        halt = iss::HaltReason::kStepLimit;  // stuck: watchdog is certain
        break;
      } else {
        core_.save_node_values(probe_nodes_);
      }
    }
  }
  if (halt == iss::HaltReason::kRunning && !definite_divergence) {
    halt = iss::HaltReason::kStepLimit;  // watchdog expired
  }
  maybe_fail_site(index, FailStage::kClassify);

  fault::InjectionResult result;
  result.site = site;
  result.halt = halt;  // node_name/unit are resolved once, in finish()

  const TraceDivergence div =
      core_.offcore().compare_writes(b_.golden_trace_);
  if (div.diverged) {
    result.outcome = halt == iss::HaltReason::kStepLimit &&
                             div.index >= core_.offcore().writes().size()
                         ? fault::Outcome::kHang
                         : fault::Outcome::kFailure;
    result.latency_cycles =
        div.cycle > site.inject_cycle ? div.cycle - site.inject_cycle : 0;
  } else if (halt == iss::HaltReason::kStepLimit) {
    result.outcome = fault::Outcome::kHang;
    result.latency_cycles = b_.watchdog_ - site.inject_cycle;
  } else if (states_match(core_, b_.golden_state_, b_.golden_mem_,
                          b_.cfg_.compare_memory)) {
    result.outcome = fault::Outcome::kSilent;
  } else {
    result.outcome = fault::Outcome::kLatent;
  }
  return result;
}

void RtlCampaignBackend::Worker::maybe_fail_site(std::size_t site_index,
                                                 FailStage stage) {
  maybe_fail_stage(b_.fail_spec_, fail_attempts_, site_index, stage);
}

fault::CampaignResult RtlCampaignBackend::finish(EngineRun<Record> run) const {
  fault::CampaignResult result;
  result.workload = prog_.name;
  result.unit_prefix = cfg_.unit_prefix;
  result.golden_cycles = golden_cycles_;
  result.golden_instret = golden_instret_;
  result.replay.ladder_rungs = ladder_.rung_count();
  result.replay.ladder_bytes = ladder_.total_bytes();
  result.replay.ladder_evicted = ladder_.evicted_count();
  result.replay.ladder_restores = ladder_restores_.load();
  result.replay.cold_resets = cold_resets_.load();
  result.replay.fast_forward_cycles = fast_forward_cycles_.load();
  result.replay.convergence_cutoffs = convergence_cutoffs_.load();
  result.replay.journal_hits = run.journal_hits;
  result.replay.journal_dropped = run.journal_dropped;
  result.replay.sites_retried = run.sites_retried;
  result.replay.sites_engine_error = run.engine_errors;
  result.truncated = run.truncated;
  result.completed_sites = run.completed;
  result.total_sites = run.records.size();
  // Completed records only, kept in site order (an early stop leaves holes
  // in the site-indexed array; every record that is present is
  // bit-identical to the uninterrupted run's).
  result.runs.reserve(run.completed);
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    if (run.done[i] != 0) result.runs.push_back(std::move(run.records[i]));
  }
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
