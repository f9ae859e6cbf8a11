#include "engine/rtl_backend.hpp"

#include <algorithm>
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

/// Rung-size estimate for the ladder's byte cap: the node-value array plus
/// fixed overhead plus per-page bookkeeping. COW pages are shared with the
/// golden image, so a rung is charged the pointer-copy cost per page, not
/// 4 KiB — the bytes a later store forces to be copied are attributed to
/// the writer, not the snapshot.
std::size_t snapshot_bytes(const RtlCampaignBackend::GoldenSnapshot& s) {
  return s.core.node_values.size() * sizeof(u32) +
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
      ladder_(opts.checkpoint ? initial_ladder_stride(opts.ladder_stride) : 0,
              opts.ladder_max_bytes, ladder_rung_limit(opts.ladder_stride)),
      iss_ladder_(opts.mixed_fidelity && opts.checkpoint
                      ? initial_ladder_stride(opts.ladder_stride)
                      : 0,
                  opts.ladder_max_bytes,
                  ladder_rung_limit(opts.ladder_stride)) {
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
      snap->core = golden.checkpoint_lite();
      snap->mem = golden_mem_.clone();
      snap->writes = golden.offcore().writes().size();
      snap->reads = golden.offcore().reads().size();
      const std::size_t bytes = snapshot_bytes(*snap);
      ladder_.record(golden.cycles(), std::move(snap), bytes);
    }
    golden.step();
    if (opts_.mixed_fidelity) {
      // Retirement boundaries for the transplant (single-issue, so at most
      // one per cycle; the loop form also absorbs the final halting step).
      for (u64 r = retire_cycle_.size(); r < golden.instret(); ++r) {
        retire_cycle_.push_back(golden.cycles());
      }
    }
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
  if (opts_.mixed_fidelity) {
    // ISS golden pass: the same program on the functional emulator, rungs
    // on the retired-instruction grid so workers can position the prefix
    // at ISS speed. Runs lockstep-validated against the RTL golden run —
    // any architectural, trace or memory disagreement means the transplant
    // contract does not hold for this workload, which must fail loudly, not
    // as misclassified injections.
    iss_golden_mem_ = initial_mem_.clone();
    iss::Emulator iss_golden(iss_golden_mem_);
    iss_golden.set_fast_path(opts_.iss_fast_path);
    iss_golden.reset(prog_.entry);
    while (iss_golden.instret() < golden_instret_ &&
           iss_golden.halt_reason() == iss::HaltReason::kRunning) {
      if (iss_ladder_.wants(iss_golden.instret())) {
        auto snap = std::make_shared<IssGoldenSnapshot>();
        snap->emu = iss_golden.checkpoint_lite();
        snap->mem = iss_golden_mem_.clone();
        snap->writes = iss_golden.offcore().writes().size();
        const std::size_t bytes =
            sizeof(*snap) + snap->mem.allocated_pages() * 64;
        iss_ladder_.record(iss_golden.instret(), std::move(snap), bytes);
      }
      // Fast block-walk between rung grid points (stride may grow as the
      // auto ladder thins itself, so it is re-read every lap).
      u64 target = golden_instret_;
      if (iss_ladder_.enabled()) {
        const u64 stride = iss_ladder_.stride();
        target = std::min(target,
                          (iss_golden.instret() / stride + 1) * stride);
      }
      iss_golden.advance(target - iss_golden.instret());
    }
    const iss::ArchState& fs = iss_golden.state();
    const std::vector<BusRecord>& iw = iss_golden.offcore().writes();
    const std::vector<BusRecord>& gw = golden_trace_.writes();
    bool writes_match = iw.size() == gw.size();
    for (std::size_t i = 0; writes_match && i < iw.size(); ++i) {
      writes_match = iw[i].same_payload(gw[i]);
    }
    if (iss_golden.halt_reason() != iss::HaltReason::kHalted ||
        iss_golden.instret() != golden_instret_ ||
        retire_cycle_.size() != golden_instret_ || !writes_match ||
        fs.regs != golden_state_.regs || fs.cwp != golden_state_.cwp ||
        !(fs.icc == golden_state_.icc) || fs.y != golden_state_.y ||
        fs.window_depth != golden_state_.window_depth ||
        !iss_golden_mem_.equals(golden_mem_)) {
      throw std::runtime_error(
          "mixed-fidelity lockstep violation: ISS and RTL golden runs "
          "disagree for workload " +
          prog_.name);
    }
  }
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
  // Mixed fidelity changes what a record means for faults that interact
  // with the in-flight pipeline at the injection instant (the transplanted
  // suffix starts from an empty pipeline), so it is part of the campaign
  // identity — unlike the schedule-only engine options, which stay out.
  fp.mix(static_cast<u64>(opts_.mixed_fidelity));
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
  const auto* rung =
      b_.opts_.checkpoint ? b_.ladder_.best_at_or_below(inject_cycle) : nullptr;
  const bool rolling_usable = b_.opts_.checkpoint && have_checkpoint_ &&
                              checkpoint_.cycle <= inject_cycle;
  if (rolling_usable &&
      (rung == nullptr || rung->instant <= checkpoint_.cycle)) {
    core_.restore(checkpoint_, b_.golden_trace_, checkpoint_writes_,
                  checkpoint_reads_);
    mem_ = checkpoint_mem_.clone();
    b_.rolling_restores_.fetch_add(1, std::memory_order_relaxed);
  } else if (rung != nullptr) {
    core_.restore(rung->snap->core, b_.golden_trace_, rung->snap->writes,
                  rung->snap->reads);
    mem_ = rung->snap->mem.clone();
    b_.ladder_restores_.fetch_add(1, std::memory_order_relaxed);
  } else {
    mem_ = b_.initial_mem_.clone();
    core_.reset(b_.prog_.entry);
    have_checkpoint_ = false;
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
  if (b_.opts_.checkpoint &&
      (!have_checkpoint_ || checkpoint_.cycle != core_.cycles())) {
    checkpoint_ = core_.checkpoint_lite();
    checkpoint_mem_ = mem_.clone();
    checkpoint_writes_ = core_.offcore().writes().size();
    checkpoint_reads_ = core_.offcore().reads().size();
    have_checkpoint_ = true;
  }
}

void RtlCampaignBackend::Worker::position_iss(u64 instret_target) {
  if (iss_emu_ == nullptr) {
    iss_emu_ = std::make_unique<iss::Emulator>(iss_mem_);
    iss_emu_->set_fast_path(b_.opts_.iss_fast_path);
  }
  iss::Emulator& emu = *iss_emu_;
  const auto* rung = b_.iss_ladder_.best_at_or_below(instret_target);
  const bool rolling = iss_valid_ && emu.instret() <= instret_target;
  if (rolling && (rung == nullptr || rung->instant <= emu.instret())) {
    // The emulator itself is the rolling checkpoint: just keep advancing.
    b_.rolling_restores_.fetch_add(1, std::memory_order_relaxed);
  } else if (rung != nullptr) {
    iss_mem_ = rung->snap->mem.clone();
    // checkpoint_lite rungs carry an empty trace; the inherited prefix
    // exists only as the write-count base (the transplant rebuilds the
    // actual records from the golden trace).
    emu.restore(rung->snap->emu);
    iss_writes_base_ = rung->snap->writes;
    b_.ladder_restores_.fetch_add(1, std::memory_order_relaxed);
  } else {
    iss_mem_ = b_.initial_mem_.clone();
    emu.reset(b_.prog_.entry);
    iss_writes_base_ = 0;
    b_.cold_resets_.fetch_add(1, std::memory_order_relaxed);
  }
  iss_valid_ = true;
  if (emu.instret() < instret_target &&
      emu.halt_reason() == iss::HaltReason::kRunning) {
    const u64 before = emu.instret();
    emu.advance(instret_target - before);
    b_.fast_forward_cycles_.fetch_add(emu.instret() - before,
                                      std::memory_order_relaxed);
  }
}

u64 RtlCampaignBackend::Worker::prepare_mixed(u64 inject_cycle) {
  core_.sim().clear_faults();
  // Retirement boundary: instructions retired at or before the instant.
  const std::vector<u64>& rc = b_.retire_cycle_;
  u64 n = static_cast<u64>(
      std::upper_bound(rc.begin(), rc.end(), inject_cycle) - rc.begin());
  position_iss(n);
  iss::Emulator& emu = *iss_emu_;
  // Drained-boundary rule: a boundary inside a delay slot has an in-flight
  // control transfer (npc != pc + 4) that an empty pipeline cannot
  // represent; hand over one instruction later (the golden timebase below
  // moves with n).
  while (emu.halt_reason() == iss::HaltReason::kRunning &&
         emu.state().npc != emu.state().pc + 4) {
    emu.step();
    ++n;
  }
  const u64 boundary_cycle = n == 0 ? 0 : rc[n - 1];
  const std::size_t prefix_writes =
      iss_writes_base_ + emu.offcore().writes().size();
  mem_ = iss_mem_.clone();
  core_.transplant(emu.state(), boundary_cycle, n, emu.halt_reason(),
                   emu.trap_code(), b_.golden_trace_, prefix_writes, 0);
  // Refill the pipeline at RTL fidelity up to the nominal instant. (The
  // forward adjustment above can leave the boundary past inject_cycle; the
  // fault then arms at the boundary, which is the reference cycle
  // returned for the latency arithmetic.)
  u64 stepped = 0;
  while (core_.cycles() < inject_cycle &&
         core_.halt_reason() == iss::HaltReason::kRunning) {
    core_.step();
    ++stepped;
  }
  if (stepped != 0) {
    b_.fast_forward_cycles_.fetch_add(stepped, std::memory_order_relaxed);
  }
  return core_.cycles();
}

fault::InjectionResult RtlCampaignBackend::Worker::run_site(
    std::size_t index) {
  const fault::FaultSite site = b_.sites_[index];
  u64 inject_ref = site.inject_cycle;
  if (b_.opts_.mixed_fidelity) {
    inject_ref = prepare_mixed(site.inject_cycle);
  } else {
    prepare(site.inject_cycle);
  }
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
  // are crossed and classify silent on the spot. Mixed fidelity gates the
  // oracle off: the transplanted pipeline refills on a shifted schedule,
  // so the node state can never coincide with a golden rung — the probes
  // would only burn cycles.
  const bool converge = !b_.opts_.mixed_fidelity &&
                        b_.opts_.converge_cutoff && b_.ladder_.enabled() &&
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
        const GoldenSnapshot& g = *rung->snap;
        const rtlcore::CoreActivityScalars sc = core_.activity_scalars();
        // Cheap scalar gate first; reads are deliberately not compared —
        // past bus reads are diagnostics, not state the core evolves from.
        if (sc.instret == g.core.instret && sc.slot_seq == g.core.slot_seq &&
            sc.next_fetch_seq == g.core.next_fetch_seq &&
            sc.redirect_after_seq == g.core.redirect_after_seq &&
            sc.annul_seq == g.core.annul_seq && sc.bus_writes == g.writes &&
            core_.node_values_equal(g.core.node_values) &&
            core_.memory().equals(g.mem)) {
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
        div.cycle > inject_ref ? div.cycle - inject_ref : 0;
  } else if (halt == iss::HaltReason::kStepLimit) {
    result.outcome = fault::Outcome::kHang;
    result.latency_cycles = b_.watchdog_ - inject_ref;
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
  result.replay.rolling_restores = rolling_restores_.load();
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
