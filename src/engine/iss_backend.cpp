#include "engine/iss_backend.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/stats.hpp"

namespace issrtl::engine {

namespace {

std::size_t snapshot_bytes(const IssCampaignBackend::GoldenSnapshot& s) {
  // sizeof(s) covers the inline EmuCheckpoint (ArchState + InstrTrace
  // count arrays; the off-core trace is kept as two prefix lengths);
  // pages are COW-shared with the golden image and charged at
  // bookkeeping cost.
  return sizeof(s) + s.mem.allocated_pages() * 64;
}

}  // namespace

IssCampaignBackend::IssCampaignBackend(const isa::Program& prog,
                                       const fault::IssCampaignConfig& cfg,
                                       const EngineOptions& opts)
    : prog_(prog),
      cfg_(cfg),
      opts_(opts),
      ladder_(opts.ladder_stride) {
  // Load the image once; the golden run and every worker reset clone from
  // it so untouched pages stay COW-shared across the whole campaign.
  prog_.load_into(initial_mem_);
  golden_mem_ = initial_mem_.clone();
  iss::Emulator golden(golden_mem_);
  golden.set_fast_path(opts_.iss_fast_path);
  golden.reset(prog_.entry);
  // The golden run, block-walked from one rung grid point to the next so
  // the ladder can snapshot it on the stride grid (same 10M-instruction
  // watchdog as Emulator::run's default). Every step short of the halt
  // retires one instruction, so each walk stops exactly on the grid.
  constexpr u64 kGoldenMaxSteps = 10'000'000;
  while (golden.instret() < kGoldenMaxSteps &&
         golden.halt_reason() == iss::HaltReason::kRunning) {
    if (ladder_.wants(golden.instret())) {
      auto snap = std::make_shared<GoldenSnapshot>();
      snap->checkpoint = golden.checkpoint();
      snap->mem = golden_mem_.clone();
      const std::size_t bytes = snapshot_bytes(*snap);
      ladder_.record(golden.instret(), std::move(snap), bytes);
    }
    // The stride is re-read every lap: the ladder doubles it as it thins
    // itself.
    u64 target = kGoldenMaxSteps;
    if (ladder_.enabled()) {
      const u64 stride = ladder_.stride();
      target = std::min(target, (golden.instret() / stride + 1) * stride);
    }
    golden.advance(target - golden.instret());
  }
  if (golden.halt_reason() != iss::HaltReason::kHalted) {
    throw std::runtime_error("ISS golden run did not halt cleanly");
  }
  golden_instret_ = golden.instret();
  golden_trace_ = golden.offcore();
  golden_state_ = golden.state();
  watchdog_ = static_cast<u64>(static_cast<double>(golden_instret_) *
                                   cfg_.watchdog_factor +
                               1000);

  // Same draw order as the original serial driver (models outer, samples
  // inner, three draws per site) so fault lists stay bit-identical.
  Xoshiro256 rng(cfg_.seed);
  faults_.reserve(cfg_.models.size() * cfg_.samples);
  for (const iss::IssFaultModel model : cfg_.models) {
    for (std::size_t i = 0; i < cfg_.samples; ++i) {
      iss::IssFault f;
      f.phys_reg = 1 + static_cast<unsigned>(
                           rng.next_below(iss::ArchState::kPhysRegs - 1));
      f.bit = static_cast<unsigned>(rng.next_below(32));
      f.model = model;
      f.inject_at_instr =
          1 + rng.next_below(std::max<u64>(1, golden_instret_ / 2));
      faults_.push_back(f);
    }
  }
  fail_spec_ = parse_fail_sites(opts_.fail_sites);
}

u64 IssCampaignBackend::campaign_key() const {
  Fingerprint fp;
  fp.mix_str("issrtl-iss-campaign-v1");
  fp.mix_str(prog_.name);
  fp.mix(prog_.code_base);
  fp.mix(prog_.data_base);
  fp.mix(prog_.entry);
  fp.mix(prog_.code.size());
  for (const u32 w : prog_.code) fp.mix(w);
  fp.mix(prog_.data.size());
  fp.mix_bytes(prog_.data.data(), prog_.data.size());
  fp.mix(cfg_.models.size());
  for (const iss::IssFaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.seed);
  fp.mix_bytes(&cfg_.watchdog_factor, sizeof(cfg_.watchdog_factor));
  fp.mix(golden_instret_);
  fp.mix(golden_trace_.writes().size());
  fp.mix(faults_.size());
  return fp.h;
}

u64 IssCampaignBackend::site_key(std::size_t i) const {
  const iss::IssFault& f = faults_[i];
  Fingerprint fp;
  fp.mix_str("issrtl-iss-site-v1");
  fp.mix(i);
  fp.mix(f.phys_reg);
  fp.mix(f.bit);
  fp.mix(static_cast<u64>(f.model));
  fp.mix(f.inject_at_instr);
  return fp.h;
}

JournalEntry IssCampaignBackend::journal_entry(std::size_t i,
                                               const Record& r) const {
  JournalEntry e;
  e.index = i;
  e.site_key = site_key(i);
  e.outcome = r.engine_error ? 4u : r.failure ? 2u : r.latent ? 1u : 0u;
  e.latency = r.latency_instr;
  e.halt = 0;  // the ISS record does not keep a halt reason
  e.error = r.error;
  return e;
}

IssCampaignBackend::Record IssCampaignBackend::record_from_journal(
    const JournalEntry& e) const {
  Record r;
  r.fault = faults_[e.index];
  r.engine_error = e.outcome == 4;
  r.failure = e.outcome == 2;
  r.latent = e.outcome == 1;
  r.latency_instr = e.latency;
  r.error = e.error;
  return r;
}

IssCampaignBackend::Record IssCampaignBackend::error_record(
    std::size_t i, const std::string& what) const {
  Record r;
  r.fault = faults_[i];
  r.engine_error = true;
  r.error = what;
  return r;
}

std::unique_ptr<IssCampaignBackend::Worker> IssCampaignBackend::make_worker(
    unsigned shard) const {
  return std::make_unique<Worker>(*this, shard);
}

IssCampaignBackend::Worker::Worker(const IssCampaignBackend& backend,
                                   unsigned /*shard*/)
    : b_(backend), emu_(mem_) {
  emu_.set_fast_path(backend.opts_.iss_fast_path);
}

void IssCampaignBackend::Worker::prepare(u64 inject_at_instr) {
  emu_.clear_faults();
  if (const auto* rung = b_.ladder_.best_at_or_below(inject_at_instr)) {
    emu_.restore(rung->snap->checkpoint, b_.golden_trace_);
    mem_ = rung->snap->mem.clone();
    b_.ladder_restores_.fetch_add(1, std::memory_order_relaxed);
  } else {
    mem_ = b_.initial_mem_.clone();
    emu_.reset(b_.prog_.entry);
    b_.cold_resets_.fetch_add(1, std::memory_order_relaxed);
  }
  // Every instant lies inside the golden run, which retires an
  // instruction per step until it halts, so the block walk lands exactly
  // on the instant and the instret delta is the step count.
  if (emu_.instret() < inject_at_instr &&
      emu_.halt_reason() == iss::HaltReason::kRunning) {
    const u64 before = emu_.instret();
    emu_.advance(inject_at_instr - before);
    b_.fast_forward_instrs_.fetch_add(emu_.instret() - before,
                                      std::memory_order_relaxed);
  }
}

fault::IssInjectionResult IssCampaignBackend::Worker::run_site(
    std::size_t index) {
  const iss::IssFault fault = b_.faults_[index];
  prepare(fault.inject_at_instr);
  maybe_fail_site(index, FailStage::kRestore);
  emu_.arm_fault(fault);
  maybe_fail_site(index, FailStage::kArm);

  Record r;
  r.fault = fault;
  // The serial driver gave run() the whole watchdog from reset; the prefix
  // consumed inject_at_instr steps of it. A prefix already at or past the
  // watchdog gets no further steps (same off-by-one as the RTL backend).
  u64 budget = b_.watchdog_ > emu_.instret()
                   ? b_.watchdog_ - emu_.instret()
                   : 0;
  const std::vector<BusRecord>& golden_writes = b_.golden_trace_.writes();
  // Every prefix write replayed the golden run, so matching resumes here.
  std::size_t matched = emu_.offcore().writes().size();
  // A bit-flip is applied once and never enforced again, so a faulty run
  // whose architectural state and memory coincide with the golden run at
  // the same retired-instruction count is provably identical from there
  // on: compare against ladder rungs as they are crossed.
  const bool converge = b_.ladder_.enabled() &&
                        fault.model == iss::IssFaultModel::kBitFlip;
  const bool track_writes = b_.opts_.early_stop || converge;
  const u64 rung_stride = b_.ladder_.stride();
  bool write_mismatch = false;
  bool definite_divergence = false;
  maybe_fail_site(index, FailStage::kStep);
  iss::HaltReason halt = emu_.halt_reason();
  while (budget > 0 && halt == iss::HaltReason::kRunning &&
         !definite_divergence) {
    halt = emu_.step();
    --budget;
    if (track_writes) {
      const std::vector<BusRecord>& writes = emu_.offcore().writes();
      while (!write_mismatch && matched < writes.size()) {
        if (matched >= golden_writes.size() ||
            !writes[matched].same_payload(golden_writes[matched])) {
          write_mismatch = true;
          if (b_.opts_.early_stop) definite_divergence = true;
        } else {
          ++matched;
        }
      }
    }
    if (converge && !write_mismatch && halt == iss::HaltReason::kRunning &&
        emu_.instret() > fault.inject_at_instr &&
        emu_.instret() % rung_stride == 0) {
      if (const auto* rung = b_.ladder_.at(emu_.instret())) {
        const GoldenSnapshot& g = *rung->snap;
        if (emu_.offcore().writes().size() == g.checkpoint.writes &&
            emu_.state() == g.checkpoint.state &&
            emu_.memory().equals(g.mem)) {
          // Silent on the spot: failure/latent stay false.
          b_.convergence_cutoffs_.fetch_add(1, std::memory_order_relaxed);
          return r;
        }
      }
    }
  }
  if (halt == iss::HaltReason::kRunning && !definite_divergence) {
    halt = iss::HaltReason::kStepLimit;
  }
  maybe_fail_site(index, FailStage::kClassify);

  const TraceDivergence div = emu_.offcore().compare_writes(b_.golden_trace_);
  if (div.diverged || halt != iss::HaltReason::kHalted) {
    r.failure = true;
    r.latency_instr = div.diverged && div.cycle > fault.inject_at_instr
                          ? div.cycle - fault.inject_at_instr
                          : 0;
  } else {
    // Clean halt with matching writes: latent if any register differs.
    const iss::ArchState& fs = emu_.state();
    r.latent = fs.regs != b_.golden_state_.regs ||
               !(fs.icc == b_.golden_state_.icc) ||
               fs.y != b_.golden_state_.y;
  }
  return r;
}

void IssCampaignBackend::Worker::maybe_fail_site(std::size_t site_index,
                                                 FailStage stage) {
  maybe_fail_stage(b_.fail_spec_, fail_attempts_, site_index, stage);
}

fault::IssCampaignResult IssCampaignBackend::finish(EngineRun<Record> run) const {
  fault::IssCampaignResult result;
  result.workload = prog_.name;
  result.golden_instret = golden_instret_;
  result.replay.ladder_rungs = ladder_.rung_count();
  result.replay.ladder_bytes = ladder_.total_bytes();
  result.replay.ladder_evicted = ladder_.evicted_count();
  result.replay.ladder_restores = ladder_restores_.load();
  result.replay.cold_resets = cold_resets_.load();
  result.replay.fast_forward_cycles = fast_forward_instrs_.load();
  result.replay.convergence_cutoffs = convergence_cutoffs_.load();
  result.replay.journal_hits = run.journal_hits;
  result.replay.journal_dropped = run.journal_dropped;
  result.replay.sites_retried = run.sites_retried;
  result.replay.sites_engine_error = run.engine_errors;
  result.truncated = run.truncated;
  result.completed_sites = run.completed;
  result.total_sites = run.records.size();
  result.runs.reserve(run.completed);
  for (std::size_t i = 0; i < run.records.size(); ++i) {
    if (run.done[i] != 0) result.runs.push_back(std::move(run.records[i]));
  }
  // Aggregate by each record's own model (not by fault-list position: a
  // truncated run holds an arbitrary done-subset of the site list).
  for (const iss::IssFaultModel model : cfg_.models) {
    OutcomeAccumulator acc;
    for (const fault::IssInjectionResult& r : result.runs) {
      if (r.fault.model != model) continue;
      acc.add(r.engine_error ? fault::Outcome::kEngineError
              : r.failure    ? fault::Outcome::kFailure
              : r.latent     ? fault::Outcome::kLatent
                             : fault::Outcome::kSilent,
              r.latency_instr);
    }
    fault::IssCampaignStats stats;
    stats.model = model;
    stats.runs = acc.runs;
    stats.failures = acc.failures;
    stats.latent = acc.latent;
    stats.errors = acc.errors;
    result.per_model.push_back(stats);
  }
  return result;
}

fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts) {
  IssCampaignBackend backend(prog, cfg, opts);
  CampaignEngine engine(opts);
  return backend.finish(engine.run(backend));
}

}  // namespace issrtl::engine
