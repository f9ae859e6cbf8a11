#include "engine/iss_backend.hpp"

#include <algorithm>
#include <array>
#include <string>
#include <utility>

#include "common/rng.hpp"
#include "engine/activation.hpp"
#include "engine/stats.hpp"
#include "isa/reg_use.hpp"

namespace issrtl::engine {

IssCampaignBackend::IssCampaignBackend(const isa::Program& prog,
                                       const fault::IssCampaignConfig& cfg,
                                       const EngineOptions& opts)
    : cfg_(cfg), replay_(prog, opts) {
  iss::Emulator golden(replay_.golden_mem());
  // Same 10M-instruction watchdog as Emulator::run's default.
  replay_.record(golden, 10'000'000);
  golden_state_ = golden.state();
  const u64 golden_instret = replay_.golden_instant();

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
          1 + rng.next_below(std::max<u64>(1, golden_instret / 2));
      faults_.push_back(f);
    }
  }
  fail_spec_ = parse_fail_sites(opts.fail_sites);
}

u64 IssCampaignBackend::campaign_key() const {
  Fingerprint fp;
  fp.mix_str("issrtl-iss-campaign-v1");
  replay_.mix_image(fp);
  fp.mix(cfg_.models.size());
  for (const iss::IssFaultModel m : cfg_.models) fp.mix(static_cast<u64>(m));
  fp.mix(cfg_.samples);
  fp.mix(cfg_.seed);
  fp.mix(kWatchdogFactor);
  fp.mix(replay_.golden_instant());
  fp.mix(replay_.golden_trace().writes().size());
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

bool IssCampaignBackend::prescreened(std::size_t i) const {
  if (faults_.at(i).model == iss::IssFaultModel::kBitFlip) return false;
  std::call_once(screen_once_, [this] {
    Worker scratch(*this);
    screen(scratch.emu_, scratch.mem_);
  });
  return verdict_[i] != 0;
}

void IssCampaignBackend::screen(iss::Emulator& emu, Memory& mem) const {
  // Stuck-at and open-line sites armed before the golden halt (a fault
  // armed at the halt is never applied), watched per physical register.
  const u64 end = replay_.golden_instant();
  std::vector<std::size_t> index;
  std::vector<ActivationSite> screened;
  for (std::size_t i = 0; i < faults_.size(); ++i) {
    const iss::IssFault& f = faults_[i];
    if (f.model == iss::IssFaultModel::kBitFlip || f.inject_at_instr >= end) {
      continue;
    }
    // The ISS models are the RTL ones, bit for bit.
    const rtl::FaultModel model =
        f.model == iss::IssFaultModel::kStuckAt0   ? rtl::FaultModel::kStuckAt0
        : f.model == iss::IssFaultModel::kStuckAt1 ? rtl::FaultModel::kStuckAt1
                                                   : rtl::FaultModel::kOpenLine;
    index.push_back(i);
    screened.push_back({f.phys_reg, static_cast<u8>(f.bit), model,
                        f.inject_at_instr});
  }
  verdict_.assign(faults_.size(), 0);
  if (index.empty()) return;
  const u64 first =
      std::ranges::min(screened, {}, &ActivationSite::instant).instant;

  // The pass replays the golden run, untallied: it positions no site.
  replay_.restore(emu, mem, first);
  if (emu.instret() < first) emu.advance(first - emu.instret());
  // Values each register showed to reads since the last take.
  std::array<rtl::BitsSeen, iss::ArchState::kPhysRegs> seen{};
  const iss::ArchState& state = emu.state();
  const auto replay_to = [&](u64 instant) {
    while (emu.instret() < instant &&
           emu.halt_reason() == iss::HaltReason::kRunning) {
      const isa::RegUse use =
          isa::reg_use(isa::decode(mem.load_u32(state.pc)), state.cwp);
      for (unsigned k = 0; k < use.nsrc; ++k) {
        const u32 v = state.regs[use.src[k]];
        seen[use.src[k]].ones |= v;
        seen[use.src[k]].zeros |= ~v;
      }
      emu.step();
    }
  };
  const std::vector<Activation> verdicts = screen_activation(
      screened, seen.size(), end, replay_to,
      [&seen](std::size_t r) { return std::exchange(seen[r], {}); },
      [&state](const ActivationSite& site) {
        return read_keyed_arm_value(site, state.regs[site.slot]);
      });
  // A never-read fault leaves every read, write and halt golden; the final
  // register file differs from the golden one in the faulted bit only, and
  // only where the golden final bit is opposite to the enforced one.
  for (std::size_t k = 0; k < index.size(); ++k) {
    if (!verdicts[k].never) continue;
    const ActivationSite& site = screened[k];
    const bool final_bit = (golden_state_.regs[site.slot] >> site.bit) & 1;
    verdict_[index[k]] = final_bit != verdicts[k].arm_bit ? 2 : 1;
  }
}

IssCampaignBackend::Worker::Worker(const IssCampaignBackend& backend)
    : b_(backend), emu_(mem_) {}

void IssCampaignBackend::Worker::fail_at(std::size_t index, FailStage stage) {
  maybe_fail_stage(b_.fail_spec_, fail_attempts_, index, stage);
}

fault::IssInjectionResult IssCampaignBackend::Worker::run_site(
    std::size_t index) {
  const iss::IssFault& fault = b_.faults_[index];
  if (fault.model != iss::IssFaultModel::kBitFlip) {
    std::call_once(b_.screen_once_, [this] { b_.screen(emu_, mem_); });
    if (b_.verdict_[index] != 0) {
      // The faulty run would equal the golden run instruction for
      // instruction: the record a simulation produces, through every
      // stage hook.
      b_.prescreened_.fetch_add(1, std::memory_order_relaxed);
      for (const FailStage stage : {FailStage::kRestore, FailStage::kArm,
                                    FailStage::kStep, FailStage::kClassify}) {
        fail_at(index, stage);
      }
      Record r;
      r.fault = fault;
      r.latent = b_.verdict_[index] == 2;
      return r;
    }
  }
  return simulate(index);
}

fault::IssInjectionResult IssCampaignBackend::Worker::simulate(
    std::size_t index) {
  const iss::IssFault fault = b_.faults_[index];
  b_.replay_.position(emu_, mem_, fault.inject_at_instr);
  fail_at(index, FailStage::kRestore);
  emu_.arm_fault(fault);
  fail_at(index, FailStage::kArm);

  Record r;
  r.fault = fault;
  // A bit-flip is applied once and never enforced again, so it is the
  // model the convergence gate covers.
  Replay::Suffix suffix(b_.replay_, emu_, mem_,
                        fault.model == iss::IssFaultModel::kBitFlip);
  u64 budget = suffix.budget();
  fail_at(index, FailStage::kStep);
  iss::HaltReason halt = emu_.halt_reason();
  // The suffix runs on the block walk up to each instant it can converge
  // at. The record holds no halt reason, so running a chunk past a wrong
  // write leaves it unchanged.
  while (budget > 0 && halt == iss::HaltReason::kRunning &&
         !suffix.diverged()) {
    const u64 now = emu_.instret();
    const u64 n = std::min(budget, suffix.next_stop(now) - now);
    halt = emu_.advance(n);
    budget -= n;
    if (suffix.converged(halt)) return r;  // silent: failure/latent false
  }
  if (halt == iss::HaltReason::kRunning && !suffix.diverged()) {
    halt = iss::HaltReason::kStepLimit;
  }
  fail_at(index, FailStage::kClassify);

  const TraceDivergence div =
      emu_.offcore().compare_writes(b_.replay_.golden_trace());
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

fault::IssCampaignResult IssCampaignBackend::finish(EngineRun<Record> run) const {
  fault::IssCampaignResult result;
  replay_.finish(result, run);
  result.replay.prescreened = prescreened_.load();
  result.golden_instret = replay_.golden_instant();
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
