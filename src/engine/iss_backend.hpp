// ISS fault backend for CampaignEngine: classical register-file injection
// (the paper's [7][20] style) on the same golden-replay core as the RTL
// backend (engine/replay.hpp), used for the §4.2 "Simulation time"
// comparison.
//
// Faulty suffix: the worker restores the rung at or below the site's
// instant (keeping its emulator's decoded blocks, whose code the rung's
// memory clone shares), arms the one fault and advance()s the emulator on
// the decoded-block walk, which enforces a stuck-at or open line as an
// and/or mask on its physical register slot before every instruction. It
// stops at each instant where GoldenReplay::Suffix can converge (the next
// rung instant, or every 64 instructions with the ladder off) to match the
// new off-core writes and test convergence. The record keeps no halt
// reason, so running on past a wrong write for the rest of a chunk leaves
// it unchanged. tests/test_iss_fastpath.cpp checks this walk against the
// reference interpreter (Emulator::set_fast_path(false)) instruction by
// instruction.
//
// Activation pre-screen: the first stuck-at or open-line site a worker
// reaches runs one pass over the golden run that records every physical
// register read with its value (isa::reg_use of each instruction before it
// executes). A site whose register no later read shows with the faulted bit
// opposite to the enforced value runs identically to the golden run,
// instruction for instruction, so it is answered without simulating its
// suffix: no failure, latent iff the golden final register holds the bit
// opposite to the enforced value.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/replay.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"

namespace issrtl::engine {

class IssCampaignBackend {
 public:
  using Record = fault::IssInjectionResult;

  IssCampaignBackend(const isa::Program& prog,
                     const fault::IssCampaignConfig& cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return faults_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return faults_[i].inject_at_instr;
  }

  /// Durability hooks (see engine.hpp): campaign identity over (workload
  /// image, config, seed, golden run) — engine options excluded, records
  /// are schedule-invariant — plus per-site keys and the Record <->
  /// JournalEntry conversions. Outcome codes in the journal follow
  /// fault::Outcome: 0 silent, 1 latent, 2 failure, 4 engine error.
  u64 campaign_key() const;
  u64 site_key(std::size_t i) const;
  JournalEntry journal_entry(std::size_t i, const Record& r) const;
  Record record_from_journal(const JournalEntry& e) const;
  Record error_record(std::size_t i, const std::string& what) const;

  /// True when the activation pass proves that no read sees site i's
  /// stuck-at or open-line fault, so run_site answers it without simulating
  /// it. Runs the pass (once per backend, thread-safe) if no worker has yet.
  bool prescreened(std::size_t i) const;

  class Worker {
   public:
    explicit Worker(const IssCampaignBackend& backend);
    /// The engine's per-site entry: the pre-screen, else simulate().
    Record run_site(std::size_t index);
    /// Position, arm, step and classify site `index`, never pre-screened:
    /// the reference a pre-screened record must equal.
    Record simulate(std::size_t index);

   private:
    friend class IssCampaignBackend;
    void fail_at(std::size_t index, FailStage stage);  ///< ISSRTL_FAIL_SITE

    const IssCampaignBackend& b_;
    Memory mem_;
    iss::Emulator emu_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned /*shard*/) const {
    return std::make_unique<Worker>(*this);
  }

  /// Golden metadata + per-model aggregation over the run's completed
  /// records (done sites only, in site order; see
  /// fault::IssCampaignResult on truncation).
  fault::IssCampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  /// The activation pass, run on `emu`/`mem` (a worker's, or a scratch
  /// pair): fills verdict_ for every stuck-at and open-line site.
  void screen(iss::Emulator& emu, Memory& mem) const;

  fault::IssCampaignConfig cfg_;

  using Replay = GoldenReplay<iss::Emulator, &iss::Emulator::instret>;
  Replay replay_;
  iss::ArchState golden_state_;
  std::vector<iss::IssFault> faults_;
  FailSiteSpec fail_spec_;  ///< parsed EngineOptions::fail_sites (test hook)
  // Activation pass result, per site (0 = simulate, 1 = proven silent,
  // 2 = proven latent), and the run_site calls it answered; both written
  // by workers.
  mutable std::once_flag screen_once_;
  mutable std::vector<u8> verdict_;
  mutable std::atomic<u64> prescreened_{0};
};

/// Full engine-backed ISS campaign. The default options run it serially
/// with the default ladder.
fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts = {});

}  // namespace issrtl::engine
