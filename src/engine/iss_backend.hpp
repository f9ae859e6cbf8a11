// ISS fault backend for CampaignEngine: classical register-file injection
// (the paper's [7][20] style) behind the same enumerate → ladder →
// faulty-suffix → classify shape as the RTL backend, used for the §4.2
// "Simulation time" comparison.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/ladder.hpp"
#include "fault/campaign.hpp"
#include "fault/iss_campaign.hpp"

namespace issrtl::engine {

class IssCampaignBackend {
 public:
  using Record = fault::IssInjectionResult;

  /// One ladder rung: the golden emulator at an instruction boundary.
  /// `emu` is a checkpoint_lite() snapshot (no trace copy); `mem` a COW
  /// clone of the golden memory; `writes`/`reads` the golden bus-trace
  /// prefix lengths at that instant.
  struct GoldenSnapshot {
    iss::EmuCheckpoint emu;
    Memory mem;
    std::size_t writes = 0;
    std::size_t reads = 0;
  };

  IssCampaignBackend(const isa::Program& prog,
                     const fault::IssCampaignConfig& cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return faults_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return faults_[i].inject_at_instr;
  }
  const std::vector<iss::IssFault>& faults() const noexcept { return faults_; }
  const CheckpointLadder<GoldenSnapshot>& ladder() const noexcept {
    return ladder_;
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

  class Worker {
   public:
    Worker(const IssCampaignBackend& backend, unsigned shard);
    Record run_site(std::size_t index);

   private:
    /// Position the emulator fault-free at `inject_at_instr`: restore the
    /// highest ladder rung at or below it (or reset when there is none),
    /// then block-walk the rest of the golden prefix.
    void prepare(u64 inject_at_instr);

    /// ISSRTL_FAIL_SITE test hook: throws at processing stage `stage` of a
    /// site when the spec names this site at that stage (see
    /// EngineOptions::fail_sites).
    void maybe_fail_site(std::size_t site_index, FailStage stage);

    // Stochastic per-run behaviour (none today) must draw from
    // engine::shard_stream(cfg.seed, shard) to stay reshard-stable.
    const IssCampaignBackend& b_;
    Memory mem_;
    iss::Emulator emu_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned shard) const;

  /// Golden metadata + per-model aggregation over the run's completed
  /// records (done sites only, in site order; see
  /// fault::IssCampaignResult on truncation).
  fault::IssCampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  isa::Program prog_;
  fault::IssCampaignConfig cfg_;
  EngineOptions opts_;

  u64 golden_instret_ = 0;
  u64 watchdog_ = 0;
  OffCoreTrace golden_trace_;
  iss::ArchState golden_state_;
  Memory initial_mem_;  ///< loaded program image, COW ancestor of all runs
  Memory golden_mem_;
  CheckpointLadder<GoldenSnapshot> ladder_;
  std::vector<iss::IssFault> faults_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Replay economics (informational only — see fault::ReplayCounters).
  mutable std::atomic<u64> ladder_restores_{0};
  mutable std::atomic<u64> cold_resets_{0};
  mutable std::atomic<u64> fast_forward_instrs_{0};
  mutable std::atomic<u64> convergence_cutoffs_{0};
};

/// Full engine-backed ISS campaign. fault::run_iss_campaign is the serial
/// thin wrapper over this.
fault::IssCampaignResult run_iss_campaign_engine(
    const isa::Program& prog, const fault::IssCampaignConfig& cfg,
    const EngineOptions& opts = {});

}  // namespace issrtl::engine
