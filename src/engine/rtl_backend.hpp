// RTL fault backend for CampaignEngine: enumerate sites with
// fault::build_fault_list, record a checkpoint ladder while running the
// golden reference, then run each faulty suffix from the nearest rung and
// classify against the golden run — the §4.1 methodology, minus the
// per-fault golden-prefix re-simulation from reset.
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

namespace issrtl::engine {

class RtlCampaignBackend {
 public:
  using Record = fault::InjectionResult;

  /// One ladder rung: the golden core's checkpoint at a cycle boundary
  /// (its trace prefix lengths index the golden trace) and a COW clone of
  /// the golden memory.
  struct GoldenSnapshot {
    rtlcore::CoreCheckpoint checkpoint;
    Memory mem;
  };

  /// Runs the golden reference (recording ladder rungs every
  /// opts.ladder_stride cycles) and enumerates the fault list (both
  /// deterministic); throws if the golden run does not halt cleanly.
  RtlCampaignBackend(const isa::Program& prog,
                     const fault::CampaignConfig& cfg,
                     const rtlcore::CoreConfig& core_cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return sites_.size(); }
  u64 site_instant(std::size_t i) const noexcept {
    return sites_[i].inject_cycle;
  }

  const std::vector<fault::FaultSite>& sites() const noexcept {
    return sites_;
  }
  const CheckpointLadder<GoldenSnapshot>& ladder() const noexcept {
    return ladder_;
  }

  /// Campaign identity for the write-ahead journal: an FNV-1a fingerprint
  /// of the workload image, the campaign config (every field that shapes
  /// the fault list or classification), the seed and the golden run.
  /// Engine options (threads, ladder, …) are deliberately excluded —
  /// resuming under a different schedule must hit the same journal file,
  /// because the records are schedule-invariant.
  u64 campaign_key() const;
  /// Per-site fingerprint (node, bit, model, instant, index) cross-checked
  /// against each journal record before import.
  u64 site_key(std::size_t i) const;
  JournalEntry journal_entry(std::size_t i, const Record& r) const;
  Record record_from_journal(const JournalEntry& e) const;
  /// Record for a site whose simulation threw twice (worker isolation):
  /// Outcome::kEngineError carrying the exception text.
  Record error_record(std::size_t i, const std::string& what) const;

  /// One per worker thread: owns a core + memory and positions them for
  /// each site from the shared ladder.
  class Worker {
   public:
    Worker(const RtlCampaignBackend& backend, unsigned shard);
    Record run_site(std::size_t index);

   private:
    /// Position core_ (fault-free) exactly at `inject_cycle`: restore the
    /// highest ladder rung at or below it (or reset when there is none),
    /// then step the rest of the golden prefix.
    void prepare(u64 inject_cycle);

    /// ISSRTL_FAIL_SITE test hook: called at each processing stage of a
    /// site; throws when the spec names this backend-global site index at
    /// `stage` ("<i>" on every attempt, "<i>:once" on the first only).
    void maybe_fail_site(std::size_t site_index, FailStage stage);

    // Stochastic per-run behaviour (none today) must draw from
    // engine::shard_stream(cfg.seed, shard) to stay reshard-stable.
    const RtlCampaignBackend& b_;
    Memory mem_;
    rtlcore::Leon3Core core_;
    // Scratch buffer for the hang fast-forward fixed-point probe.
    std::vector<u32> probe_nodes_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned shard) const;

  /// Golden metadata + shared per-model aggregation over the run's
  /// completed records (done sites only, kept in site order — an early
  /// stop yields a truncated result whose records are each bit-identical
  /// to their uninterrupted counterparts).
  fault::CampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  isa::Program prog_;
  fault::CampaignConfig cfg_;
  rtlcore::CoreConfig core_cfg_;
  EngineOptions opts_;

  u64 golden_cycles_ = 0;
  u64 golden_instret_ = 0;
  u64 watchdog_ = 0;
  OffCoreTrace golden_trace_;
  iss::ArchState golden_state_;
  Memory initial_mem_;  ///< loaded program image, COW ancestor of all runs
  Memory golden_mem_;
  CheckpointLadder<GoldenSnapshot> ladder_;
  std::vector<fault::FaultSite> sites_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Node metadata snapshot (NodeId-indexed) for labelling results in
  // finish(); the golden core itself does not outlive the constructor.
  std::vector<std::string> node_names_;
  std::vector<std::string> node_units_;
  // Replay economics, accumulated relaxed by the workers (informational
  // only — see fault::ReplayCounters).
  mutable std::atomic<u64> ladder_restores_{0};
  mutable std::atomic<u64> cold_resets_{0};
  mutable std::atomic<u64> fast_forward_cycles_{0};
  mutable std::atomic<u64> convergence_cutoffs_{0};
};

/// Full engine-backed RTL campaign: the §4.1 methodology end to end. The
/// default options run it serially with the default ladder.
fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg = {},
                                       const EngineOptions& opts = {});

}  // namespace issrtl::engine
