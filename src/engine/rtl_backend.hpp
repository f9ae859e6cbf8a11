// RTL fault backend for CampaignEngine: enumerate sites with
// fault::build_fault_list, record a checkpoint ladder while running the
// golden reference, then run each faulty suffix from the nearest snapshot
// and classify against the golden run — the §4.1 methodology, minus both
// the per-fault golden-prefix re-simulation the serial driver paid and the
// per-worker prefix re-simulation the PR 1 rolling checkpoint still paid.
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
#include "iss/emulator.hpp"

namespace issrtl::engine {

class RtlCampaignBackend {
 public:
  using Record = fault::InjectionResult;

  /// One ladder rung: the golden core at a cycle boundary. `core` is a
  /// checkpoint_lite() snapshot (no trace copy); `mem` a COW clone of the
  /// golden memory; `writes`/`reads` the golden bus-trace prefix lengths at
  /// that cycle, from which restores rebuild the trace.
  struct GoldenSnapshot {
    rtlcore::CoreCheckpoint core;
    Memory mem;
    std::size_t writes = 0;
    std::size_t reads = 0;
  };

  /// Mixed fidelity: one ISS ladder rung — the fault-free prefix at a
  /// retired-instruction boundary. `emu` is a checkpoint_lite() (no trace
  /// copy); `writes` the off-core write count at the boundary, which the
  /// lockstep validation in the constructor proves equal to the RTL golden
  /// write count at the same retirement.
  struct IssGoldenSnapshot {
    iss::EmuCheckpoint emu;
    Memory mem;
    std::size_t writes = 0;
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

  /// One per worker thread: owns a core + memory and a rolling golden-prefix
  /// checkpoint; restores whichever of {rolling checkpoint, ladder rung} is
  /// closest below each injection instant.
  class Worker {
   public:
    Worker(const RtlCampaignBackend& backend, unsigned shard);
    Record run_site(std::size_t index);

   private:
    /// Position core_ (fault-free) exactly at `inject_cycle`: from the
    /// rolling shard checkpoint or the best ladder rung — whichever is not
    /// ahead of us and closer — or from reset when neither exists.
    void prepare(u64 inject_cycle);

    /// Mixed-fidelity counterpart of prepare(): walk the fault-free prefix
    /// on the ISS up to the last retirement boundary at or before
    /// `inject_cycle` (forward-adjusted out of delay slots), transplant the
    /// architectural state into core_ on the golden timebase with the
    /// golden bus prefix, then step the core at RTL fidelity up to the
    /// nominal instant (refilling the pipeline). Returns the cycle at
    /// which the fault should be considered injected — `inject_cycle`,
    /// unless the forward adjustment pushed the boundary past it.
    u64 prepare_mixed(u64 inject_cycle);

    /// Position the worker's ISS emulator (fault-free) at retired
    /// instruction `instret_target`: keep advancing monotonically, restore
    /// the best ISS ladder rung, or reset cold — the ISS analogue of
    /// prepare()'s three-way choice.
    void position_iss(u64 instret_target);

    /// ISSRTL_FAIL_SITE test hook: called at each processing stage of a
    /// site; throws when the spec names this backend-global site index at
    /// `stage` ("<i>" on every attempt, "<i>:once" on the first only).
    void maybe_fail_site(std::size_t site_index, FailStage stage);

    // Stochastic per-run behaviour (none today) must draw from
    // engine::shard_stream(cfg.seed, shard) to stay reshard-stable.
    const RtlCampaignBackend& b_;
    Memory mem_;
    rtlcore::Leon3Core core_;
    // Rolling checkpoint: a checkpoint_lite() plus golden-trace prefix
    // lengths — it is only ever taken on fault-free prefixes, whose bus
    // trace is by construction a prefix of the golden trace, so the
    // O(instant) trace copy is skipped exactly like for ladder rungs.
    bool have_checkpoint_ = false;
    rtlcore::CoreCheckpoint checkpoint_;
    Memory checkpoint_mem_;
    std::size_t checkpoint_writes_ = 0;
    std::size_t checkpoint_reads_ = 0;
    // Scratch buffer for the hang fast-forward fixed-point probe.
    std::vector<u32> probe_nodes_;
    // Mixed-fidelity positioning (lazy: allocated on the first
    // prepare_mixed call). The ISS walks the fault-free prefix;
    // iss_writes_base_ + the emulator's own trace length is the golden
    // write count at its boundary (rung restores load a trace-less
    // checkpoint_lite, so the base tracks the inherited prefix).
    Memory iss_mem_;
    std::unique_ptr<iss::Emulator> iss_emu_;
    bool iss_valid_ = false;
    std::size_t iss_writes_base_ = 0;
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
  // Mixed fidelity only (empty/disabled otherwise): golden retirement
  // boundaries — retire_cycle_[k] is the cycle at which instruction k+1
  // retired, so upper_bound(inject_cycle) is the count of instructions
  // retired at or before the instant — plus the ISS golden image and an
  // ISS checkpoint ladder on the retired-instruction grid.
  std::vector<u64> retire_cycle_;
  Memory iss_golden_mem_;
  CheckpointLadder<IssGoldenSnapshot> iss_ladder_;
  std::vector<fault::FaultSite> sites_;
  FailSiteSpec fail_spec_;  ///< parsed from opts_.fail_sites (test hook)
  // Node metadata snapshot (NodeId-indexed) for labelling results in
  // finish(); the golden core itself does not outlive the constructor.
  std::vector<std::string> node_names_;
  std::vector<std::string> node_units_;
  // Replay economics, accumulated relaxed by the workers (informational
  // only — see fault::ReplayCounters).
  mutable std::atomic<u64> ladder_restores_{0};
  mutable std::atomic<u64> rolling_restores_{0};
  mutable std::atomic<u64> cold_resets_{0};
  mutable std::atomic<u64> fast_forward_cycles_{0};
  mutable std::atomic<u64> convergence_cutoffs_{0};
};

/// Full engine-backed RTL campaign. fault::run_campaign is the serial thin
/// wrapper over this; examples and benches pass threads/options directly.
fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg = {},
                                       const EngineOptions& opts = {});

}  // namespace issrtl::engine
