// RTL fault backend for CampaignEngine: enumerate sites with
// fault::build_fault_list, then run each faulty suffix from the nearest
// golden-run rung (engine/replay.hpp) and classify against the golden run —
// the §4.1 methodology, minus the per-fault golden-prefix re-simulation
// from reset.
//
// Activation pre-screen: the first permanent site a worker reaches runs
// one pass over the golden run that records, per fault-list node, every
// value a read port returns from it if it is a register-file entry or a
// cache tag, valid or data entry (Leon3Core::record_reads) or, for any
// other node, every raw value it takes (rtl::SimContext::watch).
// A permanent site the pass proves never activated (rtl::can_activate)
// runs identically to the golden run, so it is answered silent without
// simulating its suffix (engine/activation.hpp has the argument).
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

namespace issrtl::engine {

class RtlCampaignBackend {
 public:
  using Record = fault::InjectionResult;

  /// Runs the golden reference (recording ladder rungs every
  /// opts.ladder_stride cycles) and enumerates the fault list (both
  /// deterministic); throws if the golden run does not halt cleanly.
  RtlCampaignBackend(const isa::Program& prog,
                     const fault::CampaignConfig& cfg,
                     const rtlcore::CoreConfig& core_cfg,
                     const EngineOptions& opts);

  std::size_t site_count() const noexcept { return sites_.size(); }
  const fault::FaultSite& site(std::size_t i) const { return sites_.at(i); }
  u64 site_instant(std::size_t i) const noexcept {
    return sites_[i].inject_cycle;
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

  /// True when the activation pass proves site i's permanent fault never
  /// activated, so run_site answers it silent without simulating it. Runs
  /// the pass (once per backend, thread-safe) if no worker has yet.
  bool prescreened(std::size_t i) const;

  /// One per worker thread: owns a core + memory and positions them for
  /// each site from the shared ladder.
  class Worker {
   public:
    explicit Worker(const RtlCampaignBackend& backend);
    /// The engine's per-site entry: the pre-screen, else simulate().
    Record run_site(std::size_t index);
    /// Position, arm, step and classify site `index`, never pre-screened:
    /// the reference a pre-screened record must equal.
    Record simulate(std::size_t index);

   private:
    friend class RtlCampaignBackend;
    void fail_at(std::size_t index, FailStage stage);  ///< ISSRTL_FAIL_SITE

    const RtlCampaignBackend& b_;
    Memory mem_;
    rtlcore::Leon3Core core_;
    std::map<std::size_t, unsigned> fail_attempts_;  ///< ISSRTL_FAIL_SITE
  };

  std::unique_ptr<Worker> make_worker(unsigned /*shard*/) const {
    return std::make_unique<Worker>(*this);
  }

  /// Golden metadata + shared per-model aggregation over the run's
  /// completed records (done sites only, kept in site order — an early
  /// stop yields a truncated result whose records are each bit-identical
  /// to their uninterrupted counterparts).
  fault::CampaignResult finish(EngineRun<Record> run) const;

 private:
  friend class Worker;

  /// The activation pass, run on `core`/`mem` (a worker's, or a scratch
  /// pair): fills never_activated_ for every permanent site.
  void screen(rtlcore::Leon3Core& core, Memory& mem) const;

  fault::CampaignConfig cfg_;
  rtlcore::CoreConfig core_cfg_;

  using Replay = GoldenReplay<rtlcore::Leon3Core, &rtlcore::Leon3Core::cycles>;
  Replay replay_;
  u64 golden_instret_ = 0;
  iss::ArchState golden_state_;
  std::vector<fault::FaultSite> sites_;
  FailSiteSpec fail_spec_;  ///< parsed EngineOptions::fail_sites (test hook)
  // Node metadata snapshot (NodeId-indexed) for labelling results in
  // finish(); the golden core itself does not outlive the constructor.
  std::vector<std::string> node_names_;
  std::vector<std::string> node_units_;
  // Activation pass result, per site (1 = proven never activated), and the
  // run_site calls it answered; both written by workers.
  mutable std::once_flag screen_once_;
  mutable std::vector<u8> never_activated_;
  mutable std::atomic<u64> prescreened_{0};
};

/// Full engine-backed RTL campaign: the §4.1 methodology end to end. The
/// default options run it serially with the default ladder.
fault::CampaignResult run_rtl_campaign(const isa::Program& prog,
                                       const fault::CampaignConfig& cfg,
                                       const rtlcore::CoreConfig& core_cfg = {},
                                       const EngineOptions& opts = {});

}  // namespace issrtl::engine
