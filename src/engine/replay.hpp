// Golden-run replay core shared by both campaign backends: the golden
// recording loop with its checkpoint ladder (engine/ladder.hpp),
// positioning each fault-free prefix, the off-core write match and rung
// convergence gate of the faulty suffix, the replay tallies and the shared
// half of finish(), written once over the simulator type. The backends
// keep the fault list, the suffix loop, classification, the record/journal
// conversions and per-model aggregation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "engine/engine.hpp"
#include "engine/journal.hpp"
#include "engine/ladder.hpp"
#include "fault/campaign.hpp"
#include "isa/program.hpp"
#include "iss/emulator.hpp"

namespace issrtl::engine {

/// Faulty-run budget: a site that has not halted after this many times the
/// golden run's instants (plus 1000) is a hang. Both backends mix it into
/// their campaign_key(), so changing it retires every journal written under
/// the old budget.
inline constexpr u64 kWatchdogFactor = 3;

/// The golden run of one campaign, built in the backend constructor and
/// then read (its tallies bumped) by every worker. `Sim` is
/// rtlcore::Leon3Core or iss::Emulator, which agree on the names used here;
/// `Instant` reads its instant counter (cycles, or retired instructions),
/// which indexes rungs, fault sites and the watchdog. All statically
/// dispatched and inline.
template <class Sim, u64 (Sim::*Instant)() const noexcept>
class GoldenReplay {
 public:
  using Checkpoint = decltype(std::declval<const Sim&>().checkpoint());

  /// One ladder rung: the golden simulator's checkpoint (its trace prefix
  /// lengths index the golden trace) and a COW clone of the golden memory.
  struct Snapshot {
    Checkpoint checkpoint;
    Memory mem;
  };

  /// Loads the program image once; the golden memory and every reset clone
  /// from it, so untouched pages stay COW-shared (and Memory::equals
  /// short-circuits them by pointer).
  GoldenReplay(const isa::Program& prog, const EngineOptions& opts)
      : prog_(prog), ladder_(opts.ladder_stride) {
    prog_.load_into(initial_mem_);
    golden_mem_ = initial_mem_.clone();
  }

  /// The memory the golden simulator is constructed on (before record()).
  Memory& golden_mem() noexcept { return golden_mem_; }
  const Memory& golden_mem() const noexcept { return golden_mem_; }

  /// Run the golden reference on `golden` from the program entry, advancing
  /// from one stride grid point to the next so the ladder can snapshot it
  /// there (the ladder doubles its stride as it thins itself, so it is
  /// re-read every lap). Throws unless it halts within `max_instants`. The
  /// faulty-run watchdog becomes golden instants * kWatchdogFactor + 1000.
  void record(Sim& golden, u64 max_instants) {
    golden.reset(prog_.entry);
    const auto now = [&golden] { return (golden.*Instant)(); };
    while (now() < max_instants &&
           golden.halt_reason() == iss::HaltReason::kRunning) {
      if (ladder_.wants(now())) {
        auto snap = std::make_shared<Snapshot>();
        snap->checkpoint = golden.checkpoint();
        snap->mem = golden_mem_.clone();
        // COW pages are charged their pointer-copy cost, not 4 KiB: the
        // bytes a later store copies belong to the writer.
        const std::size_t bytes = sizeof(Snapshot) +
                                   snap->checkpoint.heap_bytes() +
                                   snap->mem.allocated_pages() * 64;
        ladder_.record(now(), std::move(snap), bytes);
      }
      u64 target = max_instants;
      if (ladder_.enabled()) {
        const u64 stride = ladder_.stride();
        target = std::min(target, (now() / stride + 1) * stride);
      }
      golden.advance(target - now());
    }
    if (golden.halt_reason() != iss::HaltReason::kHalted) {
      const iss::HaltReason h =
          golden.halt_reason() == iss::HaltReason::kRunning
              ? iss::HaltReason::kStepLimit
              : golden.halt_reason();
      throw std::runtime_error("golden run did not halt cleanly: " +
                               std::string(iss::halt_reason_name(h)));
    }
    golden_instant_ = now();
    golden_trace_ = golden.offcore();
    watchdog_ = golden_instant_ * kWatchdogFactor + 1000;
  }

  u64 golden_instant() const noexcept { return golden_instant_; }
  const OffCoreTrace& golden_trace() const noexcept { return golden_trace_; }
  /// Faulty-run budget in instants, golden prefix included.
  u64 watchdog() const noexcept { return watchdog_; }

  /// Workload image (name, layout, every code/data byte) into a campaign
  /// key; the backend adds its config and golden-run summary.
  void mix_image(Fingerprint& fp) const {
    fp.mix_str(prog_.name);
    fp.mix(prog_.code_base);
    fp.mix(prog_.data_base);
    fp.mix(prog_.entry);
    fp.mix(prog_.code.size());
    for (const u32 w : prog_.code) fp.mix(w);
    fp.mix(prog_.data.size());
    fp.mix_bytes(prog_.data.data(), prog_.data.size());
  }

  /// Position `sim` (backed by `mem`) fault-free at `instant`: restore()
  /// it, then fast-forward the rest of the golden prefix. Tallied in the
  /// replay counters.
  void position(Sim& sim, Memory& mem, u64 instant) const {
    (restore(sim, mem, instant) ? ladder_restores_ : cold_resets_)
        .fetch_add(1, std::memory_order_relaxed);
    const u64 from = (sim.*Instant)();
    if (from < instant && sim.halt_reason() == iss::HaltReason::kRunning) {
      sim.advance(instant - from);
      fast_forward_.fetch_add((sim.*Instant)() - from,
                              std::memory_order_relaxed);
    }
  }

  /// Clear the faults of `sim` and restore it (and `mem`) to the highest
  /// rung at or below `instant`, or reset both when there is none. Returns
  /// true when a rung served. Untallied: position() counts its own calls,
  /// and a pass over the golden run that is not a site is not counted.
  bool restore(Sim& sim, Memory& mem, u64 instant) const {
    sim.clear_faults();
    if (const auto* rung = ladder_.best_at_or_below(instant)) {
      sim.restore(rung->snap->checkpoint, golden_trace_);
      mem = rung->snap->mem.clone();
      return true;
    }
    mem = initial_mem_.clone();
    sim.reset(prog_.entry);
    return false;
  }

  /// Watch over one faulty suffix, constructed after position() and
  /// arming: matches the run's off-core writes against the golden ones as
  /// they appear and, for a transient fault (no armed overlay left behind),
  /// compares the run against the rungs near each instant it reaches.
  class Suffix {
   public:
    Suffix(const GoldenReplay& replay, const Sim& sim, const Memory& mem,
           bool transient)
        : r_(replay),
          sim_(sim),
          mem_(mem),
          start_((sim.*Instant)()),
          // Every prefix write replayed the golden run, so matching
          // resumes here.
          matched_(sim.offcore().writes().size()),
          converge_(transient && replay.ladder_.enabled()) {
      if (converge_) seek(start_);
    }

    /// Faulty instants left under the watchdog (none for a prefix already
    /// at or past it).
    u64 budget() const noexcept {
      return r_.watchdog_ > start_ ? r_.watchdog_ - start_ : 0;
    }

    /// A wrong or extra write was seen: the run is a failure whatever it
    /// does next, so stop simulating it.
    bool diverged() const noexcept { return mismatch_; }

    /// The next instant after `now` at which converged() can fire: the next
    /// rung instant (a multiple of the ladder stride), or `now` +
    /// kUnladderedChunk with the ladder off. A backend whose record keeps
    /// no halt reason may run its suffix in chunks up to here: running on
    /// past a wrong write for less than a chunk moves no record, since the
    /// first divergence and the classification are already fixed.
    u64 next_stop(u64 now) const noexcept {
      static_assert(Sim::kShiftWindow == 0,
                    "a shifted convergence can fire between rung instants; "
                    "step such a suffix and call converged() every instant");
      if (!r_.ladder_.enabled()) return now + kUnladderedChunk;
      const u64 stride = r_.ladder_.stride();
      return (now / stride + 1) * stride;
    }

    /// Call after every faulty step, or, for a simulator with no shift
    /// window, at least at every next_stop() instant and after a halt. True
    /// when the run has provably converged: at instant t its state, memory
    /// and write history coincide with the golden run's at a rung R within
    /// Sim::kShiftWindow instants of t (Sim::matches says what "coincide"
    /// admits), and the golden remainder from R, run from t, halts inside
    /// the watchdog. The rest of the run is then that remainder shifted by
    /// t - R, so the run is silent.
    bool converged(iss::HaltReason halt) {
      const std::vector<BusRecord>& writes = sim_.offcore().writes();
      const std::vector<BusRecord>& golden = r_.golden_trace_.writes();
      while (!mismatch_ && matched_ < writes.size()) {
        if (matched_ >= golden.size() ||
            !writes[matched_].same_payload(golden[matched_])) {
          // A wrong or extra write can never heal: abandon the run.
          mismatch_ = true;
        } else {
          ++matched_;
        }
      }
      if (!converge_ || mismatch_ || halt != iss::HaltReason::kRunning) {
        return false;
      }
      const u64 now = (sim_.*Instant)();
      if (now <= start_) return false;
      if (now >= pass_at_) seek(now);
      return (now <= below_until_ && cuts_at(*below_, now)) ||
             (now >= above_from_ && cuts_at(*above_, now));
    }

   private:
    using Rung = typename CheckpointLadder<Snapshot>::Rung;
    static constexpr u64 kUnladderedChunk = 64;
    static constexpr u64 kWindow = Sim::kShiftWindow;

    /// The nearest rungs at or below and above `now`, looked up once per
    /// rung the run passes, and the instants their windows end and start.
    void seek(u64 now) noexcept {
      below_ = r_.ladder_.best_at_or_below(now);
      above_ = r_.ladder_.first_above(now);
      // No rung below: a window that ended before the first faulty instant.
      below_until_ = below_ != nullptr ? below_->instant + kWindow : 0;
      // No rung above: a window that never starts and a rung never passed.
      pass_at_ = above_ != nullptr ? above_->instant : ~u64{0};
      above_from_ = pass_at_ - std::min(pass_at_, kWindow);
    }

    /// True, and tallied, when the run at `now` is the golden run at
    /// `rung` shifted by now - rung.instant, with a remainder that halts
    /// inside the watchdog.
    bool cuts_at(const Rung& rung, u64 now) {
      if (!sim_.matches(rung.snap->checkpoint) ||
          now + (r_.golden_instant_ - rung.instant) > r_.watchdog_ ||
          !mem_.equals(rung.snap->mem)) {
        return false;
      }
      r_.convergence_cutoffs_.fetch_add(1, std::memory_order_relaxed);
      if (rung.instant != now) {
        r_.shifted_cutoffs_.fetch_add(1, std::memory_order_relaxed);
      }
      return true;
    }

    const GoldenReplay& r_;
    const Sim& sim_;
    const Memory& mem_;
    u64 start_;
    std::size_t matched_;
    bool converge_;
    bool mismatch_ = false;
    const Rung* below_ = nullptr;
    const Rung* above_ = nullptr;
    u64 below_until_ = 0;  ///< last instant within kWindow of below_
    u64 above_from_ = 0;   ///< first instant within kWindow of above_
    u64 pass_at_ = 0;      ///< above_'s instant, where seek() runs again
  };

  /// The shared half of a backend's finish(): workload name, replay
  /// counters, durability metadata and the completed records in site order
  /// (each bit-identical to the uninterrupted run's).
  template <class Result, class Record>
  void finish(Result& result, EngineRun<Record>& run) const {
    result.workload = prog_.name;
    fault::ReplayCounters& c = result.replay;
    c.ladder_rungs = ladder_.rung_count();
    c.ladder_bytes = ladder_.total_bytes();
    c.ladder_evicted = ladder_.evicted_count();
    c.ladder_restores = ladder_restores_.load();
    c.cold_resets = cold_resets_.load();
    c.fast_forward_cycles = fast_forward_.load();
    c.convergence_cutoffs = convergence_cutoffs_.load();
    c.shifted_cutoffs = shifted_cutoffs_.load();
    c.journal_hits = run.journal_hits;
    c.journal_dropped = run.journal_dropped;
    c.sites_retried = run.sites_retried;
    c.sites_engine_error = run.engine_errors;
    result.truncated = run.truncated;
    result.completed_sites = run.completed;
    result.total_sites = run.records.size();
    result.runs.reserve(run.completed);
    for (std::size_t i = 0; i < run.records.size(); ++i) {
      if (run.done[i] != 0) result.runs.push_back(std::move(run.records[i]));
    }
  }

 private:
  isa::Program prog_;
  Memory initial_mem_;  ///< loaded program image, COW ancestor of all runs
  Memory golden_mem_;
  OffCoreTrace golden_trace_;
  u64 golden_instant_ = 0;
  u64 watchdog_ = 0;
  CheckpointLadder<Snapshot> ladder_;
  // Replay economics, accumulated relaxed by the workers (informational,
  // see fault::ReplayCounters).
  mutable std::atomic<u64> ladder_restores_{0};
  mutable std::atomic<u64> cold_resets_{0};
  mutable std::atomic<u64> fast_forward_{0};
  mutable std::atomic<u64> convergence_cutoffs_{0};
  mutable std::atomic<u64> shifted_cutoffs_{0};
};

}  // namespace issrtl::engine
