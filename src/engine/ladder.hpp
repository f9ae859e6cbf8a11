// Checkpoint ladder: periodic golden-run snapshots shared by every worker.
//
// Without it, every injection re-simulates its fault-free golden prefix
// from reset, O(instant) cycles per site. While GoldenReplay (replay.hpp)
// runs the golden reference (exactly once anyway), the ladder records a
// snapshot — "rung" — every `stride` instants, doubling the stride (and
// thinning the rungs to the new grid) whenever it outgrows kLadderMaxRungs.
// Each injection then restores from the highest rung at or below its
// instant (or resets when there is none) and fast-forwards only
// `instant mod stride` cycles, independent of thread count and of how the
// instants are distributed. A rung or a reset is the only restore source;
// stride 0 disables the ladder and leaves the from-reset reference path.
//
// Rungs are cheap because of the packed state layout: the RTL node half is
// a 4·N-byte memcpy (rtl::SimContext::save_values), the memory half is a
// copy-on-write clone (O(pages) shared_ptr copies, Memory::clone), and the
// O(instant) bus trace is *not* stored — a rung taken on the golden run has
// by construction a trace that is a prefix of the golden trace, so the
// simulator checkpoint keeps only the write-prefix length and the restore
// path rebuilds the trace from GoldenReplay's golden copy
// (OffCoreTrace::assign_prefix).
//
// Rungs double as a *golden state oracle*: a faulty run whose state is
// bit-identical to a rung's (and all writes matched so far) is provably
// silent for the rest of the run — see GoldenReplay's convergence cut-off,
// which is what turns masked transients from full-suffix replays into
// O(stride) ones. The run may be at the rung's instant or, for a simulator
// whose instant counters are relative-only (Sim::kShiftWindow > 0), a few
// instants before or after it: its remainder is then the golden remainder
// shifted in time, so the cut-off looks up the nearest rungs below and
// above the run's instant.
//
// Thread safety: the ladder is built single-threaded during the golden run
// and is immutable afterwards; workers only read it. Snapshots are
// held by shared_ptr-to-const, so restoring never copies a rung, and the
// COW page control blocks make the concurrent Memory::clone calls safe.
#pragma once

#include <algorithm>
#include <cstddef>
#include <deque>
#include <memory>

#include "common/types.hpp"

namespace issrtl::engine {

/// Rung count past which the ladder doubles its stride (see record()).
inline constexpr std::size_t kLadderMaxRungs = 1024;

/// Ladder of golden-run snapshots, ordered by instant.
///
/// `Snapshot` is GoldenReplay's rung payload (simulator checkpoint + COW
/// memory clone). Recording starts at the requested stride; whenever the
/// rung count outgrows kLadderMaxRungs the stride doubles and rungs off
/// the new grid are dropped, so the spacing adapts to the golden span
/// without knowing it up front and the rung count — hence memory — stays
/// bounded whatever the starting stride.
///
/// Sizes are supplied by the caller at record() time for reporting only;
/// the ladder never inspects the payload.
template <class Snapshot>
class CheckpointLadder {
 public:
  /// One recorded snapshot. `snap` is shared with every worker that
  /// restores from it; `bytes` is the caller's size estimate.
  struct Rung {
    u64 instant = 0;
    std::size_t bytes = 0;
    std::shared_ptr<const Snapshot> snap;
  };

  CheckpointLadder() = default;
  explicit CheckpointLadder(u64 stride) : stride_(stride) {}

  /// A ladder with stride 0 never wants or stores rungs.
  bool enabled() const noexcept { return stride_ != 0; }
  u64 stride() const noexcept { return stride_; }

  /// True when the recording loop should snapshot at `instant`: ladder
  /// enabled, instant on the stride grid (and not the trivial reset state),
  /// and strictly past the newest rung.
  bool wants(u64 instant) const noexcept {
    return enabled() && instant != 0 && instant % stride_ == 0 &&
           (rungs_.empty() || rungs_.back().instant < instant);
  }

  /// Append a rung (instants must be recorded in increasing order), then
  /// double the stride and thin the ladder while it holds more than
  /// kLadderMaxRungs rungs.
  void record(u64 instant, std::shared_ptr<const Snapshot> snap,
              std::size_t bytes) {
    rungs_.push_back(Rung{instant, bytes, std::move(snap)});
    total_bytes_ += bytes;
    while (rungs_.size() > kLadderMaxRungs) {
      stride_ *= 2;
      thin_to_stride();
    }
  }

  /// Highest rung with rung.instant <= instant, or nullptr when every rung
  /// is above `instant` (or the ladder is empty). The pointer is valid
  /// until the next record() call; after recording finishes, forever.
  const Rung* best_at_or_below(u64 instant) const noexcept {
    const auto it = std::upper_bound(
        rungs_.begin(), rungs_.end(), instant,
        [](u64 v, const Rung& r) { return v < r.instant; });
    return it == rungs_.begin() ? nullptr : &*std::prev(it);
  }

  /// Lowest rung with rung.instant > instant, or nullptr when there is none.
  const Rung* first_above(u64 instant) const noexcept {
    const auto it = std::upper_bound(
        rungs_.begin(), rungs_.end(), instant,
        [](u64 v, const Rung& r) { return v < r.instant; });
    return it == rungs_.end() ? nullptr : &*it;
  }

  std::size_t rung_count() const noexcept { return rungs_.size(); }
  std::size_t total_bytes() const noexcept { return total_bytes_; }
  /// Rungs dropped so far by stride doubling.
  u64 evicted_count() const noexcept { return evicted_; }

 private:
  /// Drop every rung off the (just doubled) stride grid. The newest rung is
  /// always retained so the ladder keeps its hottest restore point.
  void thin_to_stride() {
    std::deque<Rung> kept;
    for (std::size_t i = 0; i < rungs_.size(); ++i) {
      if (rungs_[i].instant % stride_ == 0 || i + 1 == rungs_.size()) {
        kept.push_back(std::move(rungs_[i]));
      } else {
        total_bytes_ -= rungs_[i].bytes;
        ++evicted_;
      }
    }
    rungs_.swap(kept);
  }

  u64 stride_ = 0;
  std::size_t total_bytes_ = 0;
  u64 evicted_ = 0;
  std::deque<Rung> rungs_;  ///< ascending by instant
};

}  // namespace issrtl::engine
