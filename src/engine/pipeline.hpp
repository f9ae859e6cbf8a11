// Staged campaign pipeline: restore/prefetch -> arm + step ->
// classify+report, decoupled by small bounded queues. The ISS backend is the
// one backend with a staged driver; RTL campaigns run the synchronous loop.
//
// The synchronous engine runs all four phases of the paper's methodology on
// one thread per shard: position a fault-free prefix, arm a fault, simulate
// the suffix, classify against the golden run. The staged driver splits a
// shard across three threads instead:
//
//   [R] restore/prefetch   materializes golden-prefix snapshots ahead of
//                          demand (one per distinct injection instant)
//   [S] arm + step         the shard's own thread: positions each site's
//                          golden prefix (adopting a prefetched snapshot
//                          when one is ready), arms the fault and runs the
//                          faulty suffix
//   [C] classify+report    drains retired sites, runs the suffix compare /
//                          oracle checks and journal appends off the
//                          stepping path
//
//        restore_q (bounded)            retired_q (bounded)
//   [R] ------------------------> [S] ------------------------> [C]
//        PrefetchGroup<Snapshot>        RetiredPacket<Record>
//
// Determinism invariants at each queue boundary (see docs/ARCHITECTURE.md):
//
//  - restore_q carries instant-sorted groups, one per distinct injection
//    instant of the shard's handout list, in list order. A snapshot is a
//    *pure function of the instant*: the prefetcher replays the same
//    deterministic golden prefix the demand path replays, so adopting a
//    prefetched snapshot and paying a demand restore produce bit-identical
//    simulation state ("restore-source invisibility"). The capture stage
//    therefore NEVER waits for the prefetcher: a missing group falls back
//    to the demand restore and only the stage tallies can tell the
//    difference.
//  - retired_q carries packets in retirement order (schedule-dependent),
//    but each packet's payload is schedule-invariant: classification is a
//    pure function of the packet, records land in per-site slots, and the
//    outcome journal dedupes on site keys, so commit order affects neither
//    fault::outcome_hash nor resume.
//
// Shutdown is close()-based and deadlock-free by construction: the driver
// closes both queues once the capture stage returns (R's blocked push and
// C's blocked pop then unwind), a dead C closes retired_q from its catch
// (S's blocked push returns false and S folds that into its stop poll), and
// a dead R just leaves restore_q closed (S demand-restores everything).
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "common/bus.hpp"
#include "common/types.hpp"
#include "iss/emulator.hpp"

namespace issrtl::engine {

/// Single-producer single-consumer bounded FIFO used at both stage
/// boundaries. push() blocks while full and returns false once closed;
/// pop() blocks while empty, drains remaining items after close() and then
/// returns nullopt; try_pop() never blocks. Stall/backlog statistics are
/// meant to be read after the producing/consuming threads have joined.
template <class T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(std::max<std::size_t>(1, capacity)) {}

  bool push(T&& value) {
    std::unique_lock<std::mutex> lock(mu_);
    if (items_.size() >= capacity_ && !closed_) {
      ++push_stalls_;
      not_full_.wait(lock, [&] { return closed_ || items_.size() < capacity_; });
    }
    if (closed_) return false;
    items_.push_back(std::move(value));
    peak_depth_ = std::max(peak_depth_, items_.size());
    not_empty_.notify_one();
    return true;
  }

  std::optional<T> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [&] { return closed_ || !items_.empty(); });
    return take_locked();
  }

  std::optional<T> try_pop() {
    std::lock_guard<std::mutex> lock(mu_);
    return take_locked();
  }

  /// Idempotent; wakes every blocked push (-> false) and pop (-> drain).
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  u64 push_stalls() const {
    std::lock_guard<std::mutex> lock(mu_);
    return push_stalls_;
  }
  u64 peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

 private:
  std::optional<T> take_locked() {
    if (items_.empty()) return std::nullopt;
    std::optional<T> value(std::move(items_.front()));
    items_.pop_front();
    not_full_.notify_one();
    return value;
  }

  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const std::size_t capacity_;
  bool closed_ = false;
  u64 push_stalls_ = 0;
  u64 peak_depth_ = 0;
};

/// One restore_q element: a run of consecutive items in the shard's
/// instant-sorted handout list that share a single injection instant, plus
/// the golden-prefix snapshot the prefetch stage materialized for it.
/// snap == nullptr means the prefetch failed (or was skipped); the capture
/// stage then pays the demand restore, which is bit-identical.
template <class Snapshot>
struct PrefetchGroup {
  std::size_t first_item = 0;  ///< index into the shard's handout list
  std::size_t count = 0;       ///< number of consecutive items covered
  u64 instant = 0;             ///< shared injection instant (cycles/instrs)
  std::shared_ptr<const Snapshot> snap;
};

/// The capture stage's strictly non-blocking view of restore_q. Groups are
/// consumed in list order; acquire(item) drains whatever the prefetcher has
/// produced so far, discards groups the capture stage has already moved
/// past (retries re-restore on demand), and returns nullptr whenever
/// the containing group is not available *right now*. By restore-source
/// invisibility the winner of that race cannot affect outcomes.
template <class Snapshot>
class SnapshotSource {
 public:
  SnapshotSource(BoundedQueue<PrefetchGroup<Snapshot>>& queue,
                 std::atomic<std::size_t>& demand)
      : queue_(queue), demand_(demand) {}

  const Snapshot* acquire(std::size_t item, u64& waits) {
    // Publish the consumption point so the prefetch stage can skip groups
    // this stage has already moved past instead of materializing them a
    // beat too late (see the demand-watermark note in run_staged_shard).
    demand_.store(item, std::memory_order_relaxed);
    for (;;) {
      if (have_) {
        if (item < current_.first_item) return nullptr;  // behind the window
        if (item < current_.first_item + current_.count)
          return current_.snap.get();
        have_ = false;
        current_.snap.reset();
        continue;
      }
      std::optional<PrefetchGroup<Snapshot>> group = queue_.try_pop();
      if (!group) {
        ++waits;  // prefetcher behind (or done): demand restore
        return nullptr;
      }
      current_ = std::move(*group);
      have_ = true;
    }
  }

 private:
  BoundedQueue<PrefetchGroup<Snapshot>>& queue_;
  std::atomic<std::size_t>& demand_;
  PrefetchGroup<Snapshot> current_;
  bool have_ = false;
};

/// A retired site on its way to the classify stage. `record` carries the
/// site/fault identity filled in at arm time; when pre_classified is set
/// (convergence cutoff, isolation error record) it is already final and the
/// classify stage only commits it. Otherwise the packet carries everything classification
/// needs — the suffix bus-write trace plus the end-state oracle verdict
/// captured while the simulator's memory image was still live — so
/// simulator state never crosses the queue.
template <class Record>
struct RetiredPacket {
  std::size_t item = 0;        ///< index into the shard's handout list
  std::size_t site_index = 0;  ///< backend-global site index
  std::size_t prefix_writes = 0;
  std::vector<BusRecord> suffix;
  iss::HaltReason halt = iss::HaltReason::kRunning;
  bool states_valid = false;  ///< states_ok was evaluated at capture
  bool states_ok = false;     ///< end-state matches the golden oracle
  bool pre_classified = true;
  Record record;
};

/// Per-stage occupancy/stall tallies for one staged shard. These are
/// *observability* counters: they depend on thread scheduling (which side of
/// the adoption race wins, how full the queues run) and are explicitly
/// exempt from the determinism contract, exactly like the rest of
/// fault::ReplayCounters.
struct StageTallies {
  u64 restores_prefetched = 0;   ///< sites that adopted a prefetched snapshot
  u64 restores_demand = 0;       ///< sites that paid the rung/cold restore
  u64 snapshot_waits = 0;        ///< acquire() found the prefetcher behind
  u64 restore_queue_stalls = 0;  ///< prefetch pushes that found restore_q full
  u64 classify_queue_stalls = 0;  ///< retirements that found retired_q full
  u64 classify_backlog_peak = 0;  ///< high-water mark of retired_q depth

  void merge(const StageTallies& other) {
    restores_prefetched += other.restores_prefetched;
    restores_demand += other.restores_demand;
    snapshot_waits += other.snapshot_waits;
    restore_queue_stalls += other.restore_queue_stalls;
    classify_queue_stalls += other.classify_queue_stalls;
    classify_backlog_peak =
        std::max(classify_backlog_peak, other.classify_backlog_peak);
  }
};

/// Everything the capture stage shares with its neighbours: the snapshot
/// source fed by [R], the retirement sink drained by [C], and the tallies
/// (written only by [S] while the pipeline runs).
template <class Snapshot, class Retired>
struct StagePipe {
  /// demand's initial value: the capture stage has not consumed anything
  /// yet, so no group may be skipped.
  static constexpr std::size_t kNoDemand = ~std::size_t{0};

  StagePipe(std::size_t prefetch_depth, std::size_t retired_depth)
      : restore_q(prefetch_depth),
        retired_q(retired_depth),
        src(restore_q, demand) {}

  BoundedQueue<PrefetchGroup<Snapshot>> restore_q;
  BoundedQueue<Retired> retired_q;
  /// Highest handout-list item the capture stage has demanded so far —
  /// written by [S] on every acquire, read by [R] to skip stale groups.
  /// Purely an efficiency signal: it changes which snapshots get produced,
  /// never what any restore produces (restore-source invisibility).
  std::atomic<std::size_t> demand{kNoDemand};
  SnapshotSource<Snapshot> src;
  StageTallies tallies;
};

/// Replay a recorded suffix of bus writes against the golden trace starting
/// at `prefix_writes` matched records. Returns a divergence whose index and
/// cycle are golden-absolute, mirroring OffCoreTrace::compare_writes over
/// the full trace (the restored prefix is golden by construction). Used by
/// the staged classify stage.
TraceDivergence compare_suffix_writes(const std::vector<BusRecord>& golden,
                                      std::size_t prefix_writes,
                                      const std::vector<BusRecord>& suffix);

/// Run one shard through the staged pipeline. Backend must expose
/// `PrefetchSnapshot`, `Retired`, `site_instant(site)`, `make_prefetcher
/// (shard)`, `make_classifier()` and `error_record(site, what)`; Worker must
/// expose `run_capture(indices, pipe, stop, counters)`. `commit` is the
/// engine's journal-append + record-slot + progress closure and is invoked
/// from the classify thread; the driver joins both helper threads before
/// returning, so every captured frame outlives its use.
///
/// Fault isolation mirrors the synchronous path stage by stage: restore /
/// arm / step failures are contained inside run_capture (per-site retry),
/// classify failures are retried once on the classify thread and then
/// demoted to an engine-error record — identical counters, identical record
/// text, pipeline on or off.
template <class Backend, class Worker, class Commit, class Stop,
          class Counters>
void run_staged_shard(const Backend& backend, Worker& worker, unsigned shard,
                      const std::vector<std::size_t>& indices,
                      const Commit& commit, const Stop& stop,
                      Counters& counters, StageTallies& tallies,
                      std::size_t prefetch_depth) {
  using Snapshot = typename Backend::PrefetchSnapshot;
  using Retired = typename Backend::Retired;
  using Record = decltype(std::declval<Retired&>().record);

  StagePipe<Snapshot, Retired> pipe(prefetch_depth, 2 * prefetch_depth);

  // Instant-sorted order in: one group per distinct injection instant.
  std::vector<PrefetchGroup<Snapshot>> groups;
  for (std::size_t i = 0; i < indices.size();) {
    PrefetchGroup<Snapshot> group;
    group.first_item = i;
    group.instant = backend.site_instant(indices[i]);
    std::size_t j = i + 1;
    while (j < indices.size() && backend.site_instant(indices[j]) == group.instant)
      ++j;
    group.count = j - i;
    groups.push_back(std::move(group));
    i = j;
  }

  std::thread restore_stage([&] {
    try {
      auto prefetcher = backend.make_prefetcher(shard);
      for (PrefetchGroup<Snapshot>& group : groups) {
        if (stop()) break;
        // Demand watermark: never spend a restore on a group the capture
        // stage has already started. Without this a prefetcher that loses
        // the initial race chases demand exactly one group behind for the
        // whole shard — every snapshot arrives just after its demand
        // restore already ran — because both stages advance at the same
        // per-group rate. Skipping ahead to the first still-undemanded
        // group breaks the lockstep; the skipped groups restore on demand,
        // which is bit-identical by restore-source invisibility.
        const std::size_t demanded =
            pipe.demand.load(std::memory_order_relaxed);
        if (demanded != StagePipe<Snapshot, Retired>::kNoDemand &&
            group.first_item <= demanded) {
          continue;
        }
        try {
          group.snap = prefetcher->materialize(group.instant);
        } catch (...) {
          group.snap = nullptr;  // capture stage falls back to demand
        }
        if (!pipe.restore_q.push(std::move(group))) break;
      }
    } catch (...) {
      // Prefetcher construction failed: every group restores on demand.
    }
    pipe.restore_q.close();
  });

  std::exception_ptr classify_error;
  std::thread classify_stage([&] {
    try {
      auto classifier = backend.make_classifier();
      while (std::optional<Retired> packet = pipe.retired_q.pop()) {
        const std::size_t site = packet->site_index;
        Record record;
        if (packet->pre_classified) {
          record = std::move(packet->record);
        } else {
          try {
            record = classifier->classify(*packet);
          } catch (...) {
            counters.retried.fetch_add(1, std::memory_order_relaxed);
            try {
              record = classifier->classify(*packet);
            } catch (const std::exception& e) {
              counters.engine_errors.fetch_add(1, std::memory_order_relaxed);
              record = backend.error_record(site, e.what());
            } catch (...) {
              counters.engine_errors.fetch_add(1, std::memory_order_relaxed);
              record = backend.error_record(site, "unknown exception");
            }
          }
        }
        commit(site, std::move(record));
      }
    } catch (...) {
      classify_error = std::current_exception();
      pipe.retired_q.close();  // unwind a capture stage blocked mid-push
    }
  });

  std::exception_ptr capture_error;
  try {
    worker.run_capture(indices, pipe, stop, counters);
  } catch (...) {
    capture_error = std::current_exception();
  }
  pipe.restore_q.close();
  pipe.retired_q.close();
  restore_stage.join();
  classify_stage.join();

  pipe.tallies.restore_queue_stalls += pipe.restore_q.push_stalls();
  pipe.tallies.classify_queue_stalls += pipe.retired_q.push_stalls();
  pipe.tallies.classify_backlog_peak = std::max(
      pipe.tallies.classify_backlog_peak, pipe.retired_q.peak_depth());
  tallies.merge(pipe.tallies);

  if (capture_error) std::rethrow_exception(capture_error);
  if (classify_error) std::rethrow_exception(classify_error);
}

}  // namespace issrtl::engine
