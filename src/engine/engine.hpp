// Unified parallel campaign engine.
//
// Both fault-injection vehicles (the RTL core and the functional ISS) run
// campaigns with the same shape: enumerate fault sites, position a simulator
// at the injection instant, run the faulty suffix, classify the outcome
// against a golden run. The shape is written once in two layers:
//
//  * CampaignEngine (this header) schedules sites over a pool of worker
//    threads. Site i always belongs to shard i % threads and its record
//    always lands in slot i, so an N-thread run is bit-identical to a serial
//    one. It also owns the journal, worker isolation, graceful stop and
//    progress reporting (EngineOptions::on_progress);
//  * GoldenReplay (engine/replay.hpp) is the per-simulator half: the golden
//    run and its checkpoint ladder, resuming each fault-free prefix from
//    the nearest rung instead of from reset, and the write match and
//    convergence cut-off of the faulty suffix. Outcome aggregation is
//    shared too (engine/stats.hpp).
//
// Backend concept (see engine/rtl_backend.hpp, engine/iss_backend.hpp):
//
//   using Record = ...;                    // per-injection result
//   std::size_t site_count() const;
//   u64 site_instant(std::size_t i) const; // injection instant of site i
//   std::unique_ptr<Worker> make_worker(unsigned shard) const;
//     // thread-safe; Worker::run_site(std::size_t i) -> Record is
//     // deterministic per i (backends draw nothing after enumeration, so
//     // the shard number only names the calling thread)
//
// For durability (write-ahead journal, see engine/journal.hpp) a backend
// also identifies its campaign and converts records to/from the journal's
// backend-neutral entries:
//
//   u64 campaign_key() const;              // (workload, config, seed) hash
//   u64 site_key(std::size_t i) const;     // per-site cross-check hash
//   JournalEntry journal_entry(std::size_t i, const Record&) const;
//   Record record_from_journal(const JournalEntry&) const;
//   Record error_record(std::size_t i, const std::string& what) const;
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <map>
#include <stdexcept>

#include "common/types.hpp"
#include "engine/journal.hpp"

namespace issrtl::engine {

/// Incremental progress surfaced to EngineOptions::on_progress. Counts are
/// monotonic across the whole campaign, not per worker.
struct EngineProgress {
  std::size_t completed = 0;
  std::size_t total = 0;
};

struct EngineOptions {
  /// Worker threads. 0 means std::thread::hardware_concurrency(). Results
  /// are bit-identical for every thread count.
  unsigned threads = 1;
  /// Initial rung spacing of the checkpoint ladder recorded during the
  /// golden run (cycles for the RTL backend, retired instructions for the
  /// ISS one). The ladder doubles its stride whenever it outgrows
  /// kLadderMaxRungs, so any starting stride adapts to the golden span; 0
  /// disables the ladder, so every site re-simulates its fault-free prefix
  /// from reset — the reference path. Results are bit-identical for every
  /// stride, including 0 — the ladder only changes where fault-free
  /// prefixes are resumed from.
  u64 ladder_stride = 64;
  /// Called (serialised) as injections finish; every worker reports at
  /// least every `progress_stride` completed sites.
  std::function<void(const EngineProgress&)> on_progress;
  std::size_t progress_stride = 64;
  /// Campaign directory for the write-ahead outcome journal (see
  /// engine/journal.hpp); empty disables journaling. Each campaign
  /// identity — the backend's campaign_key() over (workload image, config,
  /// seed, golden run) — gets its own file under the directory, so one
  /// directory serves many campaigns. ISSRTL_JOURNAL is the environment
  /// path.
  std::string journal_dir;
  /// With a journal_dir: import the journal's chain-valid records instead
  /// of re-simulating their sites. The merged result (outcomes, latencies,
  /// fault::outcome_hash) is bit-identical to an uninterrupted run
  /// whatever the original run's crash point or thread count — per-site
  /// records depend only on the site and the golden run, so any
  /// import/re-simulate partition merges identically.
  /// false (the default) truncates any existing journal file first: a
  /// fresh campaign must not silently merge stale records. ISSRTL_RESUME
  /// (strict 0/1) is the environment path.
  bool resume = false;
  /// Wall-clock budget in milliseconds, measured from CampaignEngine::run
  /// entry; 0 = none. On expiry workers stop starting sites, drain their
  /// in-flight sites, flush the journal, and the campaign returns a
  /// partial result marked truncated (completed/total counts filled in).
  /// ISSRTL_DEADLINE_MS is the environment path.
  u64 deadline_ms = 0;
  /// Cooperative stop flag (optional, not owned): checked alongside the
  /// deadline at per-site granularity. issrtl_cli points this at
  /// engine::signal_stop_flag() after install_signal_stop(), which is what
  /// makes Ctrl-C a graceful truncation instead of a lost campaign. A site that already started always finishes (abandoning
  /// mid-site would make the completed set timing-dependent); only
  /// not-yet-started sites are skipped.
  const std::atomic<bool>* stop = nullptr;
  /// Test-only fault-injection hook (ISSRTL_FAIL_SITE): comma-separated
  /// site indices whose host simulation throws while being processed —
  /// "<i>" throws on every attempt (deterministic failure: the retry also
  /// throws, the site classifies kEngineError), "<i>:once" throws on the
  /// first attempt only (transient host trouble: the fresh-restore retry
  /// succeeds). An optional stage tag ("<i>:step", "<i>:once:classify")
  /// moves the throw from fault-arm time (the default, ":arm") to the
  /// restore, stepping or classification point of the per-site loop, so
  /// isolation can be exercised on every stage of a site (an RTL site the
  /// activation pre-screen answers passes all four points too). Exercises
  /// every retirement path of the worker-isolation machinery; empty (the
  /// default) disables it.
  std::string fail_sites;
};

/// `base` with the ISSRTL_* environment knobs folded in: ISSRTL_THREADS
/// (worker threads), ISSRTL_CKPT_STRIDE (initial rung spacing in instants;
/// 0 re-simulates every prefix from reset), ISSRTL_JOURNAL (write-ahead
/// journal directory; any non-empty path), ISSRTL_RESUME (1 = import the
/// journal's records, 0 = truncate it; any other value is rejected),
/// ISSRTL_DEADLINE_MS (wall-clock budget in milliseconds; 0 = none) and
/// ISSRTL_FAIL_SITE (test-only throw hook, comma-separated "<site>" /
/// "<site>:once" with an optional ":restore"/":arm"/":step"/":classify"
/// stage tag). Unset or empty variables leave the corresponding field of
/// `base` untouched; front ends apply explicit command-line arguments on
/// top. A set numeric variable must pass parse_u64; anything else throws
/// std::invalid_argument naming the offending variable, rather than
/// silently running a campaign with a mangled configuration.
EngineOptions options_from_env(EngineOptions base = {});

/// Strict full-string parse of an unsigned decimal: plain digits only (no
/// sign, no whitespace, no trailing junk — strtoull happily wraps "-4" to
/// 18446744073709551612 and stops at the 'x' of "4x", and atoi turns "abc"
/// into 0), and the result must fit `max_value`. Throws
/// std::invalid_argument "<name>: invalid value '<value>' (<why>)"
/// otherwise. Every ISSRTL_* numeric knob and every numeric argument of
/// the CLI front ends goes through it.
u64 parse_u64(const char* name, const std::string& value, u64 max_value);

/// Threads actually used for `sites` fault sites under `requested`.
unsigned resolve_threads(unsigned requested, std::size_t sites);

/// Which processing stage of a site an ISSRTL_FAIL_SITE entry throws in.
enum class FailStage : u8 {
  kRestore,   ///< right after golden-prefix positioning for the site
  kArm,       ///< right after the fault is armed (the default)
  kStep,      ///< as the faulty-suffix stepping starts
  kClassify,  ///< at classification start (skipped by convergence cutoffs)
};

/// Parsed EngineOptions::fail_sites spec (test-only hook).
struct FailSiteSpec {
  struct Entry {
    bool once = false;  ///< throw on the first attempt only
    FailStage stage = FailStage::kArm;
  };
  std::vector<std::pair<std::size_t, Entry>> sites;  // few entries: linear

  bool empty() const noexcept { return sites.empty(); }
  const Entry* find(std::size_t index) const noexcept {
    for (const auto& [i, e] : sites) {
      if (i == index) return &e;
    }
    return nullptr;
  }
};

/// Strict parse of a fail-site spec ("3", "3:once", "3:step",
/// "3:once:classify", comma-separated; tags in any order, at most one stage
/// tag per site); throws std::invalid_argument on anything else. "" parses
/// to an empty spec.
FailSiteSpec parse_fail_sites(const std::string& spec);

/// Shared ISSRTL_FAIL_SITE trigger: throws std::runtime_error when `spec`
/// names `site_index` at `stage` (respecting :once against this holder's
/// per-site attempt map). Both backends' workers call this, so the error
/// text — including the attempt number — is identical across backends.
inline void maybe_fail_stage(const FailSiteSpec& spec,
                             std::map<std::size_t, unsigned>& attempts,
                             std::size_t site_index, FailStage stage) {
  if (spec.empty()) return;
  const FailSiteSpec::Entry* entry = spec.find(site_index);
  if (entry == nullptr || entry->stage != stage) return;
  const unsigned attempt = ++attempts[site_index];
  if (entry->once && attempt > 1) return;
  throw std::runtime_error("ISSRTL_FAIL_SITE: injected worker fault at site " +
                           std::to_string(site_index) + " (attempt " +
                           std::to_string(attempt) + ")");
}

/// Process-global stop flag set by install_signal_stop()'s handlers.
/// Front ends wire EngineOptions::stop to it.
std::atomic<bool>& signal_stop_flag();

/// Route SIGINT/SIGTERM to signal_stop_flag() (idempotent). The first
/// signal requests a graceful stop — drain, flush the journal, return a
/// truncated result — and re-arms the default disposition, so a second
/// Ctrl-C force-kills as usual.
void install_signal_stop();

/// What CampaignEngine::run hands back: site-indexed records plus the
/// durability metadata backends fold into their CampaignResult. Only slots
/// with done[i] != 0 hold a valid record; completed counts them. truncated
/// == (completed < records.size()) — a stop request that arrived after the
/// last site is not a truncation.
template <class Record>
struct EngineRun {
  std::vector<Record> records;
  std::vector<u8> done;
  std::size_t completed = 0;
  bool truncated = false;
  u64 journal_hits = 0;     ///< sites imported from the journal
  u64 journal_dropped = 0;  ///< journal records rejected (chain/site-key)
  u64 sites_retried = 0;
  u64 engine_errors = 0;
};

/// Ready-made on_progress callback: rewrites a `done/total injections`
/// line on stderr, newline once complete. Shared by the CLI front ends.
std::function<void(const EngineProgress&)> stderr_progress();

class CampaignEngine {
 public:
  explicit CampaignEngine(EngineOptions opts = {}) : opts_(std::move(opts)) {}

  /// Execute every site of `backend` and return the records in site order.
  /// Shard w owns sites {i : i % threads == w} and replays them sorted by
  /// injection instant (so the sites of one instant run back to back); the
  /// slot a record lands in depends only on its site index, which makes the
  /// result independent of thread count and scheduling.
  ///
  /// Durability (opts.journal_dir): chain-valid journal records are
  /// imported up front (their sites never reach a worker) and every
  /// freshly completed site is appended — before its done bit is set — so
  /// a crash at any point loses at most the in-flight sites. Worker
  /// isolation: a site whose simulation throws is retried once on a fresh
  /// restore, then classified via backend.error_record; other sites and
  /// shards are unaffected. Graceful stop (opts.stop / opts.deadline_ms):
  /// workers stop starting sites, drain in-flight sites, and run returns a
  /// partial EngineRun with truncated set. Every completed record is
  /// bit-identical to the uninterrupted run's, whichever of these paths
  /// produced it.
  template <class Backend>
  EngineRun<typename Backend::Record> run(Backend& backend) {
    using Record = typename Backend::Record;
    EngineRun<Record> out;
    const std::size_t total = backend.site_count();
    out.records.resize(total);
    out.done.assign(total, 0);
    if (total == 0) return out;

    std::unique_ptr<OutcomeJournal> journal;
    if (!opts_.journal_dir.empty()) {
      journal = std::make_unique<OutcomeJournal>(
          opts_.journal_dir, backend.campaign_key(), total, opts_.resume);
      out.journal_dropped += journal->dropped_records();
      for (const JournalEntry& e : journal->recovered()) {
        // The chain proves the record is what this campaign once wrote;
        // the index/site-key check guards the residual risk of a key
        // collision (and duplicate indices from pre-compaction appends —
        // first wins, later ones were re-simulations of the same site).
        if (e.index >= total || e.site_key != backend.site_key(e.index) ||
            out.done[e.index] != 0) {
          ++out.journal_dropped;
          continue;
        }
        out.records[e.index] = backend.record_from_journal(e);
        out.done[e.index] = 1;
        ++out.journal_hits;
      }
    }
    const std::size_t remaining = total - out.journal_hits;
    std::atomic<std::size_t> completed{out.journal_hits};
    if (remaining == 0) {
      out.completed = total;
      return out;
    }

    const unsigned threads = resolve_threads(opts_.threads, remaining);

    // Stop control: external flag (signal or embedder) checked every poll,
    // wall-clock deadline alongside it. The latch makes a stop sticky and
    // campaign-wide the moment any worker observes it.
    std::atomic<bool> stop_latch{false};
    const bool has_deadline = opts_.deadline_ms != 0;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(opts_.deadline_ms);
    auto stop_poll = [&]() -> bool {
      if (stop_latch.load(std::memory_order_relaxed)) return true;
      if ((opts_.stop != nullptr &&
           opts_.stop->load(std::memory_order_relaxed)) ||
          (has_deadline && std::chrono::steady_clock::now() >= deadline)) {
        stop_latch.store(true, std::memory_order_relaxed);
        return true;
      }
      return false;
    };

    std::atomic<u64> retried{0};        // sites re-run after a first throw
    std::atomic<u64> engine_errors{0};  // sites whose retry also threw
    std::mutex journal_mu;
    std::mutex progress_mu;
    std::size_t reported = 0;  // highest count delivered, under progress_mu
    std::vector<std::exception_ptr> errors(threads);

    auto run_shard = [&](unsigned shard) {
      try {
        std::vector<std::size_t> mine;
        mine.reserve(remaining / threads + 1);
        for (std::size_t i = shard; i < total; i += threads) {
          if (out.done[i] == 0) mine.push_back(i);
        }
        if (mine.empty()) return;
        std::stable_sort(mine.begin(), mine.end(),
                         [&](std::size_t a, std::size_t b) {
                           return backend.site_instant(a) <
                                  backend.site_instant(b);
                         });
        auto worker = backend.make_worker(shard);
        std::size_t unreported = 0;
        for (const std::size_t i : mine) {
          if (stop_poll()) return;
          // Worker isolation: one fresh-restore retry distinguishes
          // transient host trouble from a deterministic engine bug; the
          // second throw is contained as an error record for this site
          // only (run_site starts from position(), so the retry sees a
          // clean, fault-free restore).
          Record r;
          try {
            r = worker->run_site(i);
          } catch (...) {
            retried.fetch_add(1, std::memory_order_relaxed);
            try {
              r = worker->run_site(i);
            } catch (const std::exception& e) {
              engine_errors.fetch_add(1, std::memory_order_relaxed);
              r = backend.error_record(i, e.what());
            } catch (...) {
              engine_errors.fetch_add(1, std::memory_order_relaxed);
              r = backend.error_record(i, "unknown exception");
            }
          }
          // Write-ahead commit: journal first, then publish the record and
          // its done bit. A crash between the two re-simulates the site on
          // resume and re-appends an identical record (first-wins dedupe
          // on import makes the duplicate harmless).
          if (journal) {
            const std::lock_guard<std::mutex> lock(journal_mu);
            journal->append(backend.journal_entry(i, r));
          }
          out.records[i] = std::move(r);
          out.done[i] = 1;
          const std::size_t done = completed.fetch_add(1) + 1;
          if (opts_.on_progress &&
              (++unreported >= opts_.progress_stride || done == total)) {
            unreported = 0;
            const std::lock_guard<std::mutex> lock(progress_mu);
            // Re-read under the lock and deliver only new maxima, so the
            // callback sees a monotonic count even when workers race
            // between their fetch_add and this critical section.
            const std::size_t now = completed.load();
            if (now > reported) {
              reported = now;
              opts_.on_progress({now, total});
            }
          }
        }
      } catch (...) {
        errors[shard] = std::current_exception();
      }
    };

    if (threads == 1) {
      run_shard(0);
    } else {
      std::vector<std::thread> pool;
      pool.reserve(threads);
      for (unsigned w = 0; w < threads; ++w) pool.emplace_back(run_shard, w);
      for (std::thread& t : pool) t.join();
    }
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
    out.completed = completed.load();
    out.truncated = out.completed < total;
    out.sites_retried = retried.load();
    out.engine_errors = engine_errors.load();
    return out;
  }

 private:
  EngineOptions opts_;
};

}  // namespace issrtl::engine
