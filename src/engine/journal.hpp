// Write-ahead outcome journal: the campaign durability layer.
//
// A campaign's unit of progress is one classified fault site, and — by the
// engine's determinism contract — each site's record depends only on the
// site and the golden run, never on which worker simulated it, in what
// order, or alongside which pool-mates. That makes the completed-site set a
// crash-safe checkpoint of the whole campaign: persist each record as it
// retires, and any partition of the site list between "imported from the
// journal" and "re-simulated after restart" merges into a result that is
// bit-identical (outcomes, latencies, fault::outcome_hash) to an
// uninterrupted run.
//
// OutcomeJournal implements that persistence as an append-only text file
// under a caller-supplied directory, one file per campaign identity:
//
//   issrtl-journal v1 key=<fnv64 hex> total=<site count>
//   s <index> <site_key hex> <outcome> <latency> <halt> <error|-> <chain hex>
//   ...
//
// * The file name and header carry the campaign key — an FNV-1a fingerprint
//   of (workload image, campaign config, seed, golden run) computed by the
//   backend — so a resume against a different workload or config opens a
//   different file instead of importing foreign records.
// * Every record line ends in a hash chain: chain_i = FNV-1a(chain_{i-1} ||
//   payload_i) with chain_0 derived from the campaign key. A torn final
//   line (the crash case fsync-less appends allow), a flipped byte, or any
//   truncation mid-file breaks the chain at that record; recovery keeps the
//   longest valid prefix and drops the rest, and the engine simply
//   re-simulates the dropped sites — corruption degrades to extra work,
//   never to imported garbage.
// * Each record also carries its site key (an FNV-1a of the site's
//   node/bit/model/instant) which the engine cross-checks against the
//   enumerated fault list before importing, a second guard against key
//   collisions between campaigns.
//
// Appends take a mutex and flush per record, so every record a worker
// committed before a crash is on its way to the file in order; recovery
// rewrites the file compacted (valid prefix only) before reopening it for
// appends. Appends arrive from every worker thread in completion order
// (schedule-dependent), which is fine by construction: records are
// schedule-invariant and import dedupes first-wins on site index, so any
// append interleaving resumes into the same merged result.
#pragma once

#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace issrtl::engine {

/// Incremental FNV-1a fingerprint, the shared hashing primitive behind
/// campaign keys, per-site keys and the journal's record hash chain.
/// Deliberately the same function family as fault::outcome_hash.
struct Fingerprint {
  u64 h = 1469598103934665603ull;

  void mix_bytes(const void* p, std::size_t n) noexcept {
    const unsigned char* bytes = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= bytes[i];
      h *= 1099511628211ull;
    }
  }
  void mix(u64 v) noexcept {
    unsigned char bytes[8];
    for (int i = 0; i < 8; ++i) bytes[i] = static_cast<unsigned char>(v >> (8 * i));
    mix_bytes(bytes, 8);
  }
  /// Length-prefixed, so ("ab","c") and ("a","bc") fingerprint differently.
  void mix_str(std::string_view s) noexcept {
    mix(s.size());
    mix_bytes(s.data(), s.size());
  }
};

/// One journaled site outcome, in the backend-neutral shape the file
/// stores. Backends convert their Record type to and from this (see the
/// journal_entry / record_from_journal backend hooks in engine.hpp).
struct JournalEntry {
  std::size_t index = 0;  ///< site index in the campaign's fault list
  u64 site_key = 0;       ///< backend's per-site fingerprint (cross-check)
  u32 outcome = 0;        ///< backend-defined outcome code
  u64 latency = 0;
  u32 halt = 0;           ///< backend-defined halt code
  std::string error;      ///< kEngineError exception text ("" otherwise)
};

/// Append-only, hash-chained outcome journal for one campaign identity.
/// Thread-safe for append(); recovery happens once, in the constructor.
class OutcomeJournal {
 public:
  /// The file `dir`-resident campaigns with key `campaign_key` journal to.
  static std::string path_for(const std::string& dir, u64 campaign_key);

  /// Opens (creating `dir` if needed) the campaign's journal file. With
  /// `resume` the existing file's longest chain-valid prefix is loaded into
  /// recovered() — anything after a checksum break is counted in
  /// dropped_records() and discarded — and the file is rewritten compacted
  /// (valid prefix only, via a temp file + rename) before reopening for
  /// appends. Without `resume` any existing file is truncated: a fresh run
  /// must not merge stale records. Throws std::runtime_error when the
  /// directory or file cannot be created.
  OutcomeJournal(const std::string& dir, u64 campaign_key,
                 std::size_t total_sites, bool resume);
  ~OutcomeJournal();
  OutcomeJournal(const OutcomeJournal&) = delete;
  OutcomeJournal& operator=(const OutcomeJournal&) = delete;

  /// Chain-valid records recovered at open (empty unless resuming). The
  /// engine still cross-checks each entry's index and site_key before
  /// importing it.
  const std::vector<JournalEntry>& recovered() const noexcept {
    return recovered_;
  }
  /// Records discarded at recovery: the torn/corrupt record that broke the
  /// hash chain plus everything after it (unverifiable once the chain is
  /// broken — those sites are simply re-simulated).
  std::size_t dropped_records() const noexcept { return dropped_; }
  const std::string& path() const noexcept { return path_; }

  /// Append one completed site. Serialised internally; flushed per record
  /// so a crash loses at most the in-flight line (which recovery then
  /// drops via the chain check).
  void append(const JournalEntry& e);

 private:
  void load();
  void rewrite_compacted();

  std::string path_;
  u64 key_ = 0;
  std::size_t total_ = 0;
  std::vector<JournalEntry> recovered_;
  std::size_t dropped_ = 0;
  std::FILE* file_ = nullptr;
  u64 chain_ = 0;  ///< hash chain over everything written so far
  std::mutex mu_;
};

}  // namespace issrtl::engine
