// RTL fault-injection campaign vocabulary and fault-list enumeration;
// engine::run_rtl_campaign runs the campaign.
//
// Reproduces the paper's methodology (§4.1): enumerate the injectable nodes
// of a target unit (IU or CMEM), inject single permanent faults (stuck-at-0,
// stuck-at-1, open-line) at a fixed instant, run the workload, and classify
// the outcome against a golden run. Failure = any mismatch in the off-core
// write sequence (the light-lockstep comparison boundary); a watchdog
// converts hangs into missing-write failures; runs whose writes match but
// whose internal state differs are *latent* (not failures, per the paper's
// discussion of LiVe [7]).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "isa/program.hpp"
#include "rtl/fault.hpp"
#include "rtl/kernel.hpp"
#include "rtlcore/core.hpp"

namespace issrtl::fault {

using rtl::FaultModel;

/// One injection target: a bit of a named RTL node at a fixed instant.
struct FaultSite {
  rtl::NodeId node = 0;
  u8 bit = 0;
  FaultModel model = FaultModel::kStuckAt0;
  u64 inject_cycle = 0;
};

enum class Outcome : u8 {
  kSilent,   ///< write trace and final state match the golden run
  kLatent,   ///< write trace matches, internal state differs (lockstep-invisible)
  kFailure,  ///< off-core write mismatch (value/address/order/extra)
  kHang,     ///< watchdog expired (missing writes — detected by lockstep)
  /// The *host* simulation of this site threw (engine bug or host trouble),
  /// twice — once on the original attempt and once on a fresh-restore
  /// retry. Says nothing about the fault's effect on the core; the record
  /// carries the exception text and is excluded from the pf() denominator.
  kEngineError,
};

std::string_view outcome_name(Outcome o);

/// Result of one injection run.
struct InjectionResult {
  FaultSite site;
  std::string node_name;
  std::string unit;
  Outcome outcome = Outcome::kSilent;
  u64 latency_cycles = 0;  ///< injection -> first observable divergence
  /// How the faulty run ended. kRunning means the engine abandoned the
  /// simulation at its first wrong or extra off-core write, when the run
  /// was already a failure (engine::GoldenReplay::Suffix::diverged()).
  iss::HaltReason halt = iss::HaltReason::kRunning;
  /// Exception text for Outcome::kEngineError records; empty otherwise.
  std::string error;
};

/// How the fixed injection instant is chosen per trial.
enum class InjectTime : u8 {
  kEarly,          ///< ~1% into the golden run (paper-style fixed instant)
  kUniformRandom,  ///< uniform over [1, golden_cycles] (seeded)
  kFixedCycle,     ///< CampaignConfig::fixed_cycle
};

/// Kept only because the benchmark harness assigns kFull; it has no other
/// value and no effect (see CampaignConfig::instant_window).
enum class InstantWindow : u8 {
  kFull,
};

struct CampaignConfig {
  std::string unit_prefix = "iu";       ///< "iu", "cmem", or a subunit
  /// FaultModel::kBridge is a configuration error (build_fault_list
  /// throws): the kernel cannot arm it.
  std::vector<FaultModel> models = {FaultModel::kStuckAt1};
  /// Number of injection trials (sampled uniformly over node bits). 0 means
  /// exhaustive: every bit of every node in the unit, per model.
  std::size_t samples = 200;
  /// Injection instants drawn per sampled (node, bit): 1 is the classic
  /// one-shot campaign; K > 1 sweeps every site at K instants (so the
  /// campaign has samples*K trials per model) — the sensitivity-vs-time
  /// study the checkpoint ladder makes affordable. Requires
  /// InjectTime::kUniformRandom when > 1 (build_fault_list throws
  /// otherwise: a deterministic instant would just duplicate each site K
  /// times). 0 is a configuration error (build_fault_list throws rather
  /// than silently clamping a mistyped argument to 1). With 1 the
  /// fault-list draw order is bit-identical to the pre-multi-instant
  /// campaigns.
  std::size_t instants_per_site = 1;
  u64 seed = 2015;
  InjectTime inject_time = InjectTime::kEarly;
  /// Ignored: InjectTime::kUniformRandom always draws from
  /// [1, golden_cycles]. The field stays while the benchmark harness still
  /// assigns it and goes with the next benchmark revision.
  InstantWindow instant_window = InstantWindow::kFull;
  u64 fixed_cycle = 0;
};

/// Aggregate statistics for one (unit, model) pair.
struct CampaignStats {
  FaultModel model = FaultModel::kStuckAt0;
  std::size_t runs = 0;
  std::size_t failures = 0;   // write mismatches
  std::size_t hangs = 0;      // watchdog
  std::size_t latent = 0;
  std::size_t silent = 0;
  std::size_t errors = 0;  // Outcome::kEngineError (host-side, not a verdict)
  u64 max_latency = 0;
  double mean_latency = 0.0;

  /// The paper's headline metric: % of injected faults propagating to
  /// failures at off-core boundaries (hangs manifest as missing writes and
  /// are therefore detected/failed as well). kEngineError records carry no
  /// verdict about the fault at all, so they leave the denominator — a
  /// campaign with host trouble reports the same estimate over fewer
  /// samples rather than a biased one.
  double pf() const noexcept {
    const std::size_t classified = runs > errors ? runs - errors : 0;
    return classified == 0 ? 0.0
                           : static_cast<double>(failures + hangs) /
                                 static_cast<double>(classified);
  }
};

/// Host-side replay economics of a campaign (how the engine *reached* each
/// injection instant, and how often it proved a suffix instead of
/// simulating it). Purely informational: outcomes are bit-identical
/// whatever these read. They depend on the ladder options, so they are
/// excluded from determinism comparisons. Every site a worker runs (and
/// every retry) is either pre-screened or positioned exactly once, from a
/// rung or by a reset: ladder_restores + cold_resets == total - prescreened
/// + sites_retried, where total = completed_sites - journal_hits.
struct ReplayCounters {
  u64 ladder_rungs = 0;        ///< rungs alive at the end of the golden run
  u64 ladder_bytes = 0;        ///< estimated bytes held by those rungs
  u64 ladder_evicted = 0;      ///< rungs thinned out by stride doubling
  u64 ladder_restores = 0;     ///< prefix resumes served by a ladder rung
  u64 cold_resets = 0;         ///< resumes that had to re-simulate from 0
  u64 fast_forward_cycles = 0; ///< fault-free instants stepped after restore
  u64 convergence_cutoffs = 0; ///< transient runs proven silent at a rung
  /// Permanent-fault runs answered by the activation pre-screen without
  /// simulation, one per run_site call: RTL sites the golden run never
  /// activates (silent), ISS register sites no later read sees (silent,
  /// or latent when the golden end state holds the opposite bit).
  u64 prescreened = 0;
  // Durability / robustness events (see engine/journal.hpp and the
  // worker-isolation retry in CampaignEngine::run; zero on a clean,
  // journal-less run):
  u64 journal_hits = 0;        ///< sites imported from the journal on resume
  u64 journal_dropped = 0;     ///< journal records rejected (chain break,
                               ///  torn write, site-key mismatch)
  u64 sites_retried = 0;       ///< sites re-run once after a worker throw
  u64 sites_engine_error = 0;  ///< sites whose retry also threw (kEngineError)
  // Always zero: the engine runs one synchronous per-site loop with no
  // snapshot prefetch or classify queue, and keeps no per-worker rolling
  // checkpoint. Kept only because the campaign benchmark still reads them;
  // to be removed with its next revision.
  u64 rolling_restores = 0;
  u64 restores_prefetched = 0;
  u64 restores_demand = 0;
  u64 snapshot_waits = 0;
  u64 classify_queue_stalls = 0;
};

struct CampaignResult {
  std::string workload;
  std::string unit_prefix;
  u64 golden_cycles = 0;
  u64 golden_instret = 0;
  ReplayCounters replay;
  /// True when the campaign stopped early (SIGINT/SIGTERM, an external stop
  /// flag, or EngineOptions::deadline_ms): `runs` then holds the
  /// completed_sites records, in site order, with the rest of the fault
  /// list unevaluated. Every completed record is bit-identical to the one
  /// an uninterrupted run would hold, so a truncated result is a valid
  /// partial estimate — and, with a journal, a resumable one.
  bool truncated = false;
  std::size_t completed_sites = 0;  ///< == runs.size(); == total unless truncated
  std::size_t total_sites = 0;      ///< enumerated fault-list size
  std::vector<InjectionResult> runs;
  std::vector<CampaignStats> per_model;

  /// Stats for model `m`. A campaign that recorded no runs for `m` (e.g. an
  /// empty campaign) yields a zeroed CampaignStats (runs == 0, pf() == 0).
  CampaignStats stats_for(FaultModel m) const;
};

/// FNV-1a fingerprint of the (outcome, latency) sequence of `r.runs` — the
/// canonical hash behind the determinism contract: regression tests pin it
/// across refactors and the benches compare it between engine fast paths.
/// Deliberately covers outcome and latency only: `halt` is no part of the
/// verdict (an early-stopped failure keeps kRunning).
u64 outcome_hash(const CampaignResult& r);

/// Enumerate the sampled fault list only (deterministic per seed) — exposed
/// for tests and for distributing work across processes.
std::vector<FaultSite> build_fault_list(const rtl::SimContext& ctx,
                                        const CampaignConfig& cfg,
                                        u64 golden_cycles);

}  // namespace issrtl::fault
