// ISS-level fault-injection campaign vocabulary: the classical register-file
// injection the paper cites ([7][20]), used both for the speed comparison
// (§4.2 "Simulation time") and to contrast ISS-reachable injection surface
// with the RTL one. engine::run_iss_campaign_engine runs the campaign.
#pragma once

#include <string>
#include <vector>

#include "fault/campaign.hpp"
#include "isa/program.hpp"
#include "iss/emulator.hpp"

namespace issrtl::fault {

struct IssCampaignConfig {
  std::vector<iss::IssFaultModel> models = {iss::IssFaultModel::kStuckAt1};
  std::size_t samples = 200;
  u64 seed = 2015;
};

struct IssInjectionResult {
  iss::IssFault fault;
  bool failure = false;    ///< off-core write mismatch or hang
  bool latent = false;
  /// Host-side simulation failure (Outcome::kEngineError analogue): the
  /// site threw twice (original attempt + fresh-restore retry); `error`
  /// carries the exception text. Not a verdict about the fault.
  bool engine_error = false;
  u64 latency_instr = 0;
  std::string error;
};

struct IssCampaignStats {
  iss::IssFaultModel model = iss::IssFaultModel::kStuckAt0;
  std::size_t runs = 0;
  std::size_t failures = 0;
  std::size_t latent = 0;
  std::size_t errors = 0;  ///< engine_error records (excluded from pf())
  double pf() const noexcept {
    const std::size_t classified = runs > errors ? runs - errors : 0;
    return classified == 0 ? 0.0
                           : static_cast<double>(failures) /
                                 static_cast<double>(classified);
  }
};

struct IssCampaignResult {
  std::string workload;
  u64 golden_instret = 0;
  /// Replay economics (instants here are retired instructions); see
  /// fault::ReplayCounters for the determinism caveat.
  ReplayCounters replay;
  /// See fault::CampaignResult: early-stopped campaigns hold the completed
  /// records only, each bit-identical to its uninterrupted counterpart.
  bool truncated = false;
  std::size_t completed_sites = 0;
  std::size_t total_sites = 0;
  std::vector<IssInjectionResult> runs;
  std::vector<IssCampaignStats> per_model;
};

}  // namespace issrtl::fault
