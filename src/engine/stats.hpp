// Streaming outcome aggregation shared by every campaign backend — the
// single home of the per-model counting loops.
#pragma once

#include "fault/campaign.hpp"

namespace issrtl::engine {

/// Accumulates outcome counts one injection at a time; finish() feeds it a
/// campaign's completed records per fault model.
struct OutcomeAccumulator {
  std::size_t runs = 0;
  std::size_t failures = 0;
  std::size_t hangs = 0;
  std::size_t latent = 0;
  std::size_t silent = 0;
  std::size_t errors = 0;    ///< Outcome::kEngineError (host-side)
  u64 latency_sum = 0;       ///< over failures only (paper latency metric)
  std::size_t latency_n = 0;
  u64 max_latency = 0;

  void add(fault::Outcome outcome, u64 latency_cycles) noexcept;
  double mean_latency() const noexcept;

  /// Package as the RTL campaign's per-model row.
  fault::CampaignStats to_stats(rtl::FaultModel model) const noexcept;
};

}  // namespace issrtl::engine
