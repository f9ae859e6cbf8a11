#include "engine/stats.hpp"

#include <algorithm>

namespace issrtl::engine {

void OutcomeAccumulator::add(fault::Outcome outcome,
                             u64 latency_cycles) noexcept {
  ++runs;
  switch (outcome) {
    case fault::Outcome::kFailure:
      ++failures;
      max_latency = std::max(max_latency, latency_cycles);
      latency_sum += latency_cycles;
      ++latency_n;
      break;
    case fault::Outcome::kHang: ++hangs; break;
    case fault::Outcome::kLatent: ++latent; break;
    case fault::Outcome::kSilent: ++silent; break;
    case fault::Outcome::kEngineError: ++errors; break;
  }
}

double OutcomeAccumulator::mean_latency() const noexcept {
  return latency_n == 0 ? 0.0
                        : static_cast<double>(latency_sum) /
                              static_cast<double>(latency_n);
}

fault::CampaignStats OutcomeAccumulator::to_stats(
    rtl::FaultModel model) const noexcept {
  fault::CampaignStats stats;
  stats.model = model;
  stats.runs = runs;
  stats.failures = failures;
  stats.hangs = hangs;
  stats.latent = latent;
  stats.silent = silent;
  stats.errors = errors;
  stats.max_latency = max_latency;
  stats.mean_latency = mean_latency();
  return stats;
}

}  // namespace issrtl::engine
