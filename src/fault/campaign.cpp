#include "fault/campaign.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "common/rng.hpp"

namespace issrtl::fault {

std::string_view outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kSilent: return "silent";
    case Outcome::kLatent: return "latent";
    case Outcome::kFailure: return "failure";
    case Outcome::kHang: return "hang";
    case Outcome::kEngineError: return "engine-error";
  }
  assert(false && "outcome_name: invalid Outcome");
  return "?";
}

u64 outcome_hash(const CampaignResult& r) {
  u64 hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const InjectionResult& run : r.runs) {
    hash = (hash ^ static_cast<u64>(run.outcome)) * 1099511628211ull;
    hash = (hash ^ run.latency_cycles) * 1099511628211ull;
  }
  return hash;
}

CampaignStats CampaignResult::stats_for(FaultModel m) const {
  for (const auto& s : per_model) {
    if (s.model == m) return s;
  }
  CampaignStats zero;
  zero.model = m;
  return zero;
}

std::vector<FaultSite> build_fault_list(const rtl::SimContext& ctx,
                                        const CampaignConfig& cfg,
                                        u64 golden_cycles) {
  const std::vector<rtl::NodeId> nodes = ctx.nodes_in_unit(cfg.unit_prefix);
  if (nodes.empty()) {
    throw std::invalid_argument("no injectable nodes under unit '" +
                                cfg.unit_prefix + "'");
  }
  Xoshiro256 rng(cfg.seed);

  auto pick_cycle = [&]() -> u64 {
    switch (cfg.inject_time) {
      case InjectTime::kEarly: return std::max<u64>(1, golden_cycles / 100);
      case InjectTime::kUniformRandom:
        return 1 + rng.next_below(std::max<u64>(1, golden_cycles));
      case InjectTime::kFixedCycle: return cfg.fixed_cycle;
    }
    return 1;
  };

  // Multi-instant sweeps repeat every sampled (node, bit) at K instants,
  // drawn back-to-back so the K == 1 draw order (and therefore every
  // pinned single-instant fault list) is bit-identical to the historical
  // one-draw-per-site behaviour.
  if (cfg.instants_per_site == 0) {
    // Historically clamped to 1, which let a mistyped CLI argument quietly
    // shrink the campaign to a different size than requested. 0 trials per
    // site is never what anyone means — reject it loudly.
    throw std::invalid_argument(
        "CampaignConfig::instants_per_site must be >= 1 (every sampled site "
        "needs at least one injection instant)");
  }
  const std::size_t instants = cfg.instants_per_site;
  if (instants > 1 && cfg.inject_time != InjectTime::kUniformRandom) {
    // A deterministic instant would replicate each site K times verbatim:
    // K-fold cost, zero extra information, and per-model stats built from
    // duplicated runs. Reject rather than silently degrade.
    throw std::invalid_argument(
        "instants_per_site > 1 requires InjectTime::kUniformRandom");
  }
  if (std::ranges::find(cfg.models, FaultModel::kBridge) != cfg.models.end()) {
    // The kernel throws on arm, so every site would end kEngineError and
    // the campaign would report Pf = 0 for a model it never injected.
    throw std::invalid_argument("the bridge fault model cannot be injected");
  }

  std::vector<FaultSite> sites;
  if (cfg.samples == 0) {
    // Exhaustive: every bit of every node, for every model.
    for (const FaultModel m : cfg.models) {
      for (const rtl::NodeId id : nodes) {
        const u8 w = ctx.width(id);
        for (u8 b = 0; b < w; ++b) {
          for (std::size_t k = 0; k < instants; ++k) {
            sites.push_back({id, b, m, pick_cycle()});
          }
        }
      }
    }
    return sites;
  }

  // Sampled: uniform over (node, bit) weighted by node width — i.e. uniform
  // over injectable *bits*, matching area-proportional injection.
  std::vector<u64> cum;
  cum.reserve(nodes.size());
  u64 total_bits = 0;
  for (const rtl::NodeId id : nodes) {
    total_bits += ctx.width(id);
    cum.push_back(total_bits);
  }
  for (const FaultModel m : cfg.models) {
    for (std::size_t i = 0; i < cfg.samples; ++i) {
      const u64 pick = rng.next_below(total_bits);
      const auto it = std::upper_bound(cum.begin(), cum.end(), pick);
      const std::size_t idx = static_cast<std::size_t>(it - cum.begin());
      const rtl::NodeId id = nodes[idx];
      const u64 base = idx == 0 ? 0 : cum[idx - 1];
      for (std::size_t k = 0; k < instants; ++k) {
        sites.push_back(
            {id, static_cast<u8>(pick - base), m, pick_cycle()});
      }
    }
  }
  return sites;
}

}  // namespace issrtl::fault
