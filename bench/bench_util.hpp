// Shared plumbing for the experiment-reproduction benches.
//
// Every bench binary regenerates one table or figure of the paper and prints
// the same rows/series the paper reports. Scale knobs (environment
// variables) trade fidelity for wall-clock:
//   ISSRTL_SAMPLES  — injection trials per (workload, unit, model); default 60
//   ISSRTL_ITERS    — workload iterations for campaign runs; default 1
//   ISSRTL_SEED     — campaign seed; default 2015
//   ISSRTL_THREADS  — engine worker threads; default 0 = all hardware
//                     threads (results are bit-identical for any count)
// A malformed value (not plain decimal digits, or out of range) exits 2.
#pragma once

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>

#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "workloads/workload.hpp"

namespace issrtl::bench {

/// A numeric knob: `def` when unset or empty, else a strict unsigned
/// decimal up to `max_value` (engine::parse_u64). Anything else exits 2
/// with a message, as the CLIs do, instead of reading as 0 (samples 0
/// would start an exhaustive campaign).
inline u64 env_size(const char* name, u64 def, u64 max_value = ~0ull) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  try {
    return engine::parse_u64(name, v, max_value);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    std::exit(2);
  }
}

inline std::size_t samples() {
  return static_cast<std::size_t>(env_size("ISSRTL_SAMPLES", 60, SIZE_MAX));
}
inline unsigned campaign_iters() {
  return static_cast<unsigned>(env_size("ISSRTL_ITERS", 1, UINT_MAX));
}
inline u64 seed() { return env_size("ISSRTL_SEED", 2015); }
inline unsigned threads() {
  return static_cast<unsigned>(env_size("ISSRTL_THREADS", 0, UINT_MAX));
}

inline void banner(const char* what, const char* paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", what);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("samples=%zu iters=%u seed=%llu (ISSRTL_SAMPLES/ITERS/SEED)\n",
              samples(), campaign_iters(),
              static_cast<unsigned long long>(seed()));
  std::printf("==============================================================\n");
}

/// Run one campaign with the bench-wide knobs applied, on the parallel
/// engine (ISSRTL_THREADS workers; identical results at any thread count).
inline fault::CampaignResult campaign(const std::string& workload,
                                      const std::string& unit,
                                      std::vector<rtl::FaultModel> models,
                                      u64 data_seed = 1) {
  const auto prog = workloads::build(
      workload, {.iterations = campaign_iters(), .data_seed = data_seed});
  fault::CampaignConfig cfg;
  cfg.unit_prefix = unit;
  cfg.models = std::move(models);
  cfg.samples = samples();
  cfg.seed = seed();
  engine::EngineOptions opts;
  opts.threads = threads();
  return engine::run_rtl_campaign(prog, cfg, {}, opts);
}

}  // namespace issrtl::bench
