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
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "workloads/workload.hpp"

namespace issrtl::bench {

inline std::size_t env_size(const char* name, std::size_t def) {
  const char* v = std::getenv(name);
  return v == nullptr ? def : static_cast<std::size_t>(std::strtoull(v, nullptr, 10));
}

inline std::size_t samples() { return env_size("ISSRTL_SAMPLES", 60); }
inline unsigned campaign_iters() {
  return static_cast<unsigned>(env_size("ISSRTL_ITERS", 1));
}
inline u64 seed() { return env_size("ISSRTL_SEED", 2015); }
inline unsigned threads() {
  return static_cast<unsigned>(env_size("ISSRTL_THREADS", 0));
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
