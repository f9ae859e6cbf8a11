// Figure 4 — input-data variation analysed with 2, 4 and 10 full iterations
// of the rspeed benchmark (stuck-at-1 @ IU): (a) Pf stays constant — the
// data space is already covered after 2 iterations; (b) the maximum fault
// propagation latency grows with iterations (faults hitting data consumed
// only at the end of the run).
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  using namespace issrtl;
  bench::banner("Figure 4: rspeed with 2/4/10 iterations (stuck-at-1 @ IU)",
                "Espinosa et al., DAC 2015, Fig. 4 (a) and (b)");

  fault::TextTable t({"run", "Pf", "max latency (cycles)",
                      "mean latency (cycles)", "golden cycles"});
  double pf_min = 1.0, pf_max = 0.0;
  u64 lat_first = 0, lat_last = 0;
  for (const unsigned iters : {2u, 4u, 10u}) {
    const auto prog =
        workloads::build("rspeed", {.iterations = iters, .data_seed = 1});
    fault::CampaignConfig cfg;
    cfg.unit_prefix = "iu";
    cfg.models = {rtl::FaultModel::kStuckAt1};
    cfg.samples = bench::samples() * 2;  // latency tails need more trials
    cfg.seed = bench::seed();
    const auto r = engine::run_rtl_campaign(prog, cfg);
    const auto& s = r.stats_for(rtl::FaultModel::kStuckAt1);
    pf_min = std::min(pf_min, s.pf());
    pf_max = std::max(pf_max, s.pf());
    if (iters == 2) lat_first = s.max_latency;
    lat_last = s.max_latency;
    t.add_row({"rspeed" + std::to_string(iters),
               fault::TextTable::pct(s.pf()),
               std::to_string(s.max_latency),
               fault::TextTable::num(s.mean_latency, 0),
               std::to_string(r.golden_cycles)});
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("(a) Pf spread across iteration counts: %.1f pp (paper: ~0)\n",
              (pf_max - pf_min) * 100.0);
  std::printf("(b) max propagation latency grows from %llu to %llu cycles "
              "(paper: ~500us -> ~2300us)\n",
              static_cast<unsigned long long>(lat_first),
              static_cast<unsigned long long>(lat_last));
  return 0;
}
