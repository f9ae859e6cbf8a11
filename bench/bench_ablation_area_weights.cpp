// Ablation — Eq. 1 with and without the α_m area weights, plus the global
// Fig. 7 model, evaluated with leave-one-out prediction over the workload
// set. The α_m weighting is the paper's answer to "heterogeneously detailed
// HDL descriptions" (§3 item 2): this bench quantifies what it buys.
#include <cmath>
#include <cstdio>

#include "bench/bench_util.hpp"
#include "core/area.hpp"
#include "core/diversity.hpp"
#include "core/predict.hpp"

int main() {
  using namespace issrtl;
  bench::banner("Ablation: Eq. 1 area weights vs unweighted vs global model",
                "Espinosa et al., DAC 2015, Eq. 1 + Fig. 7 (design-choice "
                "ablation, ours)");

  // Gather calibration data: diversity + measured whole-design Pf + per-unit
  // outcomes for every workload point.
  std::vector<std::string> names = workloads::table1_names();
  for (const auto& n : workloads::excerpt_set_b()) names.push_back(n);

  std::vector<core::CalibrationSample> samples;
  Memory probe_mem;
  rtlcore::Leon3Core probe(probe_mem);
  const core::AreaModel area = core::build_area_model(probe.sim());

  for (const auto& name : names) {
    const auto prog = workloads::build(
        name, {.iterations = bench::campaign_iters(), .data_seed = 1});
    core::CalibrationSample s;
    s.diversity = core::analyze_diversity(prog);
    // Whole-design campaign (IU + CMEM) for total and per-unit Pf.
    fault::CampaignConfig cfg;
    cfg.unit_prefix = "";
    cfg.models = {rtl::FaultModel::kStuckAt1};
    cfg.samples = bench::samples();
    cfg.seed = bench::seed();
    const auto r = engine::run_rtl_campaign(prog, cfg);
    s.total_pf = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
    std::vector<core::UnitObservation> obs;
    obs.reserve(r.runs.size());
    for (const auto& run : r.runs) {
      obs.emplace_back(run.unit, run.outcome == fault::Outcome::kFailure ||
                                     run.outcome == fault::Outcome::kHang);
    }
    s.unit_pf = core::UnitPf::from_observations(obs);
    samples.push_back(std::move(s));
  }

  // Leave-one-out: calibrate on all but one, predict the held-out workload.
  fault::TextTable t({"held-out", "measured Pf", "Eq.1 (alpha)",
                      "Eq.1 (unweighted)", "global ln-fit"});
  double err_eq1 = 0.0, err_unw = 0.0, err_global = 0.0;
  for (std::size_t hold = 0; hold < samples.size(); ++hold) {
    std::vector<core::CalibrationSample> train;
    for (std::size_t i = 0; i < samples.size(); ++i) {
      if (i != hold) train.push_back(samples[i]);
    }
    core::PfPredictor p;
    p.calibrate(train, area);
    const auto& s = samples[hold];
    const double eq1 = p.predict_eq1(s.diversity);
    const double unw = p.predict_eq1_unweighted(s.diversity);
    const double glob = p.predict_global(s.diversity.diversity);
    err_eq1 += std::abs(eq1 - s.total_pf);
    err_unw += std::abs(unw - s.total_pf);
    err_global += std::abs(glob - s.total_pf);
    t.add_row({names[hold], fault::TextTable::pct(s.total_pf),
               fault::TextTable::pct(eq1), fault::TextTable::pct(unw),
               fault::TextTable::pct(glob)});
  }
  std::printf("%s\n", t.render().c_str());
  const double n = static_cast<double>(samples.size());
  std::printf("mean |error|: Eq.1 with alpha = %.2f pp, unweighted = %.2f pp, "
              "global ln-fit = %.2f pp\n",
              100.0 * err_eq1 / n, 100.0 * err_unw / n,
              100.0 * err_global / n);
  return 0;
}
