// Pf prediction from the ISS alone — the paper's end goal: qualify the ISS
// so that failure probability can be estimated for a new workload *before*
// RTL exists. This example calibrates the predictor on a set of workloads
// (RTL campaigns + ISS diversity), holds one workload out, and predicts its
// Pf from its ISS diversity report only.
//
//   ./examples/predict_pf [held-out workload] [samples]
#include <cstdio>
#include <cstdlib>

#include "core/area.hpp"
#include "core/diversity.hpp"
#include "core/predict.hpp"
#include "engine/rtl_backend.hpp"
#include "fault/campaign.hpp"
#include "fault/report.hpp"
#include "workloads/workload.hpp"

using namespace issrtl;

int main(int argc, char** argv) {
  const std::string holdout = argc > 1 ? argv[1] : "ttsprk";
  const std::size_t samples =
      argc > 2 ? static_cast<std::size_t>(std::atoll(argv[2])) : 60;

  std::vector<std::string> names = workloads::table1_names();
  for (const auto& n : workloads::excerpt_set_a()) names.push_back(n);

  Memory probe_mem;
  rtlcore::Leon3Core probe(probe_mem);
  const core::AreaModel area = core::build_area_model(probe.sim());

  std::vector<core::CalibrationSample> train;
  core::CalibrationSample held;
  bool have_held = false;

  std::printf("calibrating on RTL campaigns (%zu trials each)...\n", samples);
  for (const auto& name : names) {
    const auto prog = workloads::build(name, {.iterations = 1});
    core::CalibrationSample s;
    s.diversity = core::analyze_diversity(prog);

    fault::CampaignConfig cfg;
    cfg.unit_prefix = "";
    cfg.models = {rtl::FaultModel::kStuckAt1};
    cfg.samples = samples;
    const auto r = engine::run_rtl_campaign(prog, cfg);
    s.total_pf = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
    std::vector<core::UnitObservation> obs;
    for (const auto& run : r.runs) {
      obs.emplace_back(run.unit, run.outcome == fault::Outcome::kFailure ||
                                     run.outcome == fault::Outcome::kHang);
    }
    s.unit_pf = core::UnitPf::from_observations(obs);

    if (name == holdout) {
      held = s;
      have_held = true;
    } else {
      train.push_back(std::move(s));
    }
  }
  if (!have_held) {
    std::printf("unknown holdout '%s'\n", holdout.c_str());
    return 1;
  }

  core::PfPredictor p;
  p.calibrate(train, area);

  std::printf("\nglobal model: %s (R^2 = %.3f)\n",
              p.global_fit().equation().c_str(), p.global_fit().r2);
  std::printf("held-out workload: %s (diversity %u)\n\n", holdout.c_str(),
              held.diversity.diversity);

  fault::TextTable t({"quantity", "value"});
  t.add_row({"measured RTL Pf", fault::TextTable::pct(held.total_pf)});
  t.add_row({"predicted (global ln-fit)",
             fault::TextTable::pct(p.predict_global(held.diversity.diversity))});
  t.add_row({"predicted (Eq.1, alpha-weighted)",
             fault::TextTable::pct(p.predict_eq1(held.diversity))});
  t.add_row({"predicted (Eq.1, unweighted)",
             fault::TextTable::pct(p.predict_eq1_unweighted(held.diversity))});
  std::printf("%s\n", t.render().c_str());
  std::printf("the prediction needed only the ISS run of '%s' — no RTL.\n",
              holdout.c_str());
  return 0;
}
