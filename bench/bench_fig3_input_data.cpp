// Figure 3 — input-data variation on two sets of benchmark excerpts with
// uniform instruction types and counts, using stuck-at-1 injections at the
// integer unit. Within a subset the code is identical; only the input data
// differs. The paper observes differences up to ~4 percentage points for
// these short excerpts.
#include <algorithm>
#include <cstdio>

#include "bench/bench_util.hpp"

int main() {
  using namespace issrtl;
  bench::banner("Figure 3: input-data variation on benchmark excerpts",
                "Espinosa et al., DAC 2015, Fig. 3 (a: 8 types, b: 11 types)");

  const struct {
    const char* label;
    std::vector<std::string> names;
  } sets[] = {
      {"(a) 8 instruction types", workloads::excerpt_set_a()},
      {"(b) 11 instruction types", workloads::excerpt_set_b()},
  };

  for (const auto& set : sets) {
    std::printf("%s, stuck-at-1 @ IU\n", set.label);
    fault::TextTable t({"excerpt", "Pf (propagated faults)"});
    double lo = 1.0, hi = 0.0;
    for (const auto& name : set.names) {
      const auto prog = workloads::build(name, {.iterations = 1, .data_seed = 1});
      fault::CampaignConfig cfg;
      cfg.unit_prefix = "iu";
      cfg.models = {rtl::FaultModel::kStuckAt1};
      cfg.samples = bench::samples() * 5;  // excerpts are tiny; sample densely
      cfg.seed = bench::seed();
      const auto r = engine::run_rtl_campaign(prog, cfg);
      const double pf = r.stats_for(rtl::FaultModel::kStuckAt1).pf();
      lo = std::min(lo, pf);
      hi = std::max(hi, pf);
      t.add_row({name, fault::TextTable::pct(pf)});
    }
    std::printf("%s", t.render().c_str());
    std::printf("spread across identical-code excerpts: %.1f pp "
                "(paper: up to ~4 pp)\n\n",
                (hi - lo) * 100.0);
  }
  return 0;
}
