// Tests for the analysis module: statistics, diversity reports, area model
// and the Pf predictor (Fig. 7 / Eq. 1 machinery).
#include <gtest/gtest.h>

#include <cmath>

#include "core/area.hpp"
#include "core/avf.hpp"
#include "core/diversity.hpp"
#include "core/predict.hpp"
#include "core/stats.hpp"
#include "isa/assembler.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl::core {
namespace {

using isa::Reg;

// ---- stats -----------------------------------------------------------------------

TEST(Stats, MeanAndStddev) {
  const double xs[] = {1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(mean(xs), 2.5);
  EXPECT_NEAR(stddev(xs), std::sqrt(1.25), 1e-12);
  EXPECT_DOUBLE_EQ(mean(std::span<const double>{}), 0.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const double xs[] = {1, 2, 3, 4, 5};
  const double ys[] = {2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  const double yneg[] = {10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(xs, yneg), -1.0, 1e-12);
}

TEST(Stats, PearsonDegenerate) {
  const double xs[] = {1, 1, 1};
  const double ys[] = {1, 2, 3};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, LinearFitRecoversLine) {
  const double xs[] = {0, 1, 2, 3, 4};
  const double ys[] = {1, 3, 5, 7, 9};  // y = 2x + 1
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, 2.0, 1e-12);
  EXPECT_NEAR(f.intercept, 1.0, 1e-12);
  EXPECT_NEAR(f.r2, 1.0, 1e-12);
}

TEST(Stats, LinearFitR2ReflectsNoise) {
  const double xs[] = {0, 1, 2, 3, 4, 5};
  const double ys[] = {0.0, 1.4, 1.6, 3.5, 3.4, 5.2};
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_GT(f.r2, 0.8);
  EXPECT_LT(f.r2, 1.0);
}

TEST(Stats, LogFitRecoversPaperStyleCurve) {
  // Synthesise points from the paper's own Fig. 7 equation:
  // Pf = 0.0838*ln(D) - 0.0191.
  std::vector<double> xs, ys;
  for (const double d : {8.0, 11.0, 18.0, 20.0, 47.0, 48.0}) {
    xs.push_back(d);
    ys.push_back(0.0838 * std::log(d) - 0.0191);
  }
  const LogFit f = log_fit(xs, ys);
  EXPECT_NEAR(f.a, 0.0838, 1e-9);
  EXPECT_NEAR(f.b, -0.0191, 1e-9);
  EXPECT_NEAR(f.r2, 1.0, 1e-9);
  EXPECT_NEAR(f.at(30.0), 0.0838 * std::log(30.0) - 0.0191, 1e-9);
}

TEST(Stats, LogFitRejectsNonPositiveX) {
  const double xs[] = {0, 1};
  const double ys[] = {0, 1};
  EXPECT_THROW(log_fit(xs, ys), std::invalid_argument);
}

TEST(Stats, FitNeedsTwoPoints) {
  const double xs[] = {1};
  const double ys[] = {1};
  EXPECT_THROW(linear_fit(xs, ys), std::invalid_argument);
}

// ---- diversity ---------------------------------------------------------------------

TEST(Diversity, MatchesTraceForWorkload) {
  const auto prog = workloads::build("rspeed");
  const DiversityReport r = analyze_diversity(prog);
  EXPECT_EQ(r.workload, "rspeed");
  EXPECT_GE(r.diversity, 45u);
  EXPECT_GT(r.total_instructions, r.memory_instructions);
  EXPECT_GE(r.total_instructions, r.iu_instructions);
  // Fetch and decode see every instruction type.
  EXPECT_EQ(r.dm(isa::FuncUnit::Fetch), r.diversity);
  EXPECT_EQ(r.dm(isa::FuncUnit::Decode), r.diversity);
  // Subsets: no unit can exceed the total diversity.
  for (std::size_t u = 0; u < isa::kNumFuncUnits; ++u) {
    EXPECT_LE(r.unit_diversity[u], r.diversity);
  }
}

TEST(Diversity, SyntheticVsAutomotiveUnitFootprint) {
  const auto synth = analyze_diversity(workloads::build("intbench"));
  const auto autom = analyze_diversity(workloads::build("ttsprk"));
  EXPECT_LT(synth.diversity, autom.diversity);
  // intbench barely touches the D-cache.
  EXPECT_LT(synth.dm(isa::FuncUnit::DCache), 3u);
  EXPECT_GT(autom.dm(isa::FuncUnit::DCache), 8u);
}

TEST(Diversity, ThrowsOnNonHaltingProgram) {
  isa::Assembler a("loop");
  auto l = a.here();
  a.ba(l);
  a.nop();
  EXPECT_THROW(analyze_diversity(a.finalize(), 1000), std::runtime_error);
}

// ---- area model ---------------------------------------------------------------------

TEST(Area, AlphaSumsToOne) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const AreaModel m = build_area_model(core.sim());
  double sum = 0.0;
  for (const double a : m.alpha) sum += a;
  EXPECT_NEAR(sum, 1.0, 1e-9);
  EXPECT_EQ(m.total_bits, core.sim().injectable_bits());
}

TEST(Area, CachesDominateBitCount) {
  // 2x 1KiB data arrays dwarf the pipeline latches — the heterogeneity α_m
  // exists to capture.
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const AreaModel m = build_area_model(core.sim());
  EXPECT_GT(m.alpha_for(isa::FuncUnit::ICache) +
                m.alpha_for(isa::FuncUnit::DCache),
            0.4);
  EXPECT_GT(m.alpha_for(isa::FuncUnit::RegFile), 0.05);
}

TEST(Area, UnitPrefixRestrictsModel) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  const AreaModel iu = build_area_model(core.sim(), "iu");
  EXPECT_EQ(iu.bits[static_cast<std::size_t>(isa::FuncUnit::ICache)], 0u);
  EXPECT_GT(iu.bits[static_cast<std::size_t>(isa::FuncUnit::Alu)], 0u);
  EXPECT_EQ(iu.total_bits, core.sim().injectable_bits("iu"));
}

TEST(Area, EveryRtlUnitMapsSomewhere) {
  Memory mem;
  rtlcore::Leon3Core core(mem);
  for (const auto id : core.sim().nodes_in_unit("")) {
    const auto fu = func_unit_for_rtl_unit(core.sim().unit(id));
    EXPECT_LT(static_cast<std::size_t>(fu), isa::kNumFuncUnits);
  }
}

// ---- predictor -----------------------------------------------------------------------

std::vector<CalibrationSample> synthetic_samples() {
  // Diversity/Pf pairs following a known log law with mild noise.
  std::vector<CalibrationSample> out;
  const double divs[] = {8, 11, 18, 20, 46, 47};
  const double noise[] = {0.004, -0.003, 0.002, -0.004, 0.003, -0.002};
  for (int i = 0; i < 6; ++i) {
    CalibrationSample s;
    s.diversity.diversity = static_cast<unsigned>(divs[i]);
    for (auto& dm : s.diversity.unit_diversity) {
      dm = static_cast<unsigned>(divs[i]);
    }
    s.total_pf = 0.08 * std::log(divs[i]) - 0.01 + noise[i];
    out.push_back(s);
  }
  return out;
}

TEST(Predictor, GlobalModelInterpolates) {
  PfPredictor p;
  Memory mem;
  rtlcore::Leon3Core core(mem);
  p.calibrate(synthetic_samples(), build_area_model(core.sim()));
  EXPECT_TRUE(p.calibrated());
  EXPECT_GT(p.global_fit().r2, 0.95);
  const double at30 = p.predict_global(30);
  EXPECT_NEAR(at30, 0.08 * std::log(30.0) - 0.01, 0.02);
  // Monotone in diversity.
  EXPECT_LT(p.predict_global(10), p.predict_global(40));
}

TEST(Predictor, PredictionsClampedToProbability) {
  PfPredictor p;
  Memory mem;
  rtlcore::Leon3Core core(mem);
  p.calibrate(synthetic_samples(), build_area_model(core.sim()));
  EXPECT_GE(p.predict_global(1), 0.0);
  EXPECT_LE(p.predict_global(10000), 1.0);
}

TEST(Predictor, UncalibratedThrows) {
  PfPredictor p;
  EXPECT_THROW(p.predict_global(10), std::logic_error);
  DiversityReport d;
  EXPECT_THROW(p.predict_eq1(d), std::logic_error);
}

TEST(Predictor, NeedsTwoSamples) {
  PfPredictor p;
  Memory mem;
  rtlcore::Leon3Core core(mem);
  std::vector<CalibrationSample> one(1);
  one[0].diversity.diversity = 10;
  EXPECT_THROW(p.calibrate(one, build_area_model(core.sim())),
               std::invalid_argument);
}

TEST(Predictor, Eq1UsesUnitPf) {
  PfPredictor p;
  Memory mem;
  rtlcore::Leon3Core core(mem);
  auto samples = synthetic_samples();
  // Attach synthetic per-unit observations consistent with the global law.
  for (auto& s : samples) {
    std::vector<UnitObservation> obs;
    const int fails = static_cast<int>(100 * s.total_pf);
    for (int i = 0; i < 100; ++i) {
      obs.emplace_back("iu.alu", i < fails);
      obs.emplace_back("cmem.dcache", i < fails);
      obs.emplace_back("iu.regfile", i < fails);
    }
    s.unit_pf = UnitPf::from_observations(obs);
  }
  p.calibrate(samples, build_area_model(core.sim()));
  DiversityReport lo, hi;
  lo.diversity = 10;
  hi.diversity = 45;
  for (auto& dm : lo.unit_diversity) dm = 10;
  for (auto& dm : hi.unit_diversity) dm = 45;
  EXPECT_LT(p.predict_eq1(lo), p.predict_eq1(hi));
  EXPECT_GE(p.predict_eq1(lo), 0.0);
  EXPECT_LE(p.predict_eq1(hi), 1.0);
  // Unweighted ablation also monotone but generally different.
  EXPECT_LT(p.predict_eq1_unweighted(lo), p.predict_eq1_unweighted(hi));
}

TEST(Predictor, UnexercisedUnitContributesZero) {
  PfPredictor p;
  Memory mem;
  rtlcore::Leon3Core core(mem);
  auto samples = synthetic_samples();
  p.calibrate(samples, build_area_model(core.sim()));
  DiversityReport d;
  d.diversity = 20;
  // All-zero unit diversity: nothing exercised, Eq. 1 predicts ~0.
  EXPECT_EQ(p.predict_eq1(d), 0.0);
}

TEST(Predictor, LeaveOneOutErrorIsSmallOnLawfulData) {
  const double err = loo_mean_abs_error(synthetic_samples());
  EXPECT_LT(err, 0.03);
  std::vector<CalibrationSample> two(2);
  EXPECT_THROW(loo_mean_abs_error(two), std::invalid_argument);
}

TEST(UnitPfAggregation, CountsPerFunctionalUnit) {
  std::vector<UnitObservation> obs = {
      {"iu.alu", true},  {"iu.alu", false},   {"iu.alu", true},
      {"cmem.dcache", false}, {"cmem.dcache", false},
  };
  const UnitPf u = UnitPf::from_observations(obs);
  const auto alu = static_cast<std::size_t>(isa::FuncUnit::Alu);
  const auto dc = static_cast<std::size_t>(isa::FuncUnit::DCache);
  EXPECT_EQ(u.runs[alu], 3u);
  EXPECT_NEAR(u.pf[alu], 2.0 / 3.0, 1e-12);
  EXPECT_EQ(u.runs[dc], 2u);
  EXPECT_EQ(u.pf[dc], 0.0);
}


// ---- AVF (related work [14]) ---------------------------------------------------

TEST(Avf, BoundsAndSanity) {
  const auto r = analyze_register_avf(workloads::build("rspeed", {.iterations = 1}));
  EXPECT_GT(r.instructions, 1000u);
  EXPECT_GT(r.regfile_avf, 0.0);
  EXPECT_LT(r.regfile_avf, 1.0);
  for (const double v : r.per_reg) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  EXPECT_EQ(r.per_reg[0], 0.0);  // %g0 never vulnerable
}

TEST(Avf, DeadValuesAreNotAce) {
  // o0 written then immediately overwritten: first def un-ACE; o1 written,
  // read much later: long ACE interval.
  isa::Assembler a("avf");
  const u32 out = a.data_zero(8);
  a.set32(Reg::l0, out);
  a.mov(Reg::o1, 7);                       // live until the store below
  a.mov(Reg::o0, 1);                       // dead (overwritten next)
  a.mov(Reg::o0, 2);
  for (int i = 0; i < 50; ++i) a.add(Reg::l1, Reg::l1, 1);
  a.st(Reg::o1, Reg::l0, 0);               // o1 read here
  a.halt();
  const auto r = analyze_register_avf(a.finalize());
  const unsigned o0 = isa::phys_reg_index(8, 0);
  const unsigned o1 = isa::phys_reg_index(9, 0);
  EXPECT_GT(r.per_reg[o1], r.per_reg[o0]);
  EXPECT_GT(r.per_reg[o1], 0.5);           // live across the filler loop
}

TEST(Avf, LdstubDestinationIsNotAce) {
  // LDSTUB only loads rd, SWAP also stores rd's old value: o0's value from
  // the mov is dead before the LDSTUB and live until the SWAP.
  const auto o0_avf = [](bool swap) {
    isa::Assembler a(swap ? "avf_swap" : "avf_ldstub");
    const u32 lock = a.data_zero(8);
    a.set32(Reg::l0, lock);
    a.mov(Reg::o0, 5);
    for (int i = 0; i < 50; ++i) a.add(Reg::l1, Reg::l1, 1);
    if (swap) {
      a.swap(Reg::o0, Reg::l0, 0);
    } else {
      a.ldstub(Reg::o0, Reg::l0, 0);
    }
    a.halt();
    return analyze_register_avf(a.finalize()).per_reg[isa::phys_reg_index(8, 0)];
  };
  EXPECT_EQ(o0_avf(false), 0.0);
  EXPECT_GT(o0_avf(true), 0.5);
}

TEST(Avf, HotRegisterIsHighAvf) {
  // A loop counter read every iteration is almost always ACE.
  isa::Assembler a("avf2");
  a.set32(Reg::o2, 200);
  auto loop = a.here();
  a.subcc(Reg::o2, Reg::o2, 1);
  a.bne(loop);
  a.nop();
  a.halt();
  const auto r = analyze_register_avf(a.finalize());
  EXPECT_GT(r.per_reg[isa::phys_reg_index(10, 0)], 0.9);
}

TEST(Avf, IntbenchHasHigherRegfileAvfThanMembench) {
  // The ALU-bound synthetic keeps values live in registers; the streaming
  // benchmark's values die quickly into memory.
  const auto ib = analyze_register_avf(workloads::build("intbench"));
  const auto mb = analyze_register_avf(workloads::build("membench"));
  EXPECT_GT(ib.regfile_avf, 0.0);
  EXPECT_GT(mb.regfile_avf, 0.0);
}

TEST(Avf, ThrowsOnNonHalting) {
  isa::Assembler a("spin");
  auto l = a.here();
  a.ba(l);
  a.nop();
  EXPECT_THROW(analyze_register_avf(a.finalize(), 500), std::runtime_error);
}

}  // namespace
}  // namespace issrtl::core
