// Workload suite tests: every kernel must run to a clean halt on the ISS,
// agree with the RTL core's golden run, be deterministic, and reproduce the
// Table 1 characterisation shape the correlation study depends on.
#include <gtest/gtest.h>

#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl::workloads {
namespace {

using iss::Emulator;
using iss::HaltReason;

struct RunOutcome {
  HaltReason halt;
  u64 total = 0;
  u64 mem = 0;
  unsigned diversity = 0;
  std::size_t writes = 0;
  u32 checksum = 0;  // last off-core write payload
};

RunOutcome run(const std::string& name, const WorkloadParams& p = {}) {
  const isa::Program prog = build(name, p);
  Memory mem;
  Emulator e(mem);
  e.load(prog);
  RunOutcome o;
  o.halt = e.run(50'000'000);
  o.total = e.trace().total();
  o.mem = e.trace().memory_total();
  o.diversity = e.trace().diversity();
  o.writes = e.offcore().writes().size();
  o.checksum = o.writes == 0
                   ? 0
                   : static_cast<u32>(e.offcore().writes().back().data);
  return o;
}

// Every registered workload halts cleanly and produces off-core writes
// (without writes, no fault could ever manifest as a failure).
class AllWorkloads : public ::testing::TestWithParam<std::string> {};

TEST_P(AllWorkloads, RunsToCleanHalt) {
  const auto o = run(GetParam());
  EXPECT_EQ(o.halt, HaltReason::kHalted);
  EXPECT_GT(o.writes, 0u);
  EXPECT_GT(o.total, 100u);
}

// The two injection vehicles must agree on the fault-free run, or their
// campaigns would answer different questions: same halt, retirement count,
// off-core writes, architectural end state and memory image.
TEST_P(AllWorkloads, IssAndRtlGoldenRunsAgree) {
  const isa::Program prog = build(GetParam());
  Memory iss_mem;
  Emulator emu(iss_mem);
  emu.load(prog);
  emu.run(50'000'000);
  Memory rtl_mem;
  rtlcore::Leon3Core core(rtl_mem);
  core.load(prog);
  core.run();

  EXPECT_EQ(emu.halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(core.halt_reason(), emu.halt_reason());
  EXPECT_EQ(core.instret(), emu.instret());
  const TraceDivergence div = core.offcore().compare_writes(emu.offcore());
  EXPECT_FALSE(div.diverged) << div.detail;
  const iss::ArchState rs = core.arch_state();
  const iss::ArchState& is = emu.state();
  EXPECT_EQ(rs.regs, is.regs);
  EXPECT_TRUE(rs.icc == is.icc);
  EXPECT_EQ(rs.y, is.y);
  EXPECT_EQ(rs.cwp, is.cwp);
  EXPECT_EQ(rs.window_depth, is.window_depth);
  EXPECT_TRUE(rtl_mem.equals(iss_mem));
}

TEST_P(AllWorkloads, Deterministic) {
  const auto a = run(GetParam());
  const auto b = run(GetParam());
  EXPECT_EQ(a.total, b.total);
  EXPECT_EQ(a.writes, b.writes);
  EXPECT_EQ(a.checksum, b.checksum);
}

TEST_P(AllWorkloads, DataSeedChangesResultsNotCode) {
  WorkloadParams p1{.iterations = 2, .data_seed = 1};
  WorkloadParams p2{.iterations = 2, .data_seed = 2};
  const isa::Program prog1 = build(GetParam(), p1);
  const isa::Program prog2 = build(GetParam(), p2);
  // Identical code (the Fig. 3 premise: same Is, different inputs)...
  EXPECT_EQ(prog1.code, prog2.code);
  if (GetParam() == "intbench") return;  // no input table
  // ...different data.
  EXPECT_NE(prog1.data, prog2.data);
}

std::vector<std::string> all_names() {
  std::vector<std::string> names;
  for (const auto& w : registry()) names.push_back(w.name);
  return names;
}

INSTANTIATE_TEST_SUITE_P(Registry, AllWorkloads,
                         ::testing::ValuesIn(all_names()),
                         [](const auto& info) { return info.param; });

// ---- Table 1 characterisation shape --------------------------------------------

TEST(Table1, AutomotiveDiversityClusters) {
  for (const char* n : {"puwmod", "canrdr", "ttsprk", "rspeed"}) {
    const auto o = run(n);
    EXPECT_GE(o.diversity, 45u) << n;
    EXPECT_LE(o.diversity, 49u) << n;
  }
}

TEST(Table1, SyntheticDiversityIsLow) {
  EXPECT_EQ(run("membench").diversity, 18u);
  EXPECT_EQ(run("intbench").diversity, 20u);
}

TEST(Table1, InstructionCountOrdering) {
  // puwmod > canrdr ~ ttsprk > rspeed >> membench >> intbench.
  const auto puwmod = run("puwmod"), canrdr = run("canrdr"),
             ttsprk = run("ttsprk"), rspeed = run("rspeed"),
             membench = run("membench"), intbench = run("intbench");
  EXPECT_GT(puwmod.total, canrdr.total);
  EXPECT_GT(canrdr.total, rspeed.total);
  EXPECT_GT(ttsprk.total, rspeed.total);
  EXPECT_GT(rspeed.total, membench.total);
  EXPECT_GT(membench.total, intbench.total);
  // Magnitudes in the Table 1 ballpark.
  EXPECT_GT(puwmod.total, 90'000u);
  EXPECT_LT(puwmod.total, 140'000u);
  EXPECT_GT(intbench.total, 1'500u);
  EXPECT_LT(intbench.total, 4'000u);
}

TEST(Table1, MemoryShares) {
  // membench is the memory-heavy synthetic; intbench has almost no memory
  // traffic (19 instructions in the paper's table).
  const auto membench = run("membench");
  const auto intbench = run("intbench");
  EXPECT_GT(static_cast<double>(membench.mem) / membench.total, 0.15);
  EXPECT_LT(intbench.mem, 25u);
  for (const char* n : {"puwmod", "canrdr", "ttsprk", "rspeed"}) {
    const auto o = run(n);
    EXPECT_GT(static_cast<double>(o.mem) / o.total, 0.05) << n;
    EXPECT_LT(static_cast<double>(o.mem) / o.total, 0.50) << n;
  }
}

// ---- premises the paper's experiments rest on -------------------------------------

TEST(Premises, DiversityIndependentOfIterations) {
  // Fig. 4: iterating a benchmark does not change its instruction-type set.
  for (const unsigned iters : {2u, 4u, 10u}) {
    const auto o = run("rspeed", {.iterations = iters, .data_seed = 1});
    EXPECT_EQ(o.diversity, run("rspeed").diversity) << iters;
  }
}

TEST(Premises, InstructionsScaleWithIterations) {
  const auto i2 = run("rspeed", {.iterations = 2});
  const auto i4 = run("rspeed", {.iterations = 4});
  const auto i10 = run("rspeed", {.iterations = 10});
  EXPECT_NEAR(static_cast<double>(i4.total) / i2.total, 2.0, 0.15);
  EXPECT_NEAR(static_cast<double>(i10.total) / i2.total, 5.0, 0.30);
  EXPECT_GT(i10.writes, i4.writes);
  EXPECT_GT(i4.writes, i2.writes);
}

TEST(Premises, TtsprkAndPuwmodShareTypeFootprintSize) {
  // Fig. 5 premise: "ttsprk and puwmod ... have exactly the same diversity".
  const auto t = run("ttsprk");
  const auto p = run("puwmod");
  EXPECT_NEAR(static_cast<double>(t.diversity), p.diversity, 1.0);
}

TEST(Excerpts, SetAHasExactly8Types) {
  for (const auto& n : excerpt_set_a()) {
    EXPECT_EQ(run(n).diversity, 8u) << n;
  }
}

TEST(Excerpts, SetBHasExactly11Types) {
  for (const auto& n : excerpt_set_b()) {
    EXPECT_EQ(run(n).diversity, 11u) << n;
  }
}

TEST(Excerpts, IdenticalCodeWithinSubsetDifferentData) {
  const WorkloadParams p;
  const auto a1 = build("a2time_x", p);
  const auto a2 = build("ttsprk_x", p);
  EXPECT_EQ(a1.code, a2.code);
  EXPECT_NE(a1.data, a2.data);
  const auto b1 = build("rspeed_x", p);
  const auto b2 = build("basefp_x", p);
  EXPECT_EQ(b1.code, b2.code);
  EXPECT_NE(b1.data, b2.data);
  EXPECT_NE(a1.code, b1.code);  // sets differ from each other
}

TEST(Excerpts, ChecksumVariesWithData) {
  int distinct = 0;
  u32 prev = 0;
  for (const u64 seed : {1ull, 2ull, 3ull}) {
    const auto o = run("a2time_x", {.iterations = 1, .data_seed = seed});
    if (o.checksum != prev) ++distinct;
    prev = o.checksum;
  }
  EXPECT_GE(distinct, 2);
}

TEST(Registry, LookupAndErrors) {
  EXPECT_EQ(find("rspeed").name, "rspeed");
  EXPECT_TRUE(find("membench").synthetic);
  EXPECT_TRUE(find("a2time_x").excerpt);
  EXPECT_FALSE(find("a2time").excerpt);
  EXPECT_THROW(find("nope"), std::out_of_range);
  EXPECT_EQ(table1_names().size(), 6u);
}

}  // namespace
}  // namespace issrtl::workloads
