// Unit tests for the RTL modelling kernel: node registry, the single armed
// fault overlay, two-phase register semantics and VCD output.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <vector>

#include "rtl/kernel.hpp"
#include "rtl/vcd.hpp"

namespace issrtl::rtl {
namespace {

TEST(Kernel, WireWriteReadImmediate) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0xDEADBEEF);
  EXPECT_EQ(w.r(), 0xDEADBEEFu);
}

TEST(Kernel, WidthMasking) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 4);
  w.w(0xFF);
  EXPECT_EQ(w.r(), 0xFu);
  Sig b = ctx.wire("b", "iu.alu", 1);
  b.w(2);
  EXPECT_EQ(b.r(), 0u);
}

TEST(Kernel, RegisterTwoPhase) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.n(42);
  EXPECT_EQ(r.r(), 0u);  // not visible before the clock edge
  ctx.commit_all();
  EXPECT_EQ(r.r(), 42u);
}

TEST(Kernel, RegisterHoldsWithoutWrite) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.n(7);
  ctx.commit_all();
  ctx.commit_all();
  ctx.commit_all();
  EXPECT_EQ(r.r(), 7u);
}

TEST(Kernel, StuckAt1ForcesBit) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 5);
  w.w(0);
  EXPECT_EQ(w.r(), 32u);
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFFFu);
}

TEST(Kernel, StuckAt0ForcesBit) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt0, 0);
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFFEu);
}

TEST(Kernel, OpenLineFreezesArmTimeValue) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0x10);                                  // bit 4 high at injection
  ctx.arm_fault(0, FaultModel::kOpenLine, 4);
  w.w(0);
  EXPECT_EQ(w.r(), 0x10u);                    // bit stays high
  ctx.clear_faults();
  EXPECT_EQ(w.r(), 0u);
}

TEST(Kernel, OpenLineFreezesZero) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kOpenLine, 4); // bit low at injection
  w.w(0xFFFFFFFF);
  EXPECT_EQ(w.r(), 0xFFFFFFEFu);
}

TEST(Kernel, TransientFlipIsOneShot) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 32);
  r.poke(8);
  ctx.arm_fault(0, FaultModel::kTransientBitFlip, 3);
  EXPECT_EQ(r.r(), 0u);       // flipped now
  r.n(8);
  ctx.commit_all();
  EXPECT_EQ(r.r(), 8u);       // overwritten value is clean
  // Nothing stays armed, so a permanent fault arms without clear_faults().
  ctx.arm_fault(0, FaultModel::kStuckAt0, 3);
  EXPECT_EQ(r.r(), 0u);
}

TEST(Kernel, DoubleFaultOnNodeRejected) {
  // One armed fault per context, on the same node or any other.
  SimContext ctx;
  ctx.wire("w", "iu.alu", 32);
  Sig v = ctx.wire("v", "iu.alu", 32);
  ctx.arm_fault(0, FaultModel::kStuckAt0, 0);
  EXPECT_THROW(ctx.arm_fault(0, FaultModel::kStuckAt1, 1), std::logic_error);
  EXPECT_THROW(ctx.arm_fault(1, FaultModel::kStuckAt1, 1), std::logic_error);
  EXPECT_THROW(ctx.arm_fault(1, FaultModel::kTransientBitFlip, 1),
               std::logic_error);
  EXPECT_EQ(v.r(), 0u);  // the rejected arms left the other node alone
  ctx.clear_faults();
  ctx.arm_fault(1, FaultModel::kStuckAt1, 1);
  EXPECT_EQ(v.r(), 2u);
}

TEST(Kernel, BitRangeChecked) {
  SimContext ctx;
  ctx.wire("w", "iu.alu", 4);
  EXPECT_THROW(ctx.arm_fault(0, FaultModel::kStuckAt0, 4), std::out_of_range);
  // The bridge model is not one the kernel can arm.
  EXPECT_THROW(ctx.arm_fault(0, FaultModel::kBridge, 0),
               std::invalid_argument);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 0);  // the rejects armed nothing
}

TEST(Kernel, ClearFaultsRestores) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(0);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 7);
  EXPECT_EQ(w.r(), 128u);
  ctx.clear_faults();
  EXPECT_EQ(w.r(), 0u);
  // Can re-arm after clearing.
  ctx.arm_fault(0, FaultModel::kStuckAt1, 3);
  EXPECT_EQ(w.r(), 8u);
}

TEST(Kernel, InjectableBitsByUnit) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 32);
  ctx.wire("b", "iu.alu", 4);
  ctx.reg("c", "cmem.dcache", 1);
  EXPECT_EQ(ctx.injectable_bits("iu"), 36u);
  EXPECT_EQ(ctx.injectable_bits("iu.alu"), 36u);
  EXPECT_EQ(ctx.injectable_bits("cmem"), 1u);
  EXPECT_EQ(ctx.injectable_bits(), 37u);
}

TEST(Kernel, UnitPrefixIsComponentWise) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 8);
  ctx.wire("b", "iu.aluX", 8);  // must NOT match prefix "iu.alu"
  EXPECT_EQ(ctx.nodes_in_unit("iu.alu").size(), 1u);
  EXPECT_EQ(ctx.nodes_in_unit("iu").size(), 2u);
}

TEST(Kernel, NodesInUnitReturnsIds) {
  SimContext ctx;
  ctx.wire("a", "iu.alu", 8);
  ctx.reg("b", "cmem.icache", 8);
  const auto iu = ctx.nodes_in_unit("iu");
  ASSERT_EQ(iu.size(), 1u);
  EXPECT_EQ(ctx.name(iu[0]), "a");
}

TEST(Kernel, ZeroAllResetsValuesNotFaults) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  w.w(123);
  ctx.arm_fault(0, FaultModel::kStuckAt1, 0);
  ctx.zero_all();
  EXPECT_EQ(w.r(), 1u);  // value cleared, stuck bit still applied
}

TEST(Kernel, SnapshotRoundTrip) {
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  Sig r = ctx.reg("r", "iu.special", 16);
  Sig b = ctx.wire("b", "cmem.icache", 1);
  w.w(0xCAFEBABE);
  r.poke(0x1234);
  b.w(1);
  const std::vector<u32> snap = ctx.save_values();
  EXPECT_TRUE(ctx.values_equal(snap));

  w.w(0);
  r.n(0x4321);
  ctx.commit_all();
  b.w(0);
  EXPECT_FALSE(ctx.values_equal(snap));

  ctx.load_values(snap);
  EXPECT_TRUE(ctx.values_equal(snap));
  EXPECT_EQ(w.r(), 0xCAFEBABEu);
  EXPECT_EQ(r.r(), 0x1234u);
  EXPECT_EQ(b.r(), 1u);
  // Registers restored at a cycle boundary hold their value (cur == nxt).
  ctx.commit_all();
  EXPECT_EQ(r.r(), 0x1234u);
  EXPECT_TRUE(ctx.values_equal(snap));
}

TEST(Kernel, SnapshotSizeMismatchRejected) {
  SimContext ctx;
  ctx.wire("w", "iu.alu", 32);
  std::vector<u32> snap = ctx.save_values();
  snap.push_back(0);
  EXPECT_FALSE(ctx.values_equal(snap));
  EXPECT_THROW(ctx.load_values(snap), std::invalid_argument);
}

TEST(Kernel, FindNodeUsesFirstRegistration) {
  SimContext ctx;
  ctx.wire("tag0", "cmem.icache", 20);
  ctx.wire("other", "iu.alu", 32);
  ctx.wire("tag0", "cmem.dcache", 20);  // duplicate name, different unit
  const auto id = ctx.find_node("tag0");
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(*id, 0u);  // linear-scan semantics: first registered wins
  EXPECT_EQ(ctx.unit(*id), "cmem.icache");
  EXPECT_FALSE(ctx.find_node("nonexistent").has_value());
}

// ---- raw-value watch and the activation proof ------------------------------

TEST(Watch, WireWrittenTwiceInOneCycleCountsItsIntermediateValue) {
  // An end-of-cycle sample would see bit 0 low throughout, yet consumers
  // evaluated between the two writes read it high: stuck-at-0 on it is
  // activated.
  SimContext ctx;
  Sig w = ctx.wire("w", "iu.alu", 32);
  const NodeId ids[] = {w.id()};
  ctx.watch(ids);
  const u32 at_arm = w.r();
  w.w(1);
  w.w(0);
  ctx.commit_all();
  const BitsSeen seen = ctx.take_seen(w.id());
  EXPECT_EQ(seen.ones, 1u);
  EXPECT_TRUE(can_activate(FaultModel::kStuckAt0, 0, at_arm, seen));
  EXPECT_FALSE(can_activate(FaultModel::kStuckAt0, 1, at_arm, seen));
  EXPECT_EQ(ctx.take_seen(w.id()).ones, 0u) << "take_seen clears";
}

TEST(Watch, RegisterHoldingTheOppositeValueAtArmIsActivated) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 8);
  r.poke(1);
  const NodeId ids[] = {r.id()};
  ctx.watch(ids);
  const u32 at_arm = r.r();
  for (int cycle = 0; cycle < 3; ++cycle) ctx.commit_all();  // never written
  const BitsSeen seen = ctx.take_seen(r.id());
  EXPECT_TRUE(can_activate(FaultModel::kStuckAt0, 0, at_arm, seen));
  EXPECT_FALSE(can_activate(FaultModel::kStuckAt1, 0, at_arm, seen));
  // A next value the clock edge never exposes is not a value of the node.
  r.n(0);
  r.n(1);
  ctx.commit_all();
  EXPECT_EQ(ctx.take_seen(r.id()).zeros & 1u, 0u);
}

TEST(Watch, SparseRegisterIsRejected) {
  SimContext ctx;
  Sig span = ctx.reg("span", "iu.special", 8);
  Sig sparse = ctx.reg_sparse("rf", "iu.regfile", 8);
  const NodeId kept[] = {span.id()};
  ctx.watch(kept);
  const NodeId ids[] = {span.id(), sparse.id()};
  EXPECT_THROW(ctx.watch(ids), std::invalid_argument);
  // The rejected call leaves the previous watch in place.
  span.n(0x81);
  ctx.commit_all();
  EXPECT_EQ(ctx.take_seen(span.id()).ones, 0x81u);
  EXPECT_THROW(ctx.take_seen(sparse.id()), std::out_of_range);
}

TEST(Watch, OpenLineScreenedOnlyWhileTheBitStaysConstant) {
  SimContext ctx;
  Sig r = ctx.reg("r", "iu.special", 2);
  r.poke(0b01);
  const NodeId ids[] = {r.id()};
  ctx.watch(ids);
  const u32 at_arm = r.r();
  for (const u32 v : {0b11u, 0b01u, 0b11u}) {  // bit 0 constant, bit 1 toggles
    r.n(v);
    ctx.commit_all();
  }
  const BitsSeen seen = ctx.take_seen(r.id());
  EXPECT_FALSE(can_activate(FaultModel::kOpenLine, 0, at_arm, seen));
  EXPECT_TRUE(can_activate(FaultModel::kOpenLine, 1, at_arm, seen));
}

TEST(Watch, TransientIsNeverScreened) {
  for (const u32 at_arm : {0u, 0xFFFF'FFFFu}) {
    for (const BitsSeen seen : {BitsSeen{}, BitsSeen{0xFFFF'FFFFu, 0}}) {
      EXPECT_TRUE(can_activate(FaultModel::kTransientBitFlip, 3, at_arm, seen));
    }
  }
}

TEST(Watch, ArmedAndWatchedNodesShareTheSlowPath) {
  // A fault armed below the watched span and a watch above it: every node
  // in between takes the slow path and must still behave as unhooked, the
  // overlay must still apply, and the watched node records raw values.
  SimContext ctx;
  Sig a = ctx.wire("a", "iu.alu", 32);
  Sig mid = ctx.wire("mid", "iu.alu", 32);
  Sig r = ctx.reg("r", "iu.special", 32);
  ctx.arm_fault(a.id(), FaultModel::kStuckAt1, 4);
  const NodeId ids[] = {r.id()};
  ctx.watch(ids);
  a.w(0);
  mid.w(7);
  r.n(0x20);
  ctx.commit_all();
  EXPECT_EQ(a.r(), 0x10u);
  EXPECT_EQ(mid.r(), 7u);
  EXPECT_EQ(r.r(), 0x20u);
  EXPECT_EQ(ctx.take_seen(r.id()).ones, 0x20u);
  EXPECT_THROW(ctx.take_seen(mid.id()), std::out_of_range);
  ctx.unwatch();
  EXPECT_THROW(ctx.take_seen(r.id()), std::out_of_range);
  a.w(0);
  EXPECT_EQ(a.r(), 0x10u) << "unwatch keeps the armed fault";
  ctx.clear_faults();
  EXPECT_EQ(a.r(), 0u);
}

TEST(Vcd, ProducesParsableFile) {
  SimContext ctx;
  Sig a = ctx.wire("alu_res", "iu.alu", 32);
  Sig b = ctx.reg("valid", "iu.de", 1);
  const std::string path = ::testing::TempDir() + "issrtl_test.vcd";
  {
    VcdWriter vcd(path, ctx);
    a.w(5);
    b.poke(1);
    vcd.sample(0);
    a.w(6);
    vcd.sample(1);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("$enddefinitions"), std::string::npos);
  EXPECT_NE(all.find("alu_res"), std::string::npos);
  EXPECT_NE(all.find("#0"), std::string::npos);
  EXPECT_NE(all.find("#1"), std::string::npos);
  std::remove(path.c_str());
}

// Property: for every model, a faulted read differs from the raw value in at
// most the targeted bit.
class OverlayProperty : public ::testing::TestWithParam<int> {};

TEST_P(OverlayProperty, OnlyTargetBitAffected) {
  const auto model = static_cast<FaultModel>(GetParam());
  for (u8 bit = 0; bit < 32; ++bit) {
    SimContext ctx;
    Sig w = ctx.wire("w", "iu.alu", 32);
    w.w(0xA5A5A5A5);
    ctx.arm_fault(0, model, bit);
    for (const u32 v : {0u, 0xFFFFFFFFu, 0xA5A5A5A5u, 0x5A5A5A5Au}) {
      w.w(v);
      const u32 diff = w.r() ^ (model == FaultModel::kTransientBitFlip
                                    ? w.raw()
                                    : v);
      EXPECT_EQ(diff & ~(1u << bit), 0u)
          << fault_model_name(model) << " bit " << int(bit);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllModels, OverlayProperty, ::testing::Range(0, 4));

}  // namespace
}  // namespace issrtl::rtl
