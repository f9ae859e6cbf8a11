// Unit tests for the functional emulator: instruction semantics, delayed
// control transfer, register windows, traps, tracing and ISS-level faults.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <utility>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/reg_use.hpp"
#include "iss/emulator.hpp"
#include "iss/timing.hpp"
#include "workloads/workload.hpp"

namespace issrtl::iss {
namespace {

using isa::Assembler;
using isa::Opcode;
using isa::Program;
using isa::Reg;

/// Assemble, run to completion, return the emulator for inspection.
struct RunResult {
  Memory mem;
  std::unique_ptr<Emulator> emu;
};

RunResult run_program(Assembler& a, u64 max_steps = 100000) {
  RunResult r;
  Program p = a.finalize();
  r.emu = std::make_unique<Emulator>(r.mem);
  r.emu->load(p);
  r.emu->run(max_steps);
  return r;
}

u32 reg(const RunResult& r, Reg rn) {
  return r.emu->state().get_reg(isa::reg_num(rn));
}

TEST(Emulator, HaltsOnTa0) {
  Assembler a("t");
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(r.emu->instret(), 1u);
}

TEST(Emulator, MovAndArithmetic) {
  Assembler a("t");
  a.mov(Reg::o0, 40);
  a.add(Reg::o0, Reg::o0, 2);
  a.sub(Reg::o1, Reg::o0, 10);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 42u);
  EXPECT_EQ(reg(r, Reg::o1), 32u);
}

TEST(Emulator, G0IsAlwaysZero) {
  Assembler a("t");
  a.mov(Reg::g0, 99);
  a.add(Reg::g0, Reg::g0, 99);
  a.mov(Reg::o0, Reg::g0);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 0u);
}

TEST(Emulator, AddccFlags) {
  struct Case { u32 x, y; bool n, z, v, c; };
  const Case cases[] = {
      {1, 1, false, false, false, false},
      {0, 0, false, true, false, false},
      {0xFFFFFFFF, 1, false, true, false, true},        // carry out, zero
      {0x7FFFFFFF, 1, true, false, true, false},        // signed overflow
      {0x80000000, 0x80000000, false, true, true, true} // both
  };
  for (const auto& c : cases) {
    Assembler a("t");
    a.set32(Reg::o0, c.x);
    a.set32(Reg::o1, c.y);
    a.addcc(Reg::o2, Reg::o0, Reg::o1);
    a.halt();
    auto r = run_program(a);
    const Icc icc = r.emu->state().icc;
    EXPECT_EQ(icc.n(), c.n) << c.x << "+" << c.y;
    EXPECT_EQ(icc.z(), c.z) << c.x << "+" << c.y;
    EXPECT_EQ(icc.v(), c.v) << c.x << "+" << c.y;
    EXPECT_EQ(icc.c(), c.c) << c.x << "+" << c.y;
  }
}

TEST(Emulator, SubccFlags) {
  struct Case { u32 x, y; bool n, z, v, c; };
  const Case cases[] = {
      {5, 3, false, false, false, false},
      {3, 3, false, true, false, false},
      {3, 5, true, false, false, true},                  // borrow
      {0x80000000, 1, false, false, true, false},        // signed overflow
  };
  for (const auto& c : cases) {
    Assembler a("t");
    a.set32(Reg::o0, c.x);
    a.set32(Reg::o1, c.y);
    a.subcc(Reg::o2, Reg::o0, Reg::o1);
    a.halt();
    auto r = run_program(a);
    const Icc icc = r.emu->state().icc;
    EXPECT_EQ(icc.n(), c.n) << c.x << "-" << c.y;
    EXPECT_EQ(icc.z(), c.z) << c.x << "-" << c.y;
    EXPECT_EQ(icc.v(), c.v) << c.x << "-" << c.y;
    EXPECT_EQ(icc.c(), c.c) << c.x << "-" << c.y;
  }
}

TEST(Emulator, AddxSubxUseCarry) {
  Assembler a("t");
  // 64-bit add: 0x00000001_FFFFFFFF + 1 = 0x00000002_00000000
  a.set32(Reg::o0, 0xFFFFFFFF);  // low
  a.set32(Reg::o1, 1);           // high
  a.addcc(Reg::o2, Reg::o0, 1);  // low sum, sets carry
  a.addx(Reg::o3, Reg::o1, 0);   // high sum + carry
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o2), 0u);
  EXPECT_EQ(reg(r, Reg::o3), 2u);
}

TEST(Emulator, LogicalOps) {
  Assembler a("t");
  a.set32(Reg::o0, 0xF0F0F0F0);
  a.set32(Reg::o1, 0x0FF00FF0);
  a.and_(Reg::o2, Reg::o0, Reg::o1);
  a.or_(Reg::o3, Reg::o0, Reg::o1);
  a.xor_(Reg::o4, Reg::o0, Reg::o1);
  a.andn(Reg::o5, Reg::o0, Reg::o1);
  a.orn(Reg::l0, Reg::o0, Reg::o1);
  a.xnor(Reg::l1, Reg::o0, Reg::o1);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o2), 0xF0F0F0F0u & 0x0FF00FF0u);
  EXPECT_EQ(reg(r, Reg::o3), 0xF0F0F0F0u | 0x0FF00FF0u);
  EXPECT_EQ(reg(r, Reg::o4), 0xF0F0F0F0u ^ 0x0FF00FF0u);
  EXPECT_EQ(reg(r, Reg::o5), 0xF0F0F0F0u & ~0x0FF00FF0u);
  EXPECT_EQ(reg(r, Reg::l0), 0xF0F0F0F0u | ~0x0FF00FF0u);
  EXPECT_EQ(reg(r, Reg::l1), ~(0xF0F0F0F0u ^ 0x0FF00FF0u));
}

TEST(Emulator, Shifts) {
  Assembler a("t");
  a.set32(Reg::o0, 0x80000001);
  a.sll(Reg::o1, Reg::o0, 4);
  a.srl(Reg::o2, Reg::o0, 4);
  a.sra(Reg::o3, Reg::o0, 4);
  a.set32(Reg::o5, 33);          // shift counts use low 5 bits only
  a.sll(Reg::o4, Reg::o0, Reg::o5);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o1), 0x00000010u);
  EXPECT_EQ(reg(r, Reg::o2), 0x08000000u);
  EXPECT_EQ(reg(r, Reg::o3), 0xF8000000u);
  EXPECT_EQ(reg(r, Reg::o4), 0x00000002u);  // shift by 33&31 = 1
}

TEST(Emulator, MultiplySignedUnsigned) {
  Assembler a("t");
  a.set32(Reg::o0, 0xFFFFFFFF);  // -1 signed
  a.set32(Reg::o1, 2);
  a.umul(Reg::o2, Reg::o0, Reg::o1);
  a.rdy(Reg::o3);                // Y = high word of unsigned product
  a.smul(Reg::o4, Reg::o0, Reg::o1);
  a.rdy(Reg::o5);                // Y = high word of signed product
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o2), 0xFFFFFFFEu);
  EXPECT_EQ(reg(r, Reg::o3), 1u);            // 0xFFFFFFFF*2 >> 32
  EXPECT_EQ(reg(r, Reg::o4), 0xFFFFFFFEu);   // -2 low word
  EXPECT_EQ(reg(r, Reg::o5), 0xFFFFFFFFu);   // -2 high word
}

TEST(Emulator, DivideUsesY) {
  Assembler a("t");
  a.wry(Reg::g0, 0);             // Y = 0
  a.set32(Reg::o0, 100);
  a.udiv(Reg::o1, Reg::o0, 7);
  a.set32(Reg::o2, 0xFFFFFF9C);  // -100
  a.wry(Reg::g0, -1);            // Y = all ones (sign extension of dividend)
  a.sdiv(Reg::o3, Reg::o2, 7);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o1), 14u);
  EXPECT_EQ(static_cast<i32>(reg(r, Reg::o3)), -14);
}

TEST(Emulator, UdivOverflowClamps) {
  Assembler a("t");
  a.wry(Reg::g0, 2);             // dividend = 2 * 2^32
  a.mov(Reg::o0, 0);
  a.udivcc(Reg::o1, Reg::o0, 1);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o1), 0xFFFFFFFFu);
  EXPECT_TRUE(r.emu->state().icc.v());
}

TEST(Emulator, DivisionByZeroTraps) {
  Assembler a("t");
  a.mov(Reg::o0, 5);
  a.udiv(Reg::o1, Reg::o0, Reg::g0);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kDivisionByZero);
}

TEST(Emulator, MulsccComputesProduct) {
  // Classic SPARC V8 32-step multiply loop using MULSCC: 13 * 11 = 143.
  Assembler a("t");
  a.mov(Reg::o0, 13);            // multiplier -> Y
  a.wry(Reg::o0, 0);
  a.mov(Reg::o1, 11);            // multiplicand
  a.clr(Reg::o2);                // partial product
  a.orcc(Reg::g0, Reg::g0, Reg::g0);  // clear N and V
  for (int i = 0; i < 32; ++i) a.mulscc(Reg::o2, Reg::o2, Reg::o1);
  a.mulscc(Reg::o2, Reg::o2, Reg::g0);  // final shift step
  a.rdy(Reg::o3);                // low word lands in Y
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o3), 143u);
}

// ---- control transfer -------------------------------------------------------

TEST(Emulator, DelaySlotExecutesBeforeTarget) {
  Assembler a("t");
  auto target = a.label();
  a.mov(Reg::o0, 1);
  a.ba(target);
  a.mov(Reg::o0, 2);   // delay slot: executes
  a.mov(Reg::o0, 3);   // skipped
  a.bind(target);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 2u);
}

TEST(Emulator, AnnulledDelaySlotOnUntakenBranch) {
  Assembler a("t");
  auto target = a.label();
  a.cmp(Reg::g0, 0);       // sets Z
  a.bne(target, /*annul=*/true);
  a.mov(Reg::o0, 99);      // annulled (branch not taken, a=1)
  a.mov(Reg::o1, 7);       // executed
  a.bind(target);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 0u);
  EXPECT_EQ(reg(r, Reg::o1), 7u);
}

TEST(Emulator, TakenAnnulledBranchExecutesDelaySlot) {
  Assembler a("t");
  auto target = a.label();
  a.cmp(Reg::g0, 0);
  a.be(target, /*annul=*/true);   // taken: delay slot executes despite a=1
  a.mov(Reg::o0, 42);
  a.mov(Reg::o0, 99);             // skipped
  a.bind(target);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 42u);
}

TEST(Emulator, BaAnnulSkipsDelaySlot) {
  Assembler a("t");
  auto target = a.label();
  a.ba(target, /*annul=*/true);
  a.mov(Reg::o0, 99);             // annulled for ba,a
  a.bind(target);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 0u);
}

TEST(Emulator, ConditionalBranchMatrix) {
  // For (x=1, y=2): x-y is negative, no Z, no V, borrow set.
  struct Case { Opcode op; bool taken; };
  const Case cases[] = {
      {Opcode::kBNE, true}, {Opcode::kBE, false}, {Opcode::kBL, true},
      {Opcode::kBGE, false}, {Opcode::kBLE, true}, {Opcode::kBG, false},
      {Opcode::kBLEU, true}, {Opcode::kBGU, false}, {Opcode::kBCS, true},
      {Opcode::kBCC, false}, {Opcode::kBNEG, true}, {Opcode::kBPOS, false},
      {Opcode::kBVC, true}, {Opcode::kBVS, false},
  };
  for (const auto& c : cases) {
    Assembler a("t");
    auto target = a.label();
    a.mov(Reg::o0, 1);
    a.cmp(Reg::o0, 2);
    a.emit(isa::encode_branch(c.op, false, 12));  // to "mov o1, 5" + halt
    a.nop();
    a.mov(Reg::o1, 1);  // fallthrough marker
    a.bind(target);
    a.mov(Reg::o2, 1);  // both paths
    a.halt();
    auto r = run_program(a);
    EXPECT_EQ(reg(r, Reg::o1) == 0u, c.taken) << isa::mnemonic(c.op);
  }
}

TEST(Emulator, CallAndRetl) {
  Assembler a("t");
  auto fn = a.label();
  a.mov(Reg::o0, 5);
  a.call(fn);
  a.mov(Reg::o1, 3);          // delay slot, executes before callee
  a.add(Reg::o2, Reg::o0, Reg::o1);  // after return
  a.halt();
  a.bind(fn);
  a.add(Reg::o0, Reg::o0, Reg::o1);  // o0 = 5+3
  a.retl();
  a.nop();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(reg(r, Reg::o0), 8u);
  EXPECT_EQ(reg(r, Reg::o2), 11u);
}

TEST(Emulator, SaveRestoreWindows) {
  Assembler a("t");
  a.mov(Reg::o0, 77);                // caller out
  a.save(Reg::o6, Reg::o6, -96);     // new window; sp adjusted
  a.mov(Reg::o0, 11);                // callee's own out
  a.add(Reg::l0, Reg::i0, 1);        // callee sees caller's o0 as i0
  a.restore(Reg::o1, Reg::l0, Reg::g0);  // result into caller's o1... careful:
  // restore rd is written in the *caller* window: o1 = l0 + g0 (callee's l0)
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 77u);   // caller window restored
  EXPECT_EQ(reg(r, Reg::o1), 78u);   // 77+1 computed in callee
}

TEST(Emulator, WindowOverflowDetected) {
  Assembler a("t");
  for (unsigned i = 0; i < isa::kNumWindows; ++i) a.save(Reg::o6, Reg::o6, -96);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kWindowOverflow);
}

TEST(Emulator, WindowUnderflowDetected) {
  Assembler a("t");
  a.restore(Reg::g0, Reg::g0, Reg::g0);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kWindowOverflow);
}

// ---- memory -------------------------------------------------------------------

TEST(Emulator, LoadStoreWidths) {
  Assembler a("t");
  const u32 buf = a.data_zero(32);
  a.set32(Reg::l0, buf);
  a.set32(Reg::o0, 0x11223344);
  a.st(Reg::o0, Reg::l0, 0);
  a.ld(Reg::o1, Reg::l0, 0);
  a.ldub(Reg::o2, Reg::l0, 0);   // 0x11
  a.ldsb(Reg::o3, Reg::l0, 3);   // 0x44 sign-extended (positive)
  a.lduh(Reg::o4, Reg::l0, 2);   // 0x3344
  a.sth(Reg::o0, Reg::l0, 8);    // stores low half 0x3344
  a.ldsh(Reg::o5, Reg::l0, 8);
  a.stb(Reg::o0, Reg::l0, 12);
  a.ldub(Reg::l1, Reg::l0, 12);  // 0x44
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o1), 0x11223344u);
  EXPECT_EQ(reg(r, Reg::o2), 0x11u);
  EXPECT_EQ(reg(r, Reg::o3), 0x44u);
  EXPECT_EQ(reg(r, Reg::o4), 0x3344u);
  EXPECT_EQ(reg(r, Reg::o5), 0x3344u);
  EXPECT_EQ(reg(r, Reg::l1), 0x44u);
}

TEST(Emulator, SignExtendingLoads) {
  Assembler a("t");
  const u32 buf = a.data_u32(0x80FF8000);
  a.set32(Reg::l0, buf);
  a.ldsb(Reg::o0, Reg::l0, 0);   // 0x80 -> -128
  a.ldsh(Reg::o1, Reg::l0, 2);   // 0x8000 -> -32768
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(static_cast<i32>(reg(r, Reg::o0)), -128);
  EXPECT_EQ(static_cast<i32>(reg(r, Reg::o1)), -32768);
}

TEST(Emulator, DoubleWordLoadStore) {
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.set32(Reg::o0, 0xAABBCCDD);
  a.set32(Reg::o1, 0x11223344);
  a.std_(Reg::o0, Reg::l0, 0);
  a.ldd(Reg::o2, Reg::l0, 0);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o2), 0xAABBCCDDu);
  EXPECT_EQ(reg(r, Reg::o3), 0x11223344u);
}

TEST(Emulator, MisalignedLoadTraps) {
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.ld(Reg::o0, Reg::l0, 2);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kMisalignedAccess);
}

TEST(Emulator, AtomicLdstubAndSwap) {
  Assembler a("t");
  const u32 buf = a.data_u32(0x0000'0000);
  a.set32(Reg::l0, buf);
  a.ldstub(Reg::o0, Reg::l0, 0);  // o0 = 0, mem byte = 0xFF
  a.ldub(Reg::o1, Reg::l0, 0);
  a.set32(Reg::o2, 0x1234);
  a.swap(Reg::o2, Reg::l0, 0);    // o2 <-> word
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o0), 0u);
  EXPECT_EQ(reg(r, Reg::o1), 0xFFu);
  EXPECT_EQ(reg(r, Reg::o2), 0xFF000000u);
  EXPECT_EQ(r.mem.load_u32(buf), 0x1234u);
}

TEST(Emulator, StoresAppearOnOffCoreTrace) {
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 1);
  a.st(Reg::o0, Reg::l0, 0);
  a.mov(Reg::o0, 2);
  a.sth(Reg::o0, Reg::l0, 4);
  a.halt();
  auto r = run_program(a);
  const auto& w = r.emu->offcore().writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].addr, buf);
  EXPECT_EQ(w[0].size, 4);
  EXPECT_EQ(w[0].data, 1u);
  EXPECT_EQ(w[1].addr, buf + 4);
  EXPECT_EQ(w[1].size, 2);
  EXPECT_EQ(w[1].data, 2u);
}

TEST(Emulator, StdProducesTwoBusWrites) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.set32(Reg::o0, 1);
  a.set32(Reg::o1, 2);
  a.std_(Reg::o0, Reg::l0, 0);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->offcore().writes().size(), 2u);
}

// ---- misc state ------------------------------------------------------------------

TEST(Emulator, IllegalInstructionHalts) {
  Assembler a("t");
  a.emit(0xFFFFFFFF);
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kIllegalInstruction);
}

TEST(Emulator, TrapCodeReported) {
  Assembler a("t");
  a.ta(5);
  auto r = run_program(a);
  EXPECT_EQ(r.emu->halt_reason(), HaltReason::kTrap);
  EXPECT_EQ(r.emu->trap_code(), 5);
}

TEST(Emulator, StepLimitWatchdog) {
  Assembler a("t");
  auto loop = a.here();
  a.ba(loop);
  a.nop();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  e.load(p);
  EXPECT_EQ(e.run(100), HaltReason::kStepLimit);
}

TEST(Emulator, WryXorSemantics) {
  Assembler a("t");
  a.set32(Reg::o0, 0xFF00FF00);
  a.wry(Reg::o0, 0x0F0);        // Y = rs1 ^ imm
  a.rdy(Reg::o1);
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(reg(r, Reg::o1), 0xFF00FF00u ^ 0x0F0u);
}

// ---- fast-path cache coherence -----------------------------------------------------
//
// The dbbcache (decoded basic blocks) and lscache (one-entry raw page cache)
// must stay invisible under every event that can change the bytes behind
// them: the program writing its own code, external stores through the
// Memory API, and COW clone() re-sharing pages out from under a cached
// write pointer. tests/test_iss_fastpath.cpp carries the broad differential
// harness; these are the targeted invalidation regressions.

/// Single-instruction encoding of `mov rd, imm` via a throwaway assembler
/// (no hand-rolled instruction formats in the tests).
u32 encode_mov_imm(Reg rd, i32 imm) {
  Assembler t("enc");
  t.mov(rd, imm);
  Program p = t.finalize();
  return p.code[0];
}

TEST(FastPath, SelfModifyingStoreFlushesDbbcache) {
  // A loop whose body overwrites its own first instruction (mov %o0, 1 ->
  // mov %o0, 7) while that block is decoded AND currently executing: pass 1
  // must still run the old code to completion (fetch-before-execute), pass
  // 2 must run the new code. Accumulator ends at 1 + 7 = 8.
  const auto build = [] {
    Assembler a("t");
    const u32 donor = a.data_u32(encode_mov_imm(Reg::o0, 7));
    a.mov(Reg::l2, 0);                    // pass counter
    a.mov(Reg::l3, 0);                    // accumulator
    a.set32(Reg::l4, donor);
    auto loop = a.here();
    const u32 patch = a.current_pc();
    a.mov(Reg::o0, 1);                    // patch site
    a.add(Reg::l3, Reg::l3, Reg::o0);
    a.ld(Reg::o1, Reg::l4, 0);            // donor word
    a.set32(Reg::l5, patch);
    a.st(Reg::o1, Reg::l5, 0);            // self-modify
    a.add(Reg::l2, Reg::l2, 1);
    a.cmp(Reg::l2, 2);
    a.bne(loop);
    a.nop();
    a.halt();
    return a.finalize();
  };
  for (const bool fast : {true, false}) {
    Memory mem;
    Emulator e(mem);
    e.set_fast_path(fast);
    e.load(build());
    e.run();
    EXPECT_EQ(e.halt_reason(), HaltReason::kHalted) << "fast=" << fast;
    EXPECT_EQ(e.state().get_reg(isa::reg_num(Reg::l3)), 8u) << "fast=" << fast;
    if (fast) {
      EXPECT_GE(e.dbb_flushes(), 1u)
          << "store into cached code must flush the dbbcache";
    }
  }
}

TEST(FastPath, ExternalStoreInvalidatesDecodedBlocks) {
  // A store through the Memory API (not the emulator's own data path) lands
  // in a decoded block; Memory::revision() must carry the invalidation into
  // the next step().
  Assembler a("t");
  a.nop();
  const u32 patch = a.current_pc();
  a.mov(Reg::o0, 1);
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  e.load(p);
  e.step();  // decodes the block [nop, mov, ta 0]
  ASSERT_GE(e.dbb_blocks(), 1u);
  const u64 rev = mem.revision();
  mem.store_u32(patch, encode_mov_imm(Reg::o0, 7));
  EXPECT_GT(mem.revision(), rev);
  e.run();
  EXPECT_EQ(e.halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(e.state().get_reg(isa::reg_num(Reg::o0)), 7u);
}

TEST(FastPath, CloneDoesNotShareStaleLscache) {
  // clone() re-shares every page, so the emulator's cached raw write
  // pointer into the pre-clone page would corrupt the snapshot if it kept
  // being used: the revision bump must force a resync and the next store
  // must COW-unshare. The clone is immutable history.
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 1);
  a.st(Reg::o0, Reg::l0, 0);   // populates the lscache write entry
  a.mov(Reg::o0, 2);
  a.st(Reg::o0, Reg::l0, 4);   // post-clone store, same page
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  e.load(p);
  while (e.offcore().writes().empty() &&
         e.halt_reason() == HaltReason::kRunning) {
    e.step();
  }
  ASSERT_EQ(e.offcore().writes().size(), 1u);
  Memory snap = mem.clone();
  e.run();
  EXPECT_EQ(e.halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(mem.load_u32(buf + 4), 2u);
  EXPECT_EQ(snap.load_u32(buf), 1u);      // pre-clone store visible
  EXPECT_EQ(snap.load_u32(buf + 4), 0u);  // post-clone store is not
}

TEST(FastPath, RestoreOverUnchangedCodeKeepsDecodedBlocks) {
  // A ladder-style restore: a checkpoint and a COW clone of memory taken
  // mid-run. Installing a clone moves Memory::revision(); when its code
  // bytes are unchanged every decoded block must survive, and when a code
  // word was patched through the Memory API the restored run must execute
  // the new word.
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.mov(Reg::l1, 0);                    // pass counter
  a.mov(Reg::l3, 0);                    // accumulator
  auto loop = a.here();
  const u32 patch = a.current_pc();
  a.mov(Reg::o0, 1);                    // patch site
  a.add(Reg::l3, Reg::l3, Reg::o0);
  a.st(Reg::l3, Reg::l0, 0);
  a.add(Reg::l1, Reg::l1, 1);
  a.cmp(Reg::l1, 4);
  a.bne(loop);
  a.nop();
  a.halt();
  Program p = a.finalize();
  const auto l3 = [](const Emulator& e) {
    return e.state().get_reg(isa::reg_num(Reg::l3));
  };

  Memory mem;
  Emulator e(mem);
  e.load(p);
  // Stop at the top of the second pass, with the loop body decoded.
  while (e.state().get_reg(isa::reg_num(Reg::l1)) != 1 ||
         e.state().pc != patch) {
    ASSERT_EQ(e.step(), HaltReason::kRunning);
  }
  const EmuCheckpoint ck = e.checkpoint();
  const Memory snap = mem.clone();
  ASSERT_EQ(e.run(), HaltReason::kHalted);
  ASSERT_EQ(l3(e), 4u);
  const OffCoreTrace trace = e.offcore();
  // The first restore enters the loop at its head, which the run from
  // reset only reached mid-block: one more block (entry, head, halt).
  mem = snap.clone();
  e.restore(ck, trace);
  ASSERT_EQ(e.run(), HaltReason::kHalted);
  const std::size_t blocks = e.dbb_blocks();
  const u64 flushes = e.dbb_flushes();
  ASSERT_EQ(blocks, 3u);

  // A flush here would leave only the two blocks a restored run enters.
  const u64 rev = mem.revision();
  mem = snap.clone();
  EXPECT_NE(mem.revision(), rev);
  e.restore(ck, trace);
  ASSERT_EQ(e.run(), HaltReason::kHalted);
  EXPECT_EQ(l3(e), 4u);
  EXPECT_EQ(e.dbb_blocks(), blocks);
  EXPECT_EQ(e.dbb_flushes(), flushes);

  Memory patched = snap.clone();
  patched.store_u32(patch, encode_mov_imm(Reg::o0, 7));
  mem = std::move(patched);
  e.restore(ck, trace);
  ASSERT_EQ(e.run(), HaltReason::kHalted);
  EXPECT_EQ(l3(e), 1u + 3u * 7u);  // pass 1 ran before the checkpoint
  EXPECT_GT(e.dbb_flushes(), flushes);
}

TEST(FastPath, EmulatorOverCloneReadsFreshPages) {
  // The mirror image: after cloning, the *source* keeps running and
  // unshares pages; an emulator started over the clone must read the
  // snapshot's bytes, never the source's newer ones.
  Assembler a("t");
  const u32 buf = a.data_zero(16);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 5);
  a.st(Reg::o0, Reg::l0, 0);
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  e.load(p);
  e.run();
  ASSERT_EQ(mem.load_u32(buf), 5u);
  Memory snap = mem.clone();
  mem.store_u32(buf, 99);  // source moves on after the snapshot
  // Re-run the program over the snapshot: it must see 0 at buf (its own
  // fresh store path), and the source's 99 must never leak in.
  Emulator e2(snap);
  e2.load(p);
  e2.run();
  EXPECT_EQ(e2.halt_reason(), HaltReason::kHalted);
  EXPECT_EQ(snap.load_u32(buf), 5u);
  EXPECT_EQ(mem.load_u32(buf), 99u);
}

// ---- instruction trace / diversity -------------------------------------------------

TEST(Trace, DiversityCountsUniqueTypes) {
  Assembler a("t");
  a.mov(Reg::o0, 1);     // or
  a.add(Reg::o0, Reg::o0, 1);
  a.add(Reg::o0, Reg::o0, 1);  // same type, shouldn't add diversity
  a.sub(Reg::o1, Reg::o0, 1);
  a.halt();              // ta
  auto r = run_program(a);
  EXPECT_EQ(r.emu->trace().diversity(), 4u);  // or, add, sub, ta
  EXPECT_EQ(r.emu->trace().total(), 5u);
  EXPECT_EQ(r.emu->trace().count(Opcode::kADD), 2u);
}

TEST(Trace, MemoryAndIuTotals) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);      // data base is 1KiB-aligned: single sethi
  a.st(Reg::g0, Reg::l0, 0);  // 1 memory
  a.ld(Reg::o0, Reg::l0, 0);  // 1 memory
  a.halt();
  auto r = run_program(a);
  EXPECT_EQ(r.emu->trace().memory_total(), 2u);
  EXPECT_EQ(r.emu->trace().total(), 4u);
  EXPECT_EQ(r.emu->trace().integer_unit_total(), 3u);  // minus the trap
}

TEST(Trace, UnitDiversityDistinguishesUnits) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.ld(Reg::o0, Reg::l0, 0);
  a.sll(Reg::o1, Reg::o0, 2);
  a.halt();
  auto r = run_program(a);
  const auto& t = r.emu->trace();
  // Every type touches fetch; only ld touches dcache; only sll touches shift.
  EXPECT_EQ(t.unit_diversity(isa::FuncUnit::Fetch), t.diversity());
  EXPECT_EQ(t.unit_diversity(isa::FuncUnit::DCache), 1u);
  EXPECT_EQ(t.unit_diversity(isa::FuncUnit::Shift), 1u);
}

// ---- timing model ------------------------------------------------------------------

TEST(Timing, CyclesAtLeastInstructions) {
  Assembler a("t");
  for (int i = 0; i < 50; ++i) a.add(Reg::o0, Reg::o0, 1);
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  TimingModel tm;
  e.set_timing(&tm);
  e.load(p);
  e.run();
  EXPECT_GE(tm.cycles(), e.instret());
}

TEST(Timing, MulDivCostMore) {
  auto cycles_for = [](auto emit_fn) {
    Assembler a("t");
    a.mov(Reg::o0, 7);
    for (int i = 0; i < 100; ++i) emit_fn(a);
    a.halt();
    Program p = a.finalize();
    Memory mem;
    Emulator e(mem);
    TimingModel tm;
    e.set_timing(&tm);
    e.load(p);
    e.run();
    return tm.cycles();
  };
  const u64 adds = cycles_for([](Assembler& a) { a.add(Reg::o1, Reg::o0, 1); });
  const u64 muls = cycles_for([](Assembler& a) { a.umul(Reg::o1, Reg::o0, Reg::o0); });
  const u64 divs = cycles_for([](Assembler& a) { a.udiv(Reg::o1, Reg::o0, Reg::o0); });
  EXPECT_GT(muls, adds);
  EXPECT_GT(divs, muls);
}

TEST(Timing, CacheCapturesLocality) {
  // A tight loop over a small buffer should have high hit rates.
  Assembler a("t");
  const u32 buf = a.data_zero(64);
  a.set32(Reg::l0, buf);
  a.mov(Reg::l1, 200);
  auto loop = a.here();
  a.ld(Reg::o0, Reg::l0, 0);
  a.subcc(Reg::l1, Reg::l1, 1);
  a.bne(loop);
  a.nop();
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  TimingModel tm;
  e.set_timing(&tm);
  e.load(p);
  e.run();
  const auto s = tm.stats();
  EXPECT_GT(s.dcache_hits, 100u);
  EXPECT_LE(s.dcache_misses, 4u);
  EXPECT_GT(s.icache_hits, s.icache_misses);
}

TEST(Timing, StatsConsistent) {
  Assembler a("t");
  for (int i = 0; i < 10; ++i) a.add(Reg::o0, Reg::o0, 1);
  a.halt();
  Program p = a.finalize();
  Memory mem;
  Emulator e(mem);
  TimingModel tm;
  e.set_timing(&tm);
  e.load(p);
  e.run();
  const auto s = tm.stats();
  EXPECT_EQ(s.instructions, e.instret());
  EXPECT_GE(s.cpi(), 1.0);
}

// ---- ISS-level fault injection ------------------------------------------------------

TEST(IssFault, StuckAt1CorruptsResult) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.clr(Reg::o0);
  a.st(Reg::o0, Reg::l0, 0);
  a.halt();
  Program p = a.finalize();

  Memory mem;
  Emulator e(mem);
  e.load(p);
  IssFault f;
  f.phys_reg = isa::phys_reg_index(8, 0);  // %o0 in window 0
  f.bit = 3;
  f.model = IssFaultModel::kStuckAt1;
  f.inject_at_instr = 0;
  e.arm_fault(f);
  e.run();
  ASSERT_FALSE(e.offcore().writes().empty());
  EXPECT_EQ(e.offcore().writes()[0].data, 8u);  // bit 3 forced high
}

TEST(IssFault, StuckAt0OnUnusedBitIsSilent) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 1);
  a.st(Reg::o0, Reg::l0, 0);
  a.halt();
  Program p = a.finalize();

  Memory mem;
  Emulator e(mem);
  e.load(p);
  IssFault f;
  f.phys_reg = isa::phys_reg_index(8, 0);
  f.bit = 7;  // value 1 never uses bit 7
  f.model = IssFaultModel::kStuckAt0;
  e.arm_fault(f);
  e.run();
  EXPECT_EQ(e.offcore().writes()[0].data, 1u);
}

TEST(IssFault, BitFlipIsTransient) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.mov(Reg::o0, 0);
  a.st(Reg::o0, Reg::l0, 0);   // first store sees the flip
  a.mov(Reg::o0, 0);           // overwrite clears the flipped bit
  a.st(Reg::o0, Reg::l0, 4);
  a.halt();
  Program p = a.finalize();

  Memory mem;
  Emulator e(mem);
  e.load(p);
  IssFault f;
  f.phys_reg = isa::phys_reg_index(8, 0);
  f.bit = 0;
  f.model = IssFaultModel::kBitFlip;
  f.inject_at_instr = 2;  // visible before the first store executes
  e.arm_fault(f);
  e.run();
  const auto& w = e.offcore().writes();
  ASSERT_EQ(w.size(), 2u);
  EXPECT_EQ(w[0].data, 1u);  // flipped
  EXPECT_EQ(w[1].data, 0u);  // rewritten value is clean again
}

TEST(IssFault, OneFaultArmedAtATime) {
  Assembler a("t");
  const u32 buf = a.data_zero(8);
  a.set32(Reg::l0, buf);
  a.clr(Reg::o0);
  a.st(Reg::o0, Reg::l0, 0);
  a.halt();
  Program p = a.finalize();

  Memory mem;
  Emulator e(mem);
  e.load(p);
  IssFault sa1;
  sa1.phys_reg = isa::phys_reg_index(8, 0);  // %o0 in window 0
  sa1.bit = 3;
  sa1.model = IssFaultModel::kStuckAt1;
  IssFault flip = sa1;
  flip.model = IssFaultModel::kBitFlip;
  flip.inject_at_instr = 2;  // after the clr, before the store
  e.arm_fault(sa1);
  EXPECT_THROW(e.arm_fault(sa1), std::logic_error);
  EXPECT_THROW(e.arm_fault(flip), std::logic_error);
  // clear_faults() disarms: the run is fault-free.
  e.clear_faults();
  e.run();
  ASSERT_EQ(e.offcore().writes().size(), 1u);
  EXPECT_EQ(e.offcore().writes()[0].data, 0u);

  // A bit-flip that has flipped leaves nothing armed.
  e.reset(p.entry);
  e.arm_fault(flip);
  EXPECT_THROW(e.arm_fault(sa1), std::logic_error);
  e.run();
  EXPECT_EQ(e.offcore().writes().back().data, 8u);  // bit 3 flipped

  // Out-of-range sites are rejected and arm nothing.
  IssFault bad = sa1;
  bad.phys_reg = ArchState::kPhysRegs;
  EXPECT_THROW(e.arm_fault(bad), std::out_of_range);
  bad = sa1;
  bad.bit = 32;
  EXPECT_THROW(e.arm_fault(bad), std::out_of_range);
  e.reset(p.entry);
  e.arm_fault(sa1);  // no clear_faults() needed after the flip
  e.run();
  ASSERT_EQ(e.offcore().writes().size(), 1u);
  EXPECT_EQ(e.offcore().writes()[0].data, 8u);  // bit 3 forced high
}

// isa::reg_use's source set is complete: a register outside it cannot
// change what the instruction does. Register AVF and the ISS campaign's
// activation pre-screen both rest on this. On every registry workload's
// golden run, at a stride of retired instructions, each physical register
// outside the source set in turn gets one bit flipped before the step
// (bit chosen by a stride too), and the step must do exactly what it does
// on the golden state: every other register, icc, y, pc/npc, cwp, window
// depth, halt reason and the off-core writes.
TEST(RegUse, SourceSetIsComplete) {
  constexpr u64 kStride = 23;
  const OffCoreTrace no_trace;  // probes start with an empty bus history
  u64 probes = 0;
  for (const workloads::WorkloadInfo& info : workloads::registry()) {
    SCOPED_TRACE(info.name);
    const Program prog =
        workloads::build(info.name, {.iterations = 1, .data_seed = 1});
    Memory mem;
    Emulator emu(mem);
    emu.load(prog);
    Memory probe_mem;
    Emulator probe(probe_mem);
    // Baseline interpreter: one decode per probe step instead of a block
    // build (test_iss_fastpath holds both paths equal).
    probe.set_fast_path(false);
    for (u64 n = 0; emu.halt_reason() == HaltReason::kRunning; ++n) {
      if (n % kStride != 0) {
        emu.step();
        continue;
      }
      const EmuCheckpoint ck = emu.checkpoint();
      const Memory before = mem.clone();
      const isa::RegUse use = isa::reg_use(
          isa::decode(mem.load_u32(ck.state.pc)), ck.state.cwp);
      const std::size_t prior = emu.offcore().writes().size();
      emu.step();
      const std::vector<BusRecord> written(
          emu.offcore().writes().begin() + static_cast<std::ptrdiff_t>(prior),
          emu.offcore().writes().end());
      const ArchState& want = emu.state();
      for (unsigned r = 1; r < ArchState::kPhysRegs; ++r) {
        if (std::find(use.src.begin(), use.src.begin() + use.nsrc, r) !=
            use.src.begin() + use.nsrc) {
          continue;
        }
        IssFault flip;
        flip.phys_reg = r;
        flip.bit = static_cast<unsigned>((n / kStride + r) % 32);
        flip.model = IssFaultModel::kBitFlip;
        flip.inject_at_instr = ck.instret;
        probe_mem = before.clone();
        probe.restore(ck, no_trace);
        probe.clear_faults();
        probe.arm_fault(flip);
        probe.step();
        ++probes;
        // The flipped register itself may keep its flip.
        ArchState expect = want;
        expect.regs[r] = probe.state().regs[r];
        const std::vector<BusRecord>& got = probe.offcore().writes();
        const bool same_writes =
            got.size() == written.size() &&
            std::equal(got.begin(), got.end(), written.begin(),
                       [](const BusRecord& x, const BusRecord& y) {
                         return x.same_payload(y);
                       });
        ASSERT_TRUE(probe.state() == expect &&
                    probe.halt_reason() == emu.halt_reason() && same_writes)
            << "instruction " << n << " pc " << ck.state.pc << " reg " << r
            << " bit " << flip.bit;
      }
    }
    ASSERT_EQ(emu.halt_reason(), HaltReason::kHalted);
  }
  EXPECT_GT(probes, 100'000u);
}

}  // namespace
}  // namespace issrtl::iss
