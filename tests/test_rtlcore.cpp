// RTL core correctness: the pipelined Leon3-like core must be architecturally
// equivalent to the functional emulator — same halt reason, same final
// architectural state, same off-core write sequence — on directed programs,
// on every workload, and on randomized instruction mixes (cosimulation
// property test).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "isa/assembler.hpp"
#include "isa/disasm.hpp"
#include "iss/emulator.hpp"
#include "rtlcore/core.hpp"
#include "workloads/workload.hpp"

namespace issrtl::rtlcore {
namespace {

using isa::Assembler;
using isa::Program;
using isa::Reg;
using iss::Emulator;
using iss::HaltReason;

struct CosimResult {
  HaltReason iss_halt, rtl_halt;
  iss::ArchState iss_state, rtl_state;
  TraceDivergence write_diff;
  u64 iss_instret = 0, rtl_instret = 0;
  u64 rtl_cycles = 0;
};

CosimResult cosim(const Program& prog, u64 max_steps = 2'000'000) {
  CosimResult r;
  Memory iss_mem;
  Emulator emu(iss_mem);
  emu.load(prog);
  r.iss_halt = emu.run(max_steps);
  r.iss_state = emu.state();
  r.iss_instret = emu.instret();

  Memory rtl_mem;
  Leon3Core core(rtl_mem);
  core.load(prog);
  r.rtl_halt = core.run(max_steps * 8);
  r.rtl_state = core.arch_state();
  r.rtl_instret = core.instret();
  r.rtl_cycles = core.cycles();

  r.write_diff = core.offcore().compare_writes(emu.offcore());
  return r;
}

void expect_equivalent(const CosimResult& r, bool check_pc = true) {
  EXPECT_EQ(r.iss_halt, r.rtl_halt);
  EXPECT_FALSE(r.write_diff.diverged) << r.write_diff.detail;
  EXPECT_EQ(r.iss_state.regs, r.rtl_state.regs);
  EXPECT_EQ(r.iss_state.cwp, r.rtl_state.cwp);
  EXPECT_EQ(r.iss_state.icc.nzvc, r.rtl_state.icc.nzvc);
  EXPECT_EQ(r.iss_state.y, r.rtl_state.y);
  if (check_pc && r.iss_halt == HaltReason::kHalted) {
    EXPECT_EQ(r.iss_state.pc, r.rtl_state.pc);
  }
}

Program assemble(void (*body)(Assembler&)) {
  Assembler a("t");
  body(a);
  return a.finalize();
}

// ---- directed cosim tests -------------------------------------------------------

TEST(RtlCore, HaltsOnTa0) {
  const auto r = cosim(assemble([](Assembler& a) { a.halt(); }));
  EXPECT_EQ(r.rtl_halt, HaltReason::kHalted);
  expect_equivalent(r);
}

TEST(RtlCore, StraightLineArithmetic) {
  const auto r = cosim(assemble([](Assembler& a) {
    a.mov(Reg::o0, 40);
    a.add(Reg::o0, Reg::o0, 2);
    a.sub(Reg::o1, Reg::o0, 10);
    a.sll(Reg::o2, Reg::o0, 3);
    a.xor_(Reg::o3, Reg::o1, Reg::o2);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(8), 42u);
}

TEST(RtlCore, BackToBackDependencies) {
  // Exercises the scoreboard: every instruction depends on the previous one.
  const auto r = cosim(assemble([](Assembler& a) {
    a.mov(Reg::o0, 1);
    for (int i = 0; i < 20; ++i) a.add(Reg::o0, Reg::o0, Reg::o0);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(8), 1u << 20);
}

TEST(RtlCore, FlagsAndConditionalBranches) {
  const auto r = cosim(assemble([](Assembler& a) {
    auto less = a.label();
    a.mov(Reg::o0, 3);
    a.cmp(Reg::o0, 5);
    a.bl(less);
    a.mov(Reg::o1, 111);   // delay slot
    a.mov(Reg::o2, 222);   // skipped
    a.bind(less);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(9), 111u);
  EXPECT_EQ(r.rtl_state.get_reg(10), 0u);
}

TEST(RtlCore, LoopWithTakenBackwardBranch) {
  const auto r = cosim(assemble([](Assembler& a) {
    a.mov(Reg::o0, 0);
    a.mov(Reg::o1, 50);
    auto loop = a.here();
    a.add(Reg::o0, Reg::o0, Reg::o1);
    a.subcc(Reg::o1, Reg::o1, 1);
    a.bne(loop);
    a.nop();
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(8), 50u * 51 / 2);
}

TEST(RtlCore, AnnulledDelaySlots) {
  const auto r = cosim(assemble([](Assembler& a) {
    auto t1 = a.label(), t2 = a.label();
    a.cmp(Reg::g0, 0);
    a.bne(t1, true);       // not taken, annul: delay slot squashed
    a.mov(Reg::o0, 99);
    a.bind(t1);
    a.be(t2, true);        // taken with annul: delay slot executes
    a.mov(Reg::o1, 55);
    a.mov(Reg::o1, 77);    // skipped
    a.bind(t2);
    a.ba(t2, true);        // ba,a: delay slot squashed... careful: infinite
    a.nop();
    a.halt();
  }));
  // ba,a to its own label loops forever — both must hit the step limit the
  // same way. (This also exercises watchdog parity.)
  EXPECT_EQ(r.iss_halt, HaltReason::kStepLimit);
  EXPECT_EQ(r.rtl_halt, HaltReason::kStepLimit);
}

TEST(RtlCore, BaAnnulSkipsDelaySlot) {
  const auto r = cosim(assemble([](Assembler& a) {
    auto t = a.label();
    a.ba(t, true);
    a.mov(Reg::o0, 99);    // must never execute
    a.bind(t);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(8), 0u);
}

TEST(RtlCore, CallRetlAndWindows) {
  const auto r = cosim(assemble([](Assembler& a) {
    auto fn = a.label();
    a.mov(Reg::o0, 5);
    a.call(fn);
    a.nop();
    a.add(Reg::o2, Reg::o0, 100);
    a.halt();
    a.bind(fn);
    a.save(Reg::o6, Reg::o6, -96);
    a.add(Reg::l0, Reg::i0, 37);
    a.ret();
    a.restore(Reg::o0, Reg::l0, Reg::g0);
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(10), 142u);
}

TEST(RtlCore, LoadStoreAllWidths) {
  const auto r = cosim(assemble([](Assembler& a) {
    const u32 buf = a.data_zero(32);
    a.set32(Reg::l0, buf);
    a.set32(Reg::o0, 0x11223344);
    a.st(Reg::o0, Reg::l0, 0);
    a.ld(Reg::o1, Reg::l0, 0);
    a.ldub(Reg::o2, Reg::l0, 1);
    a.ldsb(Reg::o3, Reg::l0, 0);
    a.lduh(Reg::o4, Reg::l0, 2);
    a.ldsh(Reg::o5, Reg::l0, 0);
    a.sth(Reg::o0, Reg::l0, 8);
    a.stb(Reg::o0, Reg::l0, 12);
    a.set32(Reg::o0, 0xAABBCCDD);
    a.set32(Reg::o1, 0x55667788);
    a.std_(Reg::o0, Reg::l0, 16);
    a.ldd(Reg::o2, Reg::l0, 16);
    a.ldstub(Reg::o4, Reg::l0, 24);
    a.set32(Reg::o5, 0x12341234);
    a.swap(Reg::o5, Reg::l0, 28);
    a.halt();
  }));
  expect_equivalent(r);
}

TEST(RtlCore, MulDivAndY) {
  const auto r = cosim(assemble([](Assembler& a) {
    a.set32(Reg::o0, 0x12345);
    a.set32(Reg::o1, 0x6789);
    a.umul(Reg::o2, Reg::o0, Reg::o1);
    a.rdy(Reg::o3);
    a.smul(Reg::o4, Reg::o0, Reg::o1);
    a.wry(Reg::g0, 0);
    a.udiv(Reg::o5, Reg::o0, Reg::o1);
    a.set32(Reg::l1, 0xFFFF9C00);  // negative
    a.wry(Reg::l2, -1);            // hmm: l2 is zero, y = 0 ^ -1
    a.sdiv(Reg::l0, Reg::l1, Reg::o1);
    a.mulscc(Reg::l3, Reg::o0, Reg::o1);
    a.halt();
  }));
  expect_equivalent(r);
}

TEST(RtlCore, DivisionByZeroTrap) {
  const auto r = cosim(assemble([](Assembler& a) {
    a.mov(Reg::o0, 5);
    a.udiv(Reg::o1, Reg::o0, Reg::g0);
    a.halt();
  }));
  EXPECT_EQ(r.rtl_halt, HaltReason::kDivisionByZero);
  expect_equivalent(r, false);
}

TEST(RtlCore, MisalignedAccessTrap) {
  const auto r = cosim(assemble([](Assembler& a) {
    const u32 buf = a.data_zero(8);
    a.set32(Reg::l0, buf);
    a.ld(Reg::o0, Reg::l0, 2);
    a.halt();
  }));
  EXPECT_EQ(r.rtl_halt, HaltReason::kMisalignedAccess);
}

TEST(RtlCore, IllegalInstructionTrap) {
  const auto r = cosim(assemble([](Assembler& a) {
    a.emit(0xFFFFFFFF);
    a.halt();
  }));
  EXPECT_EQ(r.rtl_halt, HaltReason::kIllegalInstruction);
}

TEST(RtlCore, SoftTrapCodePropagates) {
  Memory mem;
  Leon3Core core(mem);
  Assembler a("t");
  a.ta(7);
  core.load(a.finalize());
  EXPECT_EQ(core.run(), HaltReason::kTrap);
  EXPECT_EQ(core.trap_code(), 7);
}

TEST(RtlCore, YoungerStoreAfterTrapDoesNotCommit) {
  // A store fetched after `ta 0` must never reach the bus.
  const auto r = cosim(assemble([](Assembler& a) {
    const u32 buf = a.data_zero(8);
    a.set32(Reg::l0, buf);
    a.mov(Reg::o0, 1);
    a.st(Reg::o0, Reg::l0, 0);
    a.halt();
    a.st(Reg::o0, Reg::l0, 4);  // must not execute
  }));
  expect_equivalent(r);
}

TEST(RtlCore, WindowOverflowTrap) {
  const auto r = cosim(assemble([](Assembler& a) {
    for (unsigned i = 0; i < isa::kNumWindows; ++i)
      a.save(Reg::o6, Reg::o6, -96);
    a.halt();
  }));
  EXPECT_EQ(r.rtl_halt, HaltReason::kWindowOverflow);
  EXPECT_EQ(r.iss_halt, r.rtl_halt);
}

TEST(RtlCore, StoreDataHazard) {
  // Store data register written by the immediately preceding instruction.
  const auto r = cosim(assemble([](Assembler& a) {
    const u32 buf = a.data_zero(8);
    a.set32(Reg::l0, buf);
    a.mov(Reg::o0, 0x55);
    a.st(Reg::o0, Reg::l0, 0);
    a.ld(Reg::o1, Reg::l0, 0);
    a.add(Reg::o2, Reg::o1, 1);   // load-use
    a.st(Reg::o2, Reg::l0, 4);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(10), 0x56u);
}

TEST(RtlCore, CtiResolutionDuringIcacheMiss) {
  // Branch target far away forces an I-cache miss right after redirect.
  const auto r = cosim(assemble([](Assembler& a) {
    auto far = a.label();
    a.mov(Reg::o0, 1);
    a.ba(far);
    a.mov(Reg::o1, 2);
    for (int i = 0; i < 600; ++i) a.mov(Reg::o2, 3);  // pushes target far away
    a.bind(far);
    a.add(Reg::o3, Reg::o0, Reg::o1);
    a.halt();
  }));
  expect_equivalent(r);
  EXPECT_EQ(r.rtl_state.get_reg(11), 3u);
}

TEST(RtlCore, PipelineOverlapIsReal) {
  // CPI must be well below the 7x a completely serialised design would give.
  Assembler a("t");
  a.mov(Reg::o0, 0);
  a.mov(Reg::o1, 0);
  for (int i = 0; i < 200; ++i) {
    a.add(Reg::o0, Reg::o0, 1);   // independent streams
    a.add(Reg::o1, Reg::o1, 2);
    a.xor_(Reg::o2, Reg::g0, 3);
    a.or_(Reg::o3, Reg::g0, 4);
  }
  a.halt();
  Memory mem;
  Leon3Core core(mem);
  core.load(a.finalize());
  ASSERT_EQ(core.run(), HaltReason::kHalted);
  const double cpi =
      static_cast<double>(core.cycles()) / static_cast<double>(core.instret());
  EXPECT_LT(cpi, 2.5);
  EXPECT_GE(cpi, 1.0);
}

// ---- full workloads ---------------------------------------------------------------

class WorkloadCosim : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadCosim, RtlMatchesIss) {
  // Keep runtimes reasonable: single iteration.
  const auto prog =
      workloads::build(GetParam(), {.iterations = 1, .data_seed = 3});
  const auto r = cosim(prog, 10'000'000);
  EXPECT_EQ(r.iss_halt, HaltReason::kHalted);
  expect_equivalent(r);
  EXPECT_EQ(r.iss_instret, r.rtl_instret);
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, WorkloadCosim,
    ::testing::Values("puwmod", "canrdr", "ttsprk", "rspeed", "membench",
                      "intbench", "a2time", "tblook", "basefp", "bitmnp",
                      "a2time_x", "rspeed_x"),
    [](const auto& info) { return info.param; });

// ---- randomized cosimulation property ------------------------------------------------

/// Generate a random but well-formed straight-line program: ALU ops over
/// initialised registers, loads/stores into a private buffer, guarded
/// branches forward, ending in a halt.
Program random_program(u64 seed) {
  Xoshiro256 rng(seed);
  Assembler a("rand");
  const u32 buf = a.data_zero(256);
  a.set32(Reg::l7, buf);
  // Seed a few registers with random values.
  const Reg pool[] = {Reg::o0, Reg::o1, Reg::o2, Reg::o3, Reg::o4,
                      Reg::l0, Reg::l1, Reg::l2, Reg::l3, Reg::l4};
  for (const Reg r : pool) a.set32(r, rng.next_u32());

  auto rnd_reg = [&] { return pool[rng.next_below(std::size(pool))]; };

  const int n = 60 + static_cast<int>(rng.next_below(120));
  for (int i = 0; i < n; ++i) {
    switch (rng.next_below(12)) {
      case 0: a.add(rnd_reg(), rnd_reg(), rnd_reg()); break;
      case 1: a.subcc(rnd_reg(), rnd_reg(), rnd_reg()); break;
      case 2: a.xor_(rnd_reg(), rnd_reg(),
                     static_cast<i32>(rng.next_below(8192)) - 4096); break;
      case 3: a.and_(rnd_reg(), rnd_reg(), rnd_reg()); break;
      case 4: a.sll(rnd_reg(), rnd_reg(),
                    static_cast<i32>(rng.next_below(32))); break;
      case 5: a.sra(rnd_reg(), rnd_reg(),
                    static_cast<i32>(rng.next_below(32))); break;
      case 6: a.umul(rnd_reg(), rnd_reg(), rnd_reg()); break;
      case 7: a.addxcc(rnd_reg(), rnd_reg(), rnd_reg()); break;
      case 8:
        a.st(rnd_reg(), Reg::l7, static_cast<i32>(rng.next_below(60)) * 4);
        break;
      case 9:
        a.ld(rnd_reg(), Reg::l7, static_cast<i32>(rng.next_below(60)) * 4);
        break;
      case 10: {
        // Guarded short forward branch (both paths converge).
        auto t = a.label();
        a.cmp(rnd_reg(), rnd_reg());
        const u8 cond = 1 + static_cast<u8>(rng.next_below(15));
        a.bicc(isa::branch_from_cond(cond), t, rng.next_below(2) != 0);
        a.add(rnd_reg(), rnd_reg(), 1);  // delay slot (maybe annulled)
        a.bind(t);
        break;
      }
      default: a.ldub(rnd_reg(), Reg::l7,
                      static_cast<i32>(rng.next_below(250))); break;
    }
  }
  // Report some state so differences show up off-core.
  for (unsigned i = 0; i < std::size(pool); ++i) {
    a.st(pool[i], Reg::l7, static_cast<i32>(240));
  }
  a.halt();
  return a.finalize();
}

class RandomCosim : public ::testing::TestWithParam<int> {};

TEST_P(RandomCosim, RtlMatchesIssOnRandomProgram) {
  const auto prog = random_program(0xC0FFEE + GetParam() * 7919);
  const auto r = cosim(prog);
  EXPECT_EQ(r.iss_halt, HaltReason::kHalted) << "seed " << GetParam();
  expect_equivalent(r);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCosim, ::testing::Range(0, 25));

// The read port records each value it returns under the entry the address
// decoder actually selects, an out-of-range index included.
TEST(RegFile, ReadPortRecordsUnderTheEntryItReads) {
  rtl::SimContext ctx;
  RegFile rf(ctx);
  rf.poke_phys(5, 0x81);
  rf.poke_phys(6, 0x42);
  rtl::ReadProbe reads = rf.read_probe();
  ASSERT_EQ(reads.seen.size(), RegFile::iss_phys_count());
  const auto entry = [&](unsigned global) {
    return *ctx.find_node("r_g" + std::to_string(global));
  };
  rf.record_reads(&reads);
  EXPECT_EQ(rf.read_phys(RegFile::iss_phys_count() + 5), 0x81u);
  const rtl::BitsSeen g5 = reads.take(entry(5));
  EXPECT_EQ(g5.ones, 0x81u);
  EXPECT_EQ(g5.zeros, ~0x81u);
  EXPECT_EQ(rf.read(0, 0), 0u) << "%g0 is not an entry read";
  const rtl::BitsSeen g0 = reads.take(entry(0));
  EXPECT_EQ(g0.ones | g0.zeros, 0u);
  rf.record_reads(nullptr);
  EXPECT_EQ(rf.read_phys(6), 0x42u);
  const rtl::BitsSeen g6 = reads.take(entry(6));
  EXPECT_EQ(g6.ones | g6.zeros, 0u) << "recorded after the stop";
}

// Each array read port records the value it returns under the node it
// reads: valid on every lookup, tag only behind a set valid bit, the data
// word a hit or refill returns and the word a 1- or 2-byte store merges
// into. Line fills and full-word stores only write, and record nothing.
TEST(Cache, ReadPortsRecordUnderTheNodeTheyRead) {
  rtl::SimContext ctx;
  Memory mem;
  OffCoreTrace bus;
  Cache cache(ctx, "cmem.dcache", CacheConfig{}, mem, bus);
  // Line 0 of the default 1 KiB, 16-byte-line cache, tag 4.
  constexpr u32 kLine = 0x1000;
  constexpr u32 kTag = kLine / 16 / 64;
  constexpr u32 kTagMask = (1u << 22) - 1;  // 32 - 4 offset - 6 index bits
  const u32 words[] = {0x12345678, 0x9abcdef0, 0x0f0f0f0f, 0xa5a5a5a5};
  for (u32 w = 0; w < 4; ++w) mem.store_u32(kLine + 4 * w, words[w]);
  rtl::ReadProbe reads = cache.read_probe();
  const auto take = [&](const std::string& name) {
    return reads.take(*ctx.find_node(name));
  };
  const auto nothing = [&](const std::string& name) {
    const rtl::BitsSeen seen = take(name);
    return (seen.ones | seen.zeros) == 0;
  };
  cache.record_reads(&reads);

  // Miss: valid reads 0 (masked to its one bit), the tag is not read.
  u32 out = 0;
  ASSERT_FALSE(cache.step_load(kLine, out));
  rtl::BitsSeen seen = take("valid0");
  EXPECT_EQ(seen.ones, 0u);
  EXPECT_EQ(seen.zeros, 1u);
  EXPECT_TRUE(nothing("tag0"));
  // The refill writes the line and returns the requested word.
  do {
    ctx.commit_all();  // the clock edge between the cycles of the refill
  } while (!cache.step_load(kLine, out));
  ctx.commit_all();
  EXPECT_EQ(out, words[0]);
  seen = take("data0");
  EXPECT_EQ(seen.ones, words[0]);
  EXPECT_EQ(seen.zeros, ~words[0]);
  for (const char* name : {"valid0", "tag0", "data1", "data2", "data3"}) {
    EXPECT_TRUE(nothing(name)) << name << " recorded by the line fill";
  }

  // Hit: valid, the tag (masked to its width) and the word.
  ASSERT_TRUE(cache.step_load(kLine + 4, out));
  EXPECT_EQ(out, words[1]);
  seen = take("valid0");
  EXPECT_EQ(seen.ones, 1u);
  EXPECT_EQ(seen.zeros, 0u);
  seen = take("tag0");
  EXPECT_EQ(seen.ones, kTag);
  EXPECT_EQ(seen.zeros, ~kTag & kTagMask);
  EXPECT_EQ(take("data1").ones, words[1]);

  // A full-word store looks the line up but does not read the word.
  cache.store(0, kLine + 8, 4, 0x11111111);
  EXPECT_EQ(take("tag0").ones, kTag);
  EXPECT_TRUE(nothing("data2")) << "4-byte store";
  // 1- and 2-byte stores read the word they merge into.
  cache.store(0, kLine + 12, 2, 0xbeef);
  EXPECT_EQ(take("data3").ones, words[3]);
  cache.store(0, kLine + 1, 1, 0x55);
  EXPECT_EQ(take("data0").ones, words[0]);
  ASSERT_TRUE(cache.step_load(kLine, out));
  EXPECT_EQ(out, 0x12555678u) << "byte merged into lane 1";
  for (const char* name : {"valid0", "tag0", "data0"}) take(name);

  cache.record_reads(nullptr);
  ASSERT_TRUE(cache.step_load(kLine + 12, out));
  EXPECT_EQ(out, 0xbeefa5a5u);
  for (const char* name : {"valid0", "tag0", "data3"}) {
    EXPECT_TRUE(nothing(name)) << name << " recorded after the stop";
  }
}

}  // namespace
}  // namespace issrtl::rtlcore
