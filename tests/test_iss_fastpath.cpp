// Differential fuzz harness for the ISS fast path (dbbcache + lscache).
//
// The fast path must be architecturally invisible: every observable —
// registers, PC/nPC, condition codes, windows, halt reasons, trap codes,
// bus traces, memory images — is required to be bit-identical to the
// baseline decode-per-instruction interpreter, which is kept selectable
// (Emulator::set_fast_path(false)) exactly so it can serve as the reference
// here. Three layers of evidence:
//
//   1. per-instruction lockstep over every registry workload and a corpus
//      of seeded random programs (step() path);
//   2. chunked advance() lockstep with deliberately block-misaligned chunk
//      sizes (the run_loop block-walk fast loop, compared mid-flight),
//      fault-free and with one armed register-file fault of every model;
//   3. full ISS campaigns (always on the fast path) whose result
//      fingerprint is pinned across ladder strides x threads {1, 3} and
//      must survive a journal resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "engine/iss_backend.hpp"
#include "isa/assembler.hpp"
#include "isa/encode.hpp"
#include "isa/registers.hpp"
#include "iss/emulator.hpp"
#include "workloads/workload.hpp"

namespace issrtl::iss {
namespace {

namespace fs = std::filesystem;

using isa::Assembler;
using isa::Program;
using isa::Reg;

// ---- lockstep comparison ----------------------------------------------------

void expect_states_equal(const Emulator& fast, const Emulator& ref,
                         const std::string& tag, u64 at) {
  const ArchState& a = fast.state();
  const ArchState& b = ref.state();
  ASSERT_EQ(a.pc, b.pc) << tag << " @" << at;
  ASSERT_EQ(a.npc, b.npc) << tag << " @" << at;
  ASSERT_EQ(a.icc.nzvc, b.icc.nzvc) << tag << " @" << at;
  ASSERT_EQ(a.y, b.y) << tag << " @" << at;
  ASSERT_EQ(a.cwp, b.cwp) << tag << " @" << at;
  ASSERT_EQ(a.window_depth, b.window_depth) << tag << " @" << at;
  for (unsigned r = 0; r < ArchState::kPhysRegs; ++r) {
    ASSERT_EQ(a.regs[r], b.regs[r]) << tag << " @" << at << " phys r" << r;
  }
  ASSERT_EQ(fast.instret(), ref.instret()) << tag << " @" << at;
  ASSERT_EQ(fast.halt_reason(), ref.halt_reason()) << tag << " @" << at;
  ASSERT_EQ(fast.trap_code(), ref.trap_code()) << tag << " @" << at;
  const auto& wa = fast.offcore().writes();
  const auto& wb = ref.offcore().writes();
  ASSERT_EQ(wa.size(), wb.size()) << tag << " @" << at;
  if (!wa.empty()) {
    ASSERT_EQ(wa.back().addr, wb.back().addr) << tag << " @" << at;
    ASSERT_EQ(wa.back().size, wb.back().size) << tag << " @" << at;
    ASSERT_EQ(wa.back().data, wb.back().data) << tag << " @" << at;
  }
}

/// Step both interpreters one instruction at a time, comparing the full
/// architectural state after every retirement.
void lockstep_per_instruction(const Program& p, const std::string& tag,
                              u64 max_steps = 400000) {
  Memory mem_fast, mem_ref;
  Emulator fast(mem_fast), ref(mem_ref);
  fast.set_fast_path(true);
  ref.set_fast_path(false);
  fast.load(p);
  ref.load(p);
  for (u64 i = 0; i < max_steps; ++i) {
    const HaltReason hf = fast.step();
    const HaltReason hr = ref.step();
    ASSERT_EQ(hf, hr) << tag << " diverged at step " << i;
    expect_states_equal(fast, ref, tag, i);
    if (::testing::Test::HasFatalFailure()) return;
    if (hf != HaltReason::kRunning) break;
  }
  EXPECT_NE(fast.halt_reason(), HaltReason::kRunning)
      << tag << ": did not terminate within " << max_steps << " steps";
  EXPECT_TRUE(mem_fast.equals(mem_ref)) << tag << ": final memory differs";
}

/// Advance both interpreters in fixed-size chunks, comparing at each chunk
/// boundary. Unlike step(), advance() takes the block-walk fast loop, and a
/// chunk size that is coprime with typical block lengths lands the budget
/// expiry mid-block — the fast loop must stop on an exact instruction count,
/// not a block boundary.
void lockstep_chunked(const Program& p, const std::string& tag, u64 chunk,
                      u64 max_steps = 400000) {
  Memory mem_fast, mem_ref;
  Emulator fast(mem_fast), ref(mem_ref);
  fast.set_fast_path(true);
  ref.set_fast_path(false);
  fast.load(p);
  ref.load(p);
  for (u64 done = 0; done < max_steps; done += chunk) {
    fast.advance(chunk);
    ref.advance(chunk);
    expect_states_equal(fast, ref, tag, done);
    if (::testing::Test::HasFatalFailure()) return;
    if (fast.halt_reason() != HaltReason::kRunning) break;
  }
  EXPECT_NE(fast.halt_reason(), HaltReason::kRunning)
      << tag << ": did not terminate within " << max_steps << " steps";
  EXPECT_TRUE(mem_fast.equals(mem_ref)) << tag << ": final memory differs";
}

/// The armed-fault variant: the fast interpreter advance()s in chunks on
/// the block walk, which enforces the fault as a register mask; the
/// reference steps the baseline interpreter one instruction at a time with
/// the same fault armed. A faulty run may loop, so termination is not
/// required. Returns true when the run left the golden write trace or did
/// not halt cleanly.
bool lockstep_faulted(const Program& p, const IssFault& fault,
                      const OffCoreTrace& golden, const std::string& tag,
                      u64 chunk, u64 max_steps) {
  Memory mem_fast, mem_ref;
  Emulator fast(mem_fast), ref(mem_ref);
  fast.set_fast_path(true);
  ref.set_fast_path(false);
  fast.load(p);
  ref.load(p);
  fast.arm_fault(fault);
  ref.arm_fault(fault);
  for (u64 done = 0; done < max_steps; done += chunk) {
    fast.advance(chunk);
    for (u64 i = 0; i < chunk && ref.step() == HaltReason::kRunning; ++i) {
    }
    expect_states_equal(fast, ref, tag, done);
    if (::testing::Test::HasFatalFailure()) return false;
    if (fast.halt_reason() != HaltReason::kRunning) break;
  }
  EXPECT_TRUE(mem_fast.equals(mem_ref)) << tag << ": final memory differs";
  return fast.halt_reason() != HaltReason::kHalted ||
         fast.offcore().compare_writes(golden).diverged;
}

// ---- random program generator ----------------------------------------------

/// Seeded random SPARC program: arithmetic/logic/shift/mul/div over a small
/// register pool, aligned loads/stores into a scratch buffer, Y-register
/// traffic, condition codes, forward branches with live delay slots, and
/// occasional save/restore pairs. Forward-only control flow guarantees
/// termination; whatever a program does — including trapping on a random
/// division by zero or running off into zero-filled memory and halting on
/// an illegal encoding — both interpreters must do identically.
Program random_program(u64 seed, unsigned length) {
  std::mt19937_64 rng(seed);
  const auto pick = [&](u64 n) { return static_cast<u32>(rng() % n); };
  Assembler a("fuzz_" + std::to_string(seed));
  const u32 buf = a.data_zero(256);

  // Register pool. l0 is reserved as the scratch-buffer base so memory ops
  // always have a valid address; everything else is fair game.
  const Reg pool[] = {Reg::o0, Reg::o1, Reg::o2, Reg::o3, Reg::o4, Reg::o5,
                      Reg::l1, Reg::l2, Reg::l3, Reg::l4, Reg::l5, Reg::l6,
                      Reg::i0, Reg::i1, Reg::i2, Reg::i3, Reg::g1, Reg::g2,
                      Reg::g3, Reg::g4};
  const auto reg = [&] { return pool[pick(std::size(pool))]; };

  a.set32(Reg::l0, buf);
  for (const Reg r : {Reg::o0, Reg::o1, Reg::o2, Reg::l1, Reg::l2, Reg::i0,
                      Reg::g1, Reg::g2}) {
    a.set32(r, static_cast<u32>(rng()));
  }

  int window_depth = 0;
  for (unsigned i = 0; i < length; ++i) {
    switch (pick(24)) {
      case 0: a.add(reg(), reg(), reg()); break;
      case 1: a.sub(reg(), reg(), reg()); break;
      case 2: a.addcc(reg(), reg(), reg()); break;
      case 3: a.subcc(reg(), reg(), reg()); break;
      case 4: a.addx(reg(), reg(), reg()); break;
      case 5: a.and_(reg(), reg(), reg()); break;
      case 6: a.or_(reg(), reg(), reg()); break;
      case 7: a.xor_(reg(), reg(), reg()); break;
      case 8: a.andn(reg(), reg(), reg()); break;
      case 9: a.add(reg(), reg(), static_cast<i32>(pick(4096)) - 2048); break;
      case 10: a.sll(reg(), reg(), static_cast<i32>(pick(32))); break;
      case 11: a.srl(reg(), reg(), static_cast<i32>(pick(32))); break;
      case 12: a.sra(reg(), reg(), static_cast<i32>(pick(32))); break;
      case 13: a.umul(reg(), reg(), reg()); break;
      case 14: a.smul(reg(), reg(), reg()); break;
      case 15: a.mulscc(reg(), reg(), reg()); break;
      case 16:
        a.sethi(reg(), static_cast<u32>(rng()) & 0x3FFFFF);
        break;
      case 17: a.wry(reg(), static_cast<i32>(pick(4096)) - 2048); break;
      case 18: a.rdy(reg()); break;
      case 19: a.st(reg(), Reg::l0, static_cast<i32>(pick(56)) * 4); break;
      case 20: a.ld(reg(), Reg::l0, static_cast<i32>(pick(56)) * 4); break;
      case 21: a.stb(reg(), Reg::l0, static_cast<i32>(pick(224))); break;
      case 22: {
        // Forward conditional branch over 1–3 instructions; the delay slot
        // and the skipped range are whatever the generator emits next, so
        // annulment and partial-block entry both get exercised.
        static const isa::Opcode branches[] = {
            isa::Opcode::kBA,  isa::Opcode::kBNE,  isa::Opcode::kBE,
            isa::Opcode::kBL,  isa::Opcode::kBGE,  isa::Opcode::kBGU,
            isa::Opcode::kBCS, isa::Opcode::kBNEG, isa::Opcode::kBVS,
        };
        const i32 disp = 8 + static_cast<i32>(pick(3)) * 4;
        a.emit(isa::encode_branch(branches[pick(std::size(branches))],
                                  pick(2) != 0, disp));
        break;
      }
      case 23:
        if (pick(4) == 0 && window_depth < 3) {
          a.save(Reg::o6, Reg::o6, -96);
          ++window_depth;
        } else if (window_depth > 0) {
          a.restore(Reg::g0, Reg::g0, Reg::g0);
          --window_depth;
        } else {
          a.udiv(reg(), reg(), reg());  // may trap on zero — identically
        }
        break;
    }
  }
  // Padding so a trailing forward branch lands on real instructions, then
  // the halt both sides must reach.
  for (int i = 0; i < 4; ++i) a.nop();
  a.halt();
  return a.finalize();
}

// ---- differential tests -----------------------------------------------------

TEST(IssFastpathDifferential, WorkloadsPerInstructionLockstep) {
  for (const auto& w : workloads::registry()) {
    const auto prog =
        workloads::build(w.name, {.iterations = 1, .data_seed = 1});
    lockstep_per_instruction(prog, w.name);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IssFastpathDifferential, WorkloadsChunkedAdvanceLockstep) {
  // 7 and 61 are coprime with every block length the dbbcache can produce
  // (blocks are 1..64 instructions), so chunk boundaries keep landing
  // mid-block; 1 degenerates advance() into the per-step path.
  for (const auto& w : workloads::registry()) {
    const auto prog =
        workloads::build(w.name, {.iterations = 1, .data_seed = 1});
    for (const u64 chunk : {u64{7}, u64{61}}) {
      lockstep_chunked(prog, w.name + "/chunk" + std::to_string(chunk),
                       chunk);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(IssFastpathDifferential, ArmedFaultChunkedAdvanceLockstep) {
  // Every workload x every model x a few seeded sites. The register is
  // drawn from the window live at the instant, so most sites activate and
  // the masked walk runs on diverging state.
  constexpr unsigned kSitesPerModel = 3;
  unsigned sites = 0, diverged = 0;
  std::mt19937_64 rng(2024);
  for (const auto& w : workloads::registry()) {
    const auto prog =
        workloads::build(w.name, {.iterations = 1, .data_seed = 1});
    Memory golden_mem;
    Emulator golden(golden_mem);
    golden.load(prog);
    ASSERT_EQ(golden.run(), HaltReason::kHalted) << w.name;
    const u64 length = golden.instret();
    for (const IssFaultModel model :
         {IssFaultModel::kStuckAt0, IssFaultModel::kStuckAt1,
          IssFaultModel::kOpenLine, IssFaultModel::kBitFlip}) {
      for (unsigned k = 0; k < kSitesPerModel; ++k) {
        IssFault f;
        f.model = model;
        f.bit = static_cast<unsigned>(rng() % 32);
        f.inject_at_instr = rng() % length;
        Memory probe_mem;
        Emulator probe(probe_mem);
        probe.load(prog);
        probe.advance(f.inject_at_instr);
        f.phys_reg = isa::phys_reg_index(1 + static_cast<unsigned>(rng() % 31),
                                         probe.state().cwp);
        for (const u64 chunk : {u64{7}, u64{61}}) {
          const std::string tag =
              w.name + "/model" + std::to_string(static_cast<int>(model)) +
              "/r" + std::to_string(f.phys_reg) + "b" +
              std::to_string(f.bit) + "@" +
              std::to_string(f.inject_at_instr) + "/chunk" +
              std::to_string(chunk);
          const bool left_golden = lockstep_faulted(
              prog, f, golden.offcore(), tag, chunk, 2 * length + 1000);
          if (::testing::Test::HasFatalFailure()) return;
          ++sites;
          diverged += left_golden ? 1 : 0;
        }
      }
    }
  }
  // Not vacuous: a share of the faulty runs must fail.
  EXPECT_GT(diverged, sites / 10) << diverged << " of " << sites;
}

TEST(IssFastpathDifferential, RandomProgramsPerInstructionLockstep) {
  for (u64 seed = 1; seed <= 24; ++seed) {
    const auto prog = random_program(seed, 200);
    lockstep_per_instruction(prog, "fuzz seed " + std::to_string(seed));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IssFastpathDifferential, RandomProgramsChunkedAdvanceLockstep) {
  for (u64 seed = 25; seed <= 40; ++seed) {
    const auto prog = random_program(seed, 200);
    lockstep_chunked(prog, "fuzz seed " + std::to_string(seed), 7);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(IssFastpathDifferential, RunMatchesBaselineEndState) {
  // run() (watchdog-armed fast loop) end-state equivalence, including the
  // instruction trace the diversity metric feeds on.
  for (const char* name : {"rspeed", "a2time_x", "membench"}) {
    const auto prog = workloads::build(name, {.iterations = 2, .data_seed = 1});
    Memory mem_fast, mem_ref;
    Emulator fast(mem_fast), ref(mem_ref);
    fast.set_fast_path(true);
    ref.set_fast_path(false);
    fast.load(prog);
    ref.load(prog);
    fast.run();
    ref.run();
    expect_states_equal(fast, ref, name, fast.instret());
    EXPECT_EQ(fast.trace().total(), ref.trace().total()) << name;
    EXPECT_EQ(fast.trace().diversity(), ref.trace().diversity()) << name;
    EXPECT_EQ(fast.trace().memory_total(), ref.trace().memory_total()) << name;
    EXPECT_TRUE(mem_fast.equals(mem_ref)) << name;
  }
}

// ---- campaign-level invariance ----------------------------------------------

/// Order-sensitive fingerprint over everything a campaign records per run
/// (the ISS analogue of fault::outcome_hash).
u64 iss_fingerprint(const fault::IssCampaignResult& r) {
  u64 h = 0x243F6A8885A308D3ull ^ r.golden_instret;
  const auto mix = [&h](u64 v) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  };
  mix(r.runs.size());
  for (const auto& run : r.runs) {
    mix(run.fault.phys_reg);
    mix(run.fault.bit);
    mix(static_cast<u64>(run.fault.model));
    mix(run.fault.inject_at_instr);
    mix(static_cast<u64>(run.failure));
    mix(static_cast<u64>(run.latent));
    mix(static_cast<u64>(run.engine_error));
    mix(run.latency_instr);
  }
  return h;
}

fault::IssCampaignConfig fuzz_campaign_cfg() {
  fault::IssCampaignConfig cfg;
  cfg.samples = 48;
  cfg.models = {IssFaultModel::kStuckAt1, IssFaultModel::kBitFlip};
  return cfg;
}

// Pinned ISS campaign result: the fingerprint of this campaign is a
// constant, not just self-consistent, so a refactor of the replay layer
// (ladder positioning, write matching, convergence cut-off) that moves any
// outcome or latency fails here. Held with the ladder disabled and at the
// default stride, serially and on three threads.
TEST(IssFastpathCampaign, FingerprintPinnedAcrossStridesAndThreads) {
  constexpr u64 kPinned = 17234927151181586971ull;
  const auto prog =
      workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
  const auto cfg = fuzz_campaign_cfg();
  for (const u64 stride : {u64{0}, engine::EngineOptions{}.ladder_stride}) {
    for (const unsigned threads : {1u, 3u}) {
      engine::EngineOptions opts;
      opts.threads = threads;
      opts.ladder_stride = stride;
      EXPECT_EQ(iss_fingerprint(engine::run_iss_campaign_engine(prog, cfg, opts)),
                kPinned)
          << "stride=" << stride << " threads=" << threads;
    }
  }
}

TEST(IssFastpathCampaign, HashInvariantAcrossResume) {
  const auto prog =
      workloads::build("a2time_x", {.iterations = 1, .data_seed = 1});
  const auto cfg = fuzz_campaign_cfg();

  engine::EngineOptions plain;
  plain.threads = 1;
  const u64 ref =
      iss_fingerprint(engine::run_iss_campaign_engine(prog, cfg, plain));

  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) / ("issrtl_fastpath_" +
                                        std::string(info->name()));
  fs::remove_all(dir);
  fs::create_directories(dir);

  // First run populates the journal on three threads; the resumed run
  // imports every site serially. Identical fingerprints (and full journal
  // reuse) prove the journal keys and records are schedule independent.
  engine::EngineOptions writer;
  writer.threads = 3;
  writer.journal_dir = dir.string();
  EXPECT_EQ(iss_fingerprint(engine::run_iss_campaign_engine(prog, cfg, writer)),
            ref);

  engine::EngineOptions resumer;
  resumer.threads = 1;
  resumer.journal_dir = dir.string();
  resumer.resume = true;
  const auto resumed = engine::run_iss_campaign_engine(prog, cfg, resumer);
  EXPECT_EQ(iss_fingerprint(resumed), ref);
  EXPECT_EQ(resumed.replay.journal_hits, resumed.runs.size());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace issrtl::iss
