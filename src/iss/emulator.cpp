#include "iss/emulator.hpp"

#include <algorithm>
#include <stdexcept>

#include "iss/timing.hpp"

namespace issrtl::iss {

using isa::DecodedInst;
using isa::InstClass;
using isa::Opcode;

std::string_view halt_reason_name(HaltReason r) {
  switch (r) {
    case HaltReason::kRunning: return "running";
    case HaltReason::kHalted: return "halted";
    case HaltReason::kTrap: return "trap";
    case HaltReason::kIllegalInstruction: return "illegal-instruction";
    case HaltReason::kMisalignedAccess: return "misaligned-access";
    case HaltReason::kDivisionByZero: return "division-by-zero";
    case HaltReason::kWindowOverflow: return "window-overflow";
    case HaltReason::kStepLimit: return "step-limit";
  }
  return "?";
}

Emulator::Emulator(Memory& mem) : mem_(mem) { rebuild_regmap(); }

void Emulator::rebuild_regmap() noexcept {
  for (unsigned r = 0; r < 32; ++r) {
    u32* slot = &state_.regs[isa::phys_reg_index(r, state_.cwp)];
    rmap_[r] = slot;
    wmap_[r] = slot;
  }
  rmap_[0] = &zero_reg_;
  wmap_[0] = &discard_reg_;
}

void Emulator::load(const isa::Program& prog) {
  prog.load_into(mem_);
  reset(prog.entry);
}

void Emulator::reset(u32 entry) {
  state_.reset(entry);
  rebuild_regmap();
  trace_.clear();
  offcore_.clear();
  halt_ = HaltReason::kRunning;
  trap_code_ = 0;
  instret_ = 0;
}

HaltReason Emulator::halt_with(HaltReason r) {
  halt_ = r;
  return r;
}

void Emulator::advance_pc() {
  state_.pc = state_.npc;
  state_.npc += 4;
}

void Emulator::record_store(u32 addr, u8 size, u64 data) {
  offcore_.record_write(instret_, addr, size, data);
}

void Emulator::arm_fault(const IssFault& fault) {
  if (fault_phase_ != FaultPhase::kNone) {
    throw std::logic_error("Emulator::arm_fault: a fault is already armed");
  }
  if (fault.phys_reg >= ArchState::kPhysRegs || fault.bit >= 32) {
    throw std::out_of_range("Emulator::arm_fault: no such register bit");
  }
  fault_ = fault;
  fault_phase_ = FaultPhase::kPending;
}

void Emulator::activate_fault() {
  const u32 bit = 1u << fault_.bit;
  u32& r = state_.regs[fault_.phys_reg];
  fault_and_ = ~bit;
  switch (fault_.model) {
    case IssFaultModel::kBitFlip:
      r ^= bit;  // transient: flip once, never enforce again
      fault_phase_ = FaultPhase::kNone;
      return;
    case IssFaultModel::kStuckAt0: fault_or_ = 0; break;
    case IssFaultModel::kStuckAt1: fault_or_ = bit; break;
    case IssFaultModel::kOpenLine: fault_or_ = r & bit; break;
  }
  fault_phase_ = FaultPhase::kEnforcing;
}

// ---- fast path (dbbcache + lscache) -----------------------------------------

void Emulator::set_fast_path(bool on) {
  if (fast_path_ == on) return;
  fast_path_ = on;
  drop_caches();
}

void Emulator::flush_dbb() {
  dbb_stale_ = false;
  if (dbb_.empty()) return;
  dbb_.clear();
  if (xlat_ != nullptr) xlat_->fill(XlatEntry{});
  cur_block_ = nullptr;
  code_lo_ = ~0u;
  code_hi_ = 0;
  ++dbb_flushes_;
}

void Emulator::drop_caches() {
  flush_dbb();
  ls_rd_index_ = kNoLsPage;
  ls_wr_index_ = kNoLsPage;
  ls_rd_base_ = nullptr;
  ls_wr_base_ = nullptr;
  ls_revision_ = ~0ull;
}

void Emulator::resync_caches() {
  // An external event moved the memory revision: pages may have been
  // re-shared (clone) or mutated through the Memory API at addresses this
  // emulator never saw. Raw page pointers are dead; decoded blocks stay
  // unless their code bytes changed (installing a ladder rung's clone
  // changes data, not code).
  ls_rd_index_ = kNoLsPage;
  ls_wr_index_ = kNoLsPage;
  ls_rd_base_ = nullptr;
  ls_wr_base_ = nullptr;
  if (!dbb_matches_memory()) flush_dbb();
  ls_revision_ = mem_.revision();
}

bool Emulator::dbb_matches_memory() const {
  // DecodedInst::raw is the word each instruction was decoded from.
  for (const auto& [base, blk] : dbb_) {
    u32 addr = base;
    for (const DecodedInst& d : blk.insts) {
      if (mem_.load_u32(addr) != d.raw) return false;
      addr += 4;
    }
  }
  return true;
}

const Emulator::DbbBlock& Emulator::build_block(u32 pc) {
  DbbBlock blk;
  blk.base = pc;
  u32 p = pc;
  bool in_delay_slot = false;
  for (std::size_t i = 0; i < kMaxBlockInsts; ++i) {
    const DecodedInst d = isa::decode(mem_.load_u32(p));
    blk.insts.push_back(d);
    p += 4;
    if (!d.valid()) break;  // sentinel; executor halts exactly like baseline
    if (in_delay_slot) break;  // CTI + its delay slot close the block
    const InstClass ic = d.iclass;
    if (ic == InstClass::kTrap) break;  // halts; no delay slot
    if (ic == InstClass::kBranch || ic == InstClass::kCall ||
        ic == InstClass::kJmpl) {
      // Include the delay slot: it executes at CTI+4 no matter where the
      // transfer goes, so keeping it in-block makes a taken branch cost a
      // single block transition (the target), not two. A CTI in the delay
      // slot (DCTI couple) just ends the block one later.
      in_delay_slot = true;
    }
    if (p == 0) break;  // address-space wrap
  }
  blk.bytes = static_cast<u32>(blk.insts.size()) * 4u;
  code_lo_ = std::min(code_lo_, blk.base);
  code_hi_ = std::max(code_hi_, blk.base + blk.bytes);
  DbbBlock& slot = dbb_[pc];
  slot = std::move(blk);
  return slot;
}

const DecodedInst* Emulator::fetch_decoded(u32 pc) {
  if (dbb_stale_) flush_dbb();  // deferred self-modifying-code invalidation
  const DbbBlock* b = cur_block_;
  if (b == nullptr || pc - b->base >= b->bytes) {
    if (xlat_ == nullptr) xlat_ = std::make_unique<std::array<XlatEntry, kXlatSize>>();
    XlatEntry& e = (*xlat_)[(pc >> 2) & (kXlatSize - 1)];
    if (e.blk != nullptr && e.pc == pc) {
      b = e.blk;
    } else {
      const auto it = dbb_.find(pc);
      b = (it != dbb_.end()) ? &it->second : &build_block(pc);
      e.pc = pc;
      e.blk = b;
    }
    cur_block_ = b;
  }
  return &b->insts[(pc - b->base) >> 2];
}

const u8* Emulator::rd_bytes(u32 addr) {
  const u32 idx = addr >> Memory::kPageBits;
  if (idx != ls_rd_index_) {
    const u8* base = mem_.read_page_base(addr);
    if (base == nullptr) return nullptr;  // absent page: reads as zero
    ls_rd_index_ = idx;
    ls_rd_base_ = base;
  }
  return ls_rd_base_ + (addr & (Memory::kPageSize - 1));
}

u8* Emulator::wr_bytes(u32 addr) {
  const u32 idx = addr >> Memory::kPageBits;
  if (idx != ls_wr_index_) {
    u8* base = mem_.write_page_base(addr);
    ls_wr_index_ = idx;
    ls_wr_base_ = base;
    // The COW un-share may have replaced the page object; keep the read
    // entry for the same page coherent with the private copy.
    if (ls_rd_index_ == idx) ls_rd_base_ = base;
  }
  return ls_wr_base_ + (addr & (Memory::kPageSize - 1));
}

u8 Emulator::ld8(u32 addr) {
  if (!fast_path_) return mem_.load_u8(addr);
  const u8* p = rd_bytes(addr);
  return p != nullptr ? *p : 0;
}

u16 Emulator::ld16(u32 addr) {
  if (!fast_path_) return mem_.load_u16(addr);
  const u8* p = rd_bytes(addr);
  if (p == nullptr) return 0;
  return static_cast<u16>((static_cast<u16>(p[0]) << 8) | p[1]);
}

u32 Emulator::ld32(u32 addr) {
  if (!fast_path_) return mem_.load_u32(addr);
  const u8* p = rd_bytes(addr);
  if (p == nullptr) return 0;
  return (static_cast<u32>(p[0]) << 24) | (static_cast<u32>(p[1]) << 16) |
         (static_cast<u32>(p[2]) << 8) | static_cast<u32>(p[3]);
}

void Emulator::st8(u32 addr, u8 v) {
  if (!fast_path_) {
    mem_.store_u8(addr, v);
    return;
  }
  if (touches_code(addr, 1)) dbb_stale_ = true;  // self-modifying code
  *wr_bytes(addr) = v;
}

void Emulator::st16(u32 addr, u16 v) {
  if (!fast_path_) {
    mem_.store_u16(addr, v);
    return;
  }
  if (touches_code(addr, 2)) dbb_stale_ = true;
  u8* p = wr_bytes(addr);
  p[0] = static_cast<u8>(v >> 8);
  p[1] = static_cast<u8>(v);
}

void Emulator::st32(u32 addr, u32 v) {
  if (!fast_path_) {
    mem_.store_u32(addr, v);
    return;
  }
  if (touches_code(addr, 4)) dbb_stale_ = true;
  u8* p = wr_bytes(addr);
  p[0] = static_cast<u8>(v >> 24);
  p[1] = static_cast<u8>(v >> 16);
  p[2] = static_cast<u8>(v >> 8);
  p[3] = static_cast<u8>(v);
}

EmuCheckpoint Emulator::checkpoint() const {
  return EmuCheckpoint{state_, trace_, halt_, trap_code_, instret_,
                       offcore_.writes().size()};
}

void Emulator::restore(const EmuCheckpoint& ck, const OffCoreTrace& trace_src) {
  state_ = ck.state;
  rebuild_regmap();
  trace_ = ck.trace;
  offcore_.assign_prefix(trace_src, ck.writes);
  halt_ = ck.halt;
  trap_code_ = ck.trap_code;
  instret_ = ck.instret;
}

namespace {

Icc add_flags(u32 a, u32 b, u32 r) {
  const bool n = (r >> 31) & 1;
  const bool z = r == 0;
  const bool v = (((a & b & ~r) | (~a & ~b & r)) >> 31) & 1;
  const bool c = (((a & b) | ((a | b) & ~r)) >> 31) & 1;
  return Icc::make(n, z, v, c);
}

Icc sub_flags(u32 a, u32 b, u32 r) {
  const bool n = (r >> 31) & 1;
  const bool z = r == 0;
  const bool v = (((a & ~b & ~r) | (~a & b & r)) >> 31) & 1;
  const bool c = (((~a & b) | (r & (~a | b))) >> 31) & 1;
  return Icc::make(n, z, v, c);
}

Icc logic_flags(u32 r) {
  return Icc::make((r >> 31) & 1, r == 0, false, false);
}

}  // namespace

HaltReason Emulator::exec_memory(const DecodedInst& d) {
  const u32 a = rreg(d.rs1);
  const u32 b = d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
  const u32 addr = a + b;

  auto aligned = [&](u32 align) { return (addr & (align - 1)) == 0; };

  switch (d.opcode) {
    case Opcode::kLD:
      if (!aligned(4)) return halt_with(HaltReason::kMisalignedAccess);
      wreg(d.rd, ld32(addr));
      break;
    case Opcode::kLDUB:
      wreg(d.rd, ld8(addr));
      break;
    case Opcode::kLDSB:
      wreg(d.rd, static_cast<u32>(static_cast<i32>(
                               static_cast<i8>(ld8(addr)))));
      break;
    case Opcode::kLDUH:
      if (!aligned(2)) return halt_with(HaltReason::kMisalignedAccess);
      wreg(d.rd, ld16(addr));
      break;
    case Opcode::kLDSH:
      if (!aligned(2)) return halt_with(HaltReason::kMisalignedAccess);
      wreg(d.rd, static_cast<u32>(static_cast<i32>(
                               static_cast<i16>(ld16(addr)))));
      break;
    case Opcode::kLDD:
      if (!aligned(8)) return halt_with(HaltReason::kMisalignedAccess);
      wreg(d.rd, ld32(addr));
      wreg(d.rd + 1u, ld32(addr + 4));
      break;
    case Opcode::kST:
      if (!aligned(4)) return halt_with(HaltReason::kMisalignedAccess);
      st32(addr, rreg(d.rd));
      record_store(addr, 4, rreg(d.rd));
      break;
    case Opcode::kSTB:
      st8(addr, static_cast<u8>(rreg(d.rd)));
      record_store(addr, 1, rreg(d.rd) & 0xFF);
      break;
    case Opcode::kSTH:
      if (!aligned(2)) return halt_with(HaltReason::kMisalignedAccess);
      st16(addr, static_cast<u16>(rreg(d.rd)));
      record_store(addr, 2, rreg(d.rd) & 0xFFFF);
      break;
    case Opcode::kSTD:
      if (!aligned(8)) return halt_with(HaltReason::kMisalignedAccess);
      st32(addr, rreg(d.rd));
      st32(addr + 4, rreg(d.rd + 1u));
      record_store(addr, 4, rreg(d.rd));
      record_store(addr + 4, 4, rreg(d.rd + 1u));
      break;
    case Opcode::kLDSTUB: {
      const u8 old = ld8(addr);
      st8(addr, 0xFF);
      record_store(addr, 1, 0xFF);
      wreg(d.rd, old);
      break;
    }
    case Opcode::kSWAP: {
      if (!aligned(4)) return halt_with(HaltReason::kMisalignedAccess);
      const u32 old = ld32(addr);
      const u32 nv = rreg(d.rd);
      st32(addr, nv);
      record_store(addr, 4, nv);
      wreg(d.rd, old);
      break;
    }
    default:
      return halt_with(HaltReason::kIllegalInstruction);
  }

  if (timing_ != nullptr) {
    timing_->on_memory_access(addr, d.iclass != InstClass::kLoad);
  }
  advance_pc();
  return HaltReason::kRunning;
}

HaltReason Emulator::step() {
  if (halt_ != HaltReason::kRunning) return halt_;

  // The fault acts at instruction boundaries: one armed at
  // inject_at_instr = N becomes visible before the (N+1)-th instruction
  // reads its operands, and a stuck-at/open-line mask persists from then on.
  if (fault_phase_ == FaultPhase::kPending && instret_ >= fault_.inject_at_instr) {
    activate_fault();
  }
  if (fault_phase_ == FaultPhase::kEnforcing) enforce_fault();

  const u32 pc = state_.pc;
  if ((pc & 3) != 0) return halt_with(HaltReason::kMisalignedAccess);
  if (fast_path_) {
    if (mem_.revision() != ls_revision_) resync_caches();
    // Borrowed, not copied: a self-modifying store only marks the dbbcache
    // stale; the flush is deferred to the next fetch_decoded().
    const DecodedInst& d = *fetch_decoded(pc);
    if (!d.valid()) return halt_with(HaltReason::kIllegalInstruction);
    return exec_one(d, pc);
  }
  const DecodedInst d = isa::decode(mem_.load_u32(pc));
  if (!d.valid()) return halt_with(HaltReason::kIllegalInstruction);
  return exec_one(d, pc);
}

HaltReason Emulator::exec_one(const DecodedInst& d, u32 pc) {
  trace_.record(d.opcode);
  ++instret_;
  if (timing_ != nullptr) timing_->on_fetch(pc, d);

  // Operand reads live inside the cases that use them: branches/sethi/call
  // don't read the register file, and the memory classes read their own
  // operands in exec_memory.
  switch (d.iclass) {
    case InstClass::kSethi:
      wreg(d.rd, d.imm22 << 10);
      advance_pc();
      break;

    case InstClass::kAlu: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      u32 r = 0;
      Icc icc = state_.icc;
      bool write_icc = d.sets_icc;
      switch (d.opcode) {
        case Opcode::kADD: case Opcode::kADDCC:
          r = a + b;
          if (write_icc) icc = add_flags(a, b, r);
          break;
        case Opcode::kADDX: case Opcode::kADDXCC: {
          r = a + b + (state_.icc.c() ? 1 : 0);
          if (write_icc) {
            // Flag semantics of a 33-bit add: compute via 64-bit sum.
            const u64 wide = static_cast<u64>(a) + b + (state_.icc.c() ? 1 : 0);
            const bool n = (r >> 31) & 1;
            const bool z = r == 0;
            const bool v = ((~(a ^ b) & (a ^ r)) >> 31) & 1;
            const bool c = (wide >> 32) & 1;
            icc = Icc::make(n, z, v, c);
          }
          break;
        }
        case Opcode::kSUB: case Opcode::kSUBCC:
          r = a - b;
          if (write_icc) icc = sub_flags(a, b, r);
          break;
        case Opcode::kSUBX: case Opcode::kSUBXCC: {
          const u32 cin = state_.icc.c() ? 1 : 0;
          r = a - b - cin;
          if (write_icc) {
            const u64 wide = static_cast<u64>(a) - b - cin;
            const bool n = (r >> 31) & 1;
            const bool z = r == 0;
            const bool v = (((a ^ b) & (a ^ r)) >> 31) & 1;
            const bool c = (wide >> 63) & 1;  // borrow
            icc = Icc::make(n, z, v, c);
          }
          break;
        }
        case Opcode::kAND: case Opcode::kANDCC: r = a & b; goto logic;
        case Opcode::kANDN: case Opcode::kANDNCC: r = a & ~b; goto logic;
        case Opcode::kOR: case Opcode::kORCC: r = a | b; goto logic;
        case Opcode::kORN: case Opcode::kORNCC: r = a | ~b; goto logic;
        case Opcode::kXOR: case Opcode::kXORCC: r = a ^ b; goto logic;
        case Opcode::kXNOR: case Opcode::kXNORCC: r = ~(a ^ b); goto logic;
        logic:
          if (write_icc) icc = logic_flags(r);
          break;
        case Opcode::kTADDCC: {
          r = a + b;
          Icc f = add_flags(a, b, r);
          const bool tag_v = ((a & 3) != 0) || ((b & 3) != 0) || f.v();
          icc = Icc::make(f.n(), f.z(), tag_v, f.c());
          break;
        }
        case Opcode::kTSUBCC: {
          r = a - b;
          Icc f = sub_flags(a, b, r);
          const bool tag_v = ((a & 3) != 0) || ((b & 3) != 0) || f.v();
          icc = Icc::make(f.n(), f.z(), tag_v, f.c());
          break;
        }
        case Opcode::kMULSCC: {
          // SPARC V8 multiply-step (B.17): one iteration of 32x32 multiply.
          const u32 op1 = ((state_.icc.n() != state_.icc.v()) ? 0x8000'0000u
                                                              : 0u) |
                          (a >> 1);
          const u32 op2 = (state_.y & 1) ? b : 0;
          r = op1 + op2;
          icc = add_flags(op1, op2, r);
          state_.y = ((a & 1) << 31) | (state_.y >> 1);
          write_icc = true;
          break;
        }
        default:
          return halt_with(HaltReason::kIllegalInstruction);
      }
      wreg(d.rd, r);
      if (write_icc) state_.icc = icc;
      advance_pc();
      break;
    }

    case InstClass::kShift: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      const u32 count = b & 31;
      u32 r = 0;
      switch (d.opcode) {
        case Opcode::kSLL: r = a << count; break;
        case Opcode::kSRL: r = a >> count; break;
        case Opcode::kSRA: r = static_cast<u32>(static_cast<i32>(a) >> count); break;
        default: return halt_with(HaltReason::kIllegalInstruction);
      }
      wreg(d.rd, r);
      advance_pc();
      break;
    }

    case InstClass::kMul: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      const bool is_signed =
          d.opcode == Opcode::kSMUL || d.opcode == Opcode::kSMULCC;
      const u64 prod = is_signed
                           ? static_cast<u64>(static_cast<i64>(static_cast<i32>(a)) *
                                              static_cast<i64>(static_cast<i32>(b)))
                           : static_cast<u64>(a) * b;
      const u32 lo = static_cast<u32>(prod);
      state_.y = static_cast<u32>(prod >> 32);
      wreg(d.rd, lo);
      if (d.sets_icc) {
        state_.icc = logic_flags(lo);  // V=C=0, N/Z from the low word
      }
      advance_pc();
      break;
    }

    case InstClass::kDiv: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      if (b == 0) return halt_with(HaltReason::kDivisionByZero);
      const bool is_signed =
          d.opcode == Opcode::kSDIV || d.opcode == Opcode::kSDIVCC;
      const u64 dividend = (static_cast<u64>(state_.y) << 32) | a;
      u32 q;
      bool overflow = false;
      if (is_signed) {
        const i64 sdividend = static_cast<i64>(dividend);
        const i64 sq = sdividend / static_cast<i32>(b);
        if (sq > 0x7FFF'FFFFll) { q = 0x7FFF'FFFFu; overflow = true; }
        else if (sq < -0x8000'0000ll) { q = 0x8000'0000u; overflow = true; }
        else q = static_cast<u32>(sq);
      } else {
        const u64 uq = dividend / b;
        if (uq > 0xFFFF'FFFFull) { q = 0xFFFF'FFFFu; overflow = true; }
        else q = static_cast<u32>(uq);
      }
      wreg(d.rd, q);
      if (d.sets_icc) {
        state_.icc = Icc::make((q >> 31) & 1, q == 0, overflow, false);
      }
      advance_pc();
      break;
    }

    case InstClass::kBranch: {
      // cond is bits 28:25 of the Bicc word — decode derived the opcode
      // from exactly these bits, so read them back instead of paying the
      // out-of-line branch_cond() mapping per branch.
      const bool taken = eval_cond((d.raw >> 25) & 0xF, state_.icc.nzvc);
      const u32 target = pc + static_cast<u32>(d.disp);
      if (timing_ != nullptr) timing_->on_branch(taken);
      if (d.opcode == Opcode::kBA && d.annul) {
        state_.pc = target;
        state_.npc = target + 4;
      } else if (taken) {
        state_.pc = state_.npc;
        state_.npc = target;
      } else if (d.annul) {
        state_.pc = state_.npc + 4;
        state_.npc = state_.pc + 4;
      } else {
        advance_pc();
      }
      break;
    }

    case InstClass::kCall: {
      wreg(15, pc);  // %o7
      const u32 target = pc + static_cast<u32>(d.disp);
      if (timing_ != nullptr) timing_->on_branch(true);
      state_.pc = state_.npc;
      state_.npc = target;
      break;
    }

    case InstClass::kJmpl: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      const u32 target = a + b;
      if ((target & 3) != 0) return halt_with(HaltReason::kMisalignedAccess);
      wreg(d.rd, pc);
      if (timing_ != nullptr) timing_->on_branch(true);
      state_.pc = state_.npc;
      state_.npc = target;
      break;
    }

    case InstClass::kLoad:
    case InstClass::kStore:
    case InstClass::kAtomic: {
      const HaltReason hr = exec_memory(d);
      if (hr != HaltReason::kRunning) return hr;
      break;
    }

    case InstClass::kSaveRestore: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      const bool is_save = d.opcode == Opcode::kSAVE;
      if (is_save) {
        if (state_.window_depth + 1 >= isa::kNumWindows) {
          return halt_with(HaltReason::kWindowOverflow);
        }
        ++state_.window_depth;
        state_.cwp = (state_.cwp + isa::kNumWindows - 1) % isa::kNumWindows;
      } else {
        if (state_.window_depth == 0) {
          return halt_with(HaltReason::kWindowOverflow);
        }
        --state_.window_depth;
        state_.cwp = (state_.cwp + 1) % isa::kNumWindows;
      }
      rebuild_regmap();
      // Operands were read in the *old* window; the sum is written to rd in
      // the *new* window (SPARC V8 semantics).
      wreg(d.rd, a + b);
      advance_pc();
      break;
    }

    case InstClass::kReadSpecial:
      wreg(d.rd, state_.y);
      advance_pc();
      break;

    case InstClass::kWriteSpecial: {
      const u32 a = rreg(d.rs1);
      const u32 b =
          d.uses_imm ? static_cast<u32>(d.simm13) : rreg(d.rs2);
      state_.y = a ^ b;  // SPARC: WR xor's rs1 with operand2
      advance_pc();
      break;
    }

    case InstClass::kTrap:
      trap_code_ = d.trap_num;
      return halt_with(d.trap_num == 0 ? HaltReason::kHalted
                                       : HaltReason::kTrap);

    case InstClass::kFlush:
      advance_pc();  // no caches in the functional emulator
      break;

    default:
      return halt_with(HaltReason::kIllegalInstruction);
  }

  return halt_;
}

HaltReason Emulator::run_loop(u64 max_steps, bool arm_step_limit) {
  u64 remaining = max_steps;

  // Block-walk fast loop: with no timing model, the per-instruction halt/
  // revision checks hoist out of the loop and dispatch is an index into the
  // current decoded block. A timing model drops to the per-step loop below.
  // The budget is split at the armed fault's due instant, so each walk
  // either enforces one fixed mask before every instruction or has no
  // fault check at all (the fault-free walk is the golden run's and the
  // prefix fast-forward's, where a per-instruction check cost about 8%).
  if (fast_path_ && timing_ == nullptr) {
    if (halt_ != HaltReason::kRunning) return halt_;
    if (mem_.revision() != ls_revision_) resync_caches();
    while (remaining != 0) {
      u64 budget = remaining;
      if (fault_phase_ == FaultPhase::kPending) {
        if (instret_ >= fault_.inject_at_instr) {
          activate_fault();
        } else {
          budget = std::min(budget, fault_.inject_at_instr - instret_);
        }
      }
      const HaltReason h = fault_phase_ == FaultPhase::kEnforcing
                               ? walk_blocks<true>(budget)
                               : walk_blocks<false>(budget);
      if (h != HaltReason::kRunning) return h;
      remaining -= budget;
    }
    return arm_step_limit ? halt_with(HaltReason::kStepLimit) : halt_;
  }

  for (u64 i = 0; i < max_steps; ++i) {
    if (step() != HaltReason::kRunning) return halt_;
  }
  return arm_step_limit ? halt_with(HaltReason::kStepLimit) : halt_;
}

template <bool kEnforce>
HaltReason Emulator::walk_blocks(u64 budget) {
  // The offset into the current block is re-derived from pc each
  // iteration, so delay slots (in-block by construction) and untaken
  // branches never leave the block, and a taken transfer costs one
  // fetch_decoded() for the target.
  const DbbBlock* blk = nullptr;
  while (budget != 0) {
    // Before anything else at the boundary, as in step().
    if constexpr (kEnforce) enforce_fault();
    const u32 pc = state_.pc;
    u32 off = 0;
    if (blk == nullptr || (off = pc - blk->base) >= blk->bytes) {
      // Alignment is checked at block entry only: every in-block pc is a
      // multiple of 4 by construction (branch/call displacements are
      // word-scaled, jmpl targets are checked, advance_pc adds 4).
      if ((pc & 3) != 0) return halt_with(HaltReason::kMisalignedAccess);
      fetch_decoded(pc);
      blk = cur_block_;
      off = pc - blk->base;
    }
    const DecodedInst& d = blk->insts[off >> 2];
    if (!d.valid()) return halt_with(HaltReason::kIllegalInstruction);
    if (exec_one(d, pc) != HaltReason::kRunning) return halt_;
    --budget;
    // A self-modifying store marked the dbbcache stale: refetch, which
    // performs the deferred flush.
    if (dbb_stale_) blk = nullptr;
  }
  return halt_;
}

HaltReason Emulator::run(u64 max_steps) { return run_loop(max_steps, true); }

HaltReason Emulator::advance(u64 max_steps) {
  return run_loop(max_steps, false);
}

}  // namespace issrtl::iss
