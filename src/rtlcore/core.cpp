#include "rtlcore/core.hpp"

#include <stdexcept>

namespace issrtl::rtlcore {

using isa::DecodedInst;
using isa::InstClass;
using isa::Opcode;
using iss::HaltReason;

// ---------------------------------------------------------------------------
// PipeSlot

PipeSlot PipeSlot::create(rtl::SimContext& ctx, const std::string& stage) {
  const std::string u = "iu." + stage;
  auto sig = [&](const char* n, u8 w) -> rtl::Sig {
    return ctx.reg(stage + "_" + n, u, w);
  };
  PipeSlot slot{
      sig("valid", 1), sig("pc", 32),    sig("inst", 32),  sig("a", 32),
      sig("b", 32),    sig("sdata", 32), sig("sdata2", 32), sig("dphys", 8),
      sig("dphys2", 8), sig("wreg", 1),  sig("wreg2", 1),  sig("res", 32),
      sig("res2", 32), sig("addr", 32),  sig("trap", 4),   sig("tcode", 8),
      0};
  // load_from copies the latch as one kFieldCount-node range starting at
  // valid — a field added, removed or registered out of line would make
  // that ranged copy silently latch the wrong window. Fail construction
  // instead.
  if (slot.tcode.id() != slot.valid.id() + kFieldCount - 1) {
    throw std::logic_error("PipeSlot::create: field layout does not span "
                           "kFieldCount consecutive nodes");
  }
  return slot;
}

void PipeSlot::bubble() { valid.n(0); }

void PipeSlot::hold() { /* registers hold by default (nxt == cur) */ }

void PipeSlot::load_from(rtl::SimContext& ctx, const PipeSlot& src) {
  ctx.copy_next_range(valid.id(), src.valid.id(), kFieldCount);
  seq = src.seq;
}

// ---------------------------------------------------------------------------
// Construction / reset

Leon3Core::Leon3Core(Memory& mem, const CoreConfig& cfg)
    : mem_(mem),
      cfg_(cfg),
      icc_(ctx_.reg("icc", "iu.special", 4)),
      y_(ctx_.reg("y", "iu.special", 32)),
      cwp_(ctx_.reg("cwp", "iu.special", 3)),
      wdepth_(ctx_.reg("wdepth", "iu.special", 4)),
      fetch_pc_(ctx_.reg("fetch_pc", "iu.fe", 32)),
      redirect_pending_(ctx_.reg("redirect_pending", "iu.fe", 1)),
      redirect_target_(ctx_.reg("redirect_target", "iu.fe", 32)),
      annul_pending_(ctx_.reg("annul_pending", "iu.fe", 1)),
      alu_a_(ctx_.wire("alu_a", "iu.alu", 32)),
      alu_b_(ctx_.wire("alu_b", "iu.alu", 32)),
      alu_res_(ctx_.wire("alu_res", "iu.alu", 32)),
      alu_cc_(ctx_.wire("alu_cc", "iu.alu", 4)),
      sh_res_(ctx_.wire("sh_res", "iu.shift", 32)),
      mul_lo_(ctx_.wire("mul_lo", "iu.mul", 32)),
      mul_hi_(ctx_.wire("mul_hi", "iu.mul", 32)),
      div_q_(ctx_.wire("div_q", "iu.div", 32)),
      br_taken_(ctx_.wire("br_taken", "iu.branch", 1)),
      br_target_(ctx_.wire("br_target", "iu.branch", 32)),
      agu_addr_(ctx_.wire("agu_addr", "iu.lsu", 32)),
      ex_busy_(ctx_.reg("ex_busy", "iu.ex", 6)),
      de_(PipeSlot::create(ctx_, "de")),
      ra_(PipeSlot::create(ctx_, "ra")),
      ex_(PipeSlot::create(ctx_, "ex")),
      me_(PipeSlot::create(ctx_, "me")),
      xc_(PipeSlot::create(ctx_, "xc")),
      wb_(PipeSlot::create(ctx_, "wb")) {
  rf_ = std::make_unique<RegFile>(ctx_);
  icache_ =
      std::make_unique<Cache>(ctx_, "cmem.icache", cfg.icache, mem_, bus_);
  dcache_ =
      std::make_unique<Cache>(ctx_, "cmem.dcache", cfg.dcache, mem_, bus_);
  // Seed the decode memo so the all-zero entries are genuine (word 0 is a
  // real encoding — UNIMP — and must not alias the default-constructed
  // DecodedInst).
  for (DecodeEntry& e : decode_cache_) e.inst = isa::decode(0);
}

void Leon3Core::load(const isa::Program& prog) {
  prog.load_into(mem_);
  reset(prog.entry);
}

void Leon3Core::reset(u32 entry) {
  ctx_.zero_all();
  icache_->invalidate_all();
  dcache_->invalidate_all();
  bus_.clear();
  rf_->poke_phys(isa::phys_reg_index(isa::reg_num(isa::kSp), 0),
                 isa::kDefaultStackTop);
  fetch_pc_.poke(entry);
  cycle_ = 0;
  instret_ = 0;
  next_fetch_seq_ = 1;
  redirect_after_seq_ = 0;
  annul_seq_ = 0;
  halt_ = HaltReason::kRunning;
  trap_code_ = 0;
  de_.seq = ra_.seq = ex_.seq = me_.seq = xc_.seq = wb_.seq = 0;
  kill_valid_ = false;
  annul_exact_valid_ = false;
}

// ---------------------------------------------------------------------------
// Helpers

namespace {

u8 add_cc(u32 a, u32 b, u32 r) {
  const u32 n = (r >> 31) & 1;
  const u32 z = r == 0;
  const u32 v = (((a & b & ~r) | (~a & ~b & r)) >> 31) & 1;
  const u32 c = (((a & b) | ((a | b) & ~r)) >> 31) & 1;
  return static_cast<u8>((n << 3) | (z << 2) | (v << 1) | c);
}

u8 sub_cc(u32 a, u32 b, u32 r) {
  const u32 n = (r >> 31) & 1;
  const u32 z = r == 0;
  const u32 v = (((a & ~b & ~r) | (~a & b & r)) >> 31) & 1;
  const u32 c = (((~a & b) | (r & (~a | b))) >> 31) & 1;
  return static_cast<u8>((n << 3) | (z << 2) | (v << 1) | c);
}

u8 logic_cc(u32 r) {
  return static_cast<u8>((((r >> 31) & 1) << 3) | ((r == 0 ? 1u : 0u) << 2));
}

bool is_multicycle(const DecodedInst& d) {
  return d.iclass == InstClass::kMul || d.iclass == InstClass::kDiv;
}

u8 mem_align(const DecodedInst& d) {
  switch (d.opcode) {
    case Opcode::kLDD: case Opcode::kSTD: return 8;
    case Opcode::kLD: case Opcode::kST: case Opcode::kSWAP: return 4;
    case Opcode::kLDUH: case Opcode::kLDSH: case Opcode::kSTH: return 2;
    default: return 1;
  }
}

}  // namespace

void Leon3Core::halt_with(HaltReason r, u8 code) {
  halt_ = r;
  trap_code_ = code;
}

// ---------------------------------------------------------------------------
// WB: retire and write the register file.

void Leon3Core::eval_wb() {
  if (!wb_.valid.rb()) return;
  if (wb_.wreg.rb()) rf_->write_phys(wb_.dphys.r(), wb_.res.r());
  if (wb_.wreg2.rb()) rf_->write_phys(wb_.dphys2.r(), wb_.res2.r());
  ++instret_;
}

// ---------------------------------------------------------------------------
// XC: exception commit point. Returns false when the core halts.

bool Leon3Core::eval_xc() {
  if (xc_.valid.rb()) {
    const auto trap = static_cast<TrapKind>(xc_.trap.r());
    if (trap != TrapKind::kNone) {
      ++instret_;  // the trapping instruction executed (ISS counts it)
      switch (trap) {
        case TrapKind::kHalt: halt_with(HaltReason::kHalted, 0); break;
        case TrapKind::kSoftTrap:
          halt_with(HaltReason::kTrap, static_cast<u8>(xc_.tcode.r()));
          break;
        case TrapKind::kIllegal:
          halt_with(HaltReason::kIllegalInstruction, 0);
          break;
        case TrapKind::kMisaligned:
          halt_with(HaltReason::kMisalignedAccess, 0);
          break;
        case TrapKind::kDivZero:
          halt_with(HaltReason::kDivisionByZero, 0);
          break;
        default: halt_with(HaltReason::kWindowOverflow, 0); break;
      }
      return false;
    }
    wb_.load_from(ctx_, xc_);
  } else {
    wb_.bubble();
  }
  return true;
}

// ---------------------------------------------------------------------------
// ME: data-cache access stage.

void Leon3Core::eval_me(bool /*xc_free*/) {
  if (!me_.valid.rb()) {
    xc_.bubble();
    me_stalled_ = false;
    return;
  }
  const DecodedInst& d = decode_cached(me_.inst.r());
  const bool is_mem =
      me_.trap.r() == 0 &&
      (d.iclass == InstClass::kLoad || d.iclass == InstClass::kStore ||
       d.iclass == InstClass::kAtomic);

  if (!is_mem) {
    xc_.load_from(ctx_, me_);
    me_stalled_ = false;
    return;
  }

  const u32 addr = me_.addr.r();
  const u32 word_addr = addr & ~3u;
  const bool io = addr >= isa::kIoBase;

  auto lane8 = [&](u32 w) { return (w >> ((3 - (addr & 3)) * 8)) & 0xFF; };
  auto lane16 = [&](u32 w) { return (w >> ((2 - (addr & 2)) * 8)) & 0xFFFF; };

  // Loads (and the load halves of atomics) may stall on a miss.
  u32 w0 = 0;
  bool done = true;
  const bool needs_load = d.iclass != InstClass::kStore;
  if (needs_load) {
    if (io) {
      w0 = mem_.load_u32(word_addr);
    } else {
      done = dcache_->step_load(word_addr, w0);
    }
  }
  if (!done) {
    xc_.bubble();
    me_stalled_ = true;
    return;
  }
  me_stalled_ = false;

  auto dstore = [&](u32 saddr, u8 size, u32 val) {
    if (saddr >= isa::kIoBase) {
      bus_.record_write(cycle_, saddr, size, val & low_mask64(8u * size));
      if (size == 1) mem_.store_u8(saddr, static_cast<u8>(val));
      else if (size == 2) mem_.store_u16(saddr, static_cast<u16>(val));
      else mem_.store_u32(saddr, val);
    } else {
      dcache_->store(cycle_, saddr, size, val);
    }
  };

  xc_.load_from(ctx_, me_);
  switch (d.opcode) {
    case Opcode::kLD: xc_.res.n(w0); break;
    case Opcode::kLDUB: xc_.res.n(lane8(w0)); break;
    case Opcode::kLDSB:
      xc_.res.n(static_cast<u32>(sign_extend(lane8(w0), 8)));
      break;
    case Opcode::kLDUH: xc_.res.n(lane16(w0)); break;
    case Opcode::kLDSH:
      xc_.res.n(static_cast<u32>(sign_extend(lane16(w0), 16)));
      break;
    case Opcode::kLDD: {
      u32 w1 = 0;
      if (io) {
        w1 = mem_.load_u32(word_addr + 4);
      } else {
        dcache_->step_load(word_addr + 4, w1);  // same line: hit
      }
      xc_.res.n(w0);
      xc_.res2.n(w1);
      break;
    }
    case Opcode::kST: dstore(addr, 4, me_.sdata.r()); break;
    case Opcode::kSTB: dstore(addr, 1, me_.sdata.r()); break;
    case Opcode::kSTH: dstore(addr, 2, me_.sdata.r()); break;
    case Opcode::kSTD:
      dstore(addr, 4, me_.sdata.r());
      dstore(addr + 4, 4, me_.sdata2.r());
      break;
    case Opcode::kLDSTUB:
      xc_.res.n(lane8(w0));
      dstore(addr, 1, 0xFF);
      break;
    case Opcode::kSWAP:
      xc_.res.n(w0);
      dstore(addr, 4, me_.sdata.r());
      break;
    default:
      xc_.trap.n(static_cast<u32>(TrapKind::kIllegal));
      break;
  }
}

// ---------------------------------------------------------------------------
// EX: execute, resolve control transfer, commit icc/Y/CWP.

void Leon3Core::resolve_cti(const DecodedInst& d, u32 /*pc*/, bool taken,
                            u32 target) {
  br_taken_.w(taken ? 1 : 0);
  br_target_.w(target);
  const bool eff_taken = br_taken_.rb();
  const u32 eff_target = br_target_.r();
  const u64 ds = ex_.seq + 1;  // sequence number of the delay slot
  const bool ds_issued = next_fetch_seq_ > ds;
  const bool ba_annul = d.opcode == Opcode::kBA && d.annul;

  if (ba_annul) {
    // Delay slot annulled unconditionally: jump immediately, killing the
    // delay slot if it was already fetched.
    kill_valid_ = true;
    kill_min_seq_ = ds;
    immediate_redirect_ = true;
    immediate_target_ = eff_target;
    return;
  }
  if (eff_taken) {
    kill_valid_ = true;
    kill_min_seq_ = ds + 1;  // keep the delay slot
    if (ds_issued) {
      immediate_redirect_ = true;
      immediate_target_ = eff_target;
    } else {
      redirect_pending_.n(1);
      redirect_target_.n(eff_target);
      redirect_after_seq_ = ds;
    }
    return;
  }
  // Not taken: only the annul bit has an effect (squash the delay slot).
  if (d.annul) {
    if (ds_issued) {
      annul_exact_valid_ = true;
      annul_exact_seq_ = ds;
    } else {
      annul_pending_.n(1);
      annul_seq_ = ds;
    }
  }
}

void Leon3Core::do_ex_compute(PipeSlot& s, const DecodedInst& d) {
  const u32 pc = s.pc.r();
  const u32 a = s.a.r();
  const u32 b = s.b.r();
  alu_a_.w(a);
  alu_b_.w(b);
  const u32 fa = alu_a_.r();
  const u32 fb = alu_b_.r();
  const u8 cc_in = static_cast<u8>(icc_.r());
  const bool carry_in = (cc_in & 1) != 0;

  auto set_trap = [&](TrapKind t, u8 code = 0) {
    me_.trap.n(static_cast<u32>(t));
    me_.tcode.n(code);
    me_.wreg.n(0);   // trapped instructions never write back
    me_.wreg2.n(0);
  };
  auto alu_out = [&](u32 v, bool set_cc, u8 cc) {
    alu_res_.w(v);
    me_.res.n(alu_res_.r());
    if (set_cc) {
      alu_cc_.w(cc);
      icc_.n(alu_cc_.r());
    }
  };
  const bool wcc = d.sets_icc;

  switch (d.iclass) {
    case InstClass::kInvalid:
      set_trap(TrapKind::kIllegal);
      break;

    case InstClass::kSethi:
      alu_out(d.imm22 << 10, false, 0);
      break;

    case InstClass::kAlu: {
      u32 r = 0;
      u8 cc = cc_in;
      switch (d.opcode) {
        case Opcode::kADD: case Opcode::kADDCC:
          r = fa + fb;
          cc = add_cc(fa, fb, r);
          break;
        case Opcode::kADDX: case Opcode::kADDXCC: {
          r = fa + fb + (carry_in ? 1 : 0);
          const u64 wide = static_cast<u64>(fa) + fb + (carry_in ? 1 : 0);
          cc = static_cast<u8>(((((r >> 31) & 1) << 3)) |
                               ((r == 0 ? 1u : 0u) << 2) |
                               ((((~(fa ^ fb) & (fa ^ r)) >> 31) & 1) << 1) |
                               static_cast<u8>((wide >> 32) & 1));
          break;
        }
        case Opcode::kSUB: case Opcode::kSUBCC:
          r = fa - fb;
          cc = sub_cc(fa, fb, r);
          break;
        case Opcode::kSUBX: case Opcode::kSUBXCC: {
          const u32 cin = carry_in ? 1 : 0;
          r = fa - fb - cin;
          const u64 wide = static_cast<u64>(fa) - fb - cin;
          cc = static_cast<u8>(((((r >> 31) & 1) << 3)) |
                               ((r == 0 ? 1u : 0u) << 2) |
                               (((((fa ^ fb) & (fa ^ r)) >> 31) & 1) << 1) |
                               static_cast<u8>((wide >> 63) & 1));
          break;
        }
        case Opcode::kAND: case Opcode::kANDCC: r = fa & fb; cc = logic_cc(r); break;
        case Opcode::kANDN: case Opcode::kANDNCC: r = fa & ~fb; cc = logic_cc(r); break;
        case Opcode::kOR: case Opcode::kORCC: r = fa | fb; cc = logic_cc(r); break;
        case Opcode::kORN: case Opcode::kORNCC: r = fa | ~fb; cc = logic_cc(r); break;
        case Opcode::kXOR: case Opcode::kXORCC: r = fa ^ fb; cc = logic_cc(r); break;
        case Opcode::kXNOR: case Opcode::kXNORCC: r = ~(fa ^ fb); cc = logic_cc(r); break;
        case Opcode::kTADDCC: {
          r = fa + fb;
          const u8 base = add_cc(fa, fb, r);
          const bool tag_v =
              ((fa & 3) != 0) || ((fb & 3) != 0) || ((base >> 1) & 1);
          cc = static_cast<u8>((base & 0b1101u) | (tag_v ? 2u : 0u));
          break;
        }
        case Opcode::kTSUBCC: {
          r = fa - fb;
          const u8 base = sub_cc(fa, fb, r);
          const bool tag_v =
              ((fa & 3) != 0) || ((fb & 3) != 0) || ((base >> 1) & 1);
          cc = static_cast<u8>((base & 0b1101u) | (tag_v ? 2u : 0u));
          break;
        }
        case Opcode::kMULSCC: {
          const bool n = (cc_in >> 3) & 1, v = (cc_in >> 1) & 1;
          const u32 op1 = ((n != v) ? 0x8000'0000u : 0u) | (fa >> 1);
          const u32 yv = y_.r();
          const u32 op2 = (yv & 1) ? fb : 0;
          r = op1 + op2;
          cc = add_cc(op1, op2, r);
          y_.n(((fa & 1) << 31) | (yv >> 1));
          break;
        }
        default:
          set_trap(TrapKind::kIllegal);
          return;
      }
      alu_out(r, wcc || d.opcode == Opcode::kMULSCC ||
                     d.opcode == Opcode::kTADDCC || d.opcode == Opcode::kTSUBCC,
              cc);
      break;
    }

    case InstClass::kShift: {
      const u32 count = fb & 31;
      u32 r = 0;
      if (d.opcode == Opcode::kSLL) r = fa << count;
      else if (d.opcode == Opcode::kSRL) r = fa >> count;
      else r = static_cast<u32>(static_cast<i32>(fa) >> count);
      sh_res_.w(r);
      me_.res.n(sh_res_.r());
      break;
    }

    case InstClass::kMul: {
      const bool is_signed =
          d.opcode == Opcode::kSMUL || d.opcode == Opcode::kSMULCC;
      const u64 prod =
          is_signed ? static_cast<u64>(static_cast<i64>(static_cast<i32>(fa)) *
                                       static_cast<i64>(static_cast<i32>(fb)))
                    : static_cast<u64>(fa) * fb;
      mul_lo_.w(static_cast<u32>(prod));
      mul_hi_.w(static_cast<u32>(prod >> 32));
      y_.n(mul_hi_.r());
      me_.res.n(mul_lo_.r());
      if (wcc) icc_.n(logic_cc(mul_lo_.r()));
      break;
    }

    case InstClass::kDiv: {
      if (fb == 0) {
        set_trap(TrapKind::kDivZero);
        break;
      }
      const bool is_signed =
          d.opcode == Opcode::kSDIV || d.opcode == Opcode::kSDIVCC;
      const u64 dividend = (static_cast<u64>(y_.r()) << 32) | fa;
      u32 q;
      bool ovf = false;
      if (is_signed) {
        const i64 sq = static_cast<i64>(dividend) / static_cast<i32>(fb);
        if (sq > 0x7FFF'FFFFll) { q = 0x7FFF'FFFFu; ovf = true; }
        else if (sq < -0x8000'0000ll) { q = 0x8000'0000u; ovf = true; }
        else q = static_cast<u32>(sq);
      } else {
        const u64 uq = dividend / fb;
        if (uq > 0xFFFF'FFFFull) { q = 0xFFFF'FFFFu; ovf = true; }
        else q = static_cast<u32>(uq);
      }
      div_q_.w(q);
      me_.res.n(div_q_.r());
      if (wcc) {
        icc_.n(static_cast<u8>((((q >> 31) & 1) << 3) |
                               ((q == 0 ? 1u : 0u) << 2) | (ovf ? 2u : 0u)));
      }
      break;
    }

    case InstClass::kBranch: {
      const bool taken = iss::eval_cond(isa::branch_cond(d.opcode), cc_in);
      resolve_cti(d, pc, taken, pc + static_cast<u32>(d.disp));
      break;
    }

    case InstClass::kCall:
      me_.res.n(pc);  // link value into %o7 (dphys/wreg set at RA)
      resolve_cti(d, pc, true, pc + static_cast<u32>(d.disp));
      break;

    case InstClass::kJmpl: {
      const u32 target = fa + fb;
      if ((target & 3) != 0) {
        set_trap(TrapKind::kMisaligned);
        break;
      }
      me_.res.n(pc);
      resolve_cti(d, pc, true, target);
      break;
    }

    case InstClass::kLoad:
    case InstClass::kStore:
    case InstClass::kAtomic: {
      agu_addr_.w(fa + fb);
      const u32 addr = agu_addr_.r();
      me_.addr.n(addr);
      if ((addr & (mem_align(d) - 1)) != 0) {
        set_trap(TrapKind::kMisaligned);
      }
      break;
    }

    case InstClass::kSaveRestore: {
      const bool is_save = d.opcode == Opcode::kSAVE;
      const u32 depth = wdepth_.r();
      if (is_save && depth + 1 >= isa::kNumWindows) {
        set_trap(TrapKind::kWindow);
        break;
      }
      if (!is_save && depth == 0) {
        set_trap(TrapKind::kWindow);
        break;
      }
      const u32 new_cwp =
          is_save ? (cwp_.r() + isa::kNumWindows - 1) % isa::kNumWindows
                  : (cwp_.r() + 1) % isa::kNumWindows;
      cwp_.n(new_cwp);
      wdepth_.n(is_save ? depth + 1 : depth - 1);
      alu_res_.w(fa + fb);
      me_.res.n(alu_res_.r());
      // Destination register is in the *new* window.
      me_.dphys.n(isa::phys_reg_index(d.rd, new_cwp));
      break;
    }

    case InstClass::kReadSpecial:
      me_.res.n(y_.r());
      break;

    case InstClass::kWriteSpecial:
      y_.n(fa ^ fb);
      break;

    case InstClass::kTrap:
      me_.trap.n(static_cast<u32>(d.trap_num == 0 ? TrapKind::kHalt
                                                  : TrapKind::kSoftTrap));
      me_.tcode.n(d.trap_num);
      break;

    case InstClass::kFlush:
      break;  // modelled as a NOP, matching the functional emulator

    default:
      set_trap(TrapKind::kIllegal);
      break;
  }
}

void Leon3Core::eval_ex(bool me_free) {
  if (!me_free) {
    ex_free_ = false;
    return;  // ME holds; EX holds implicitly
  }
  if (!ex_.valid.rb()) {
    me_.bubble();
    ex_free_ = true;
    return;
  }
  // A trapping instruction draining in ME/XC is older than whatever sits in
  // EX; the core will halt when it reaches XC. Younger instructions must not
  // execute meanwhile — icc/Y/CWP commit at EX and there is no rollback.
  const bool trap_pending =
      (me_.valid.rb() && me_.trap.r() != 0) ||
      (xc_.valid.rb() && xc_.trap.r() != 0);
  if (trap_pending) {
    me_.bubble();
    ex_free_ = false;
    return;
  }
  const DecodedInst& d = decode_cached(ex_.inst.r());

  // Multicycle execute (mul/div occupy EX for several cycles).
  if (ex_.trap.r() == 0 && is_multicycle(d)) {
    const u32 busy = ex_busy_.r();
    if (busy == 0) {
      const u32 lat =
          d.iclass == InstClass::kMul ? cfg_.mul_latency : cfg_.div_latency;
      if (lat > 1) {
        ex_busy_.n(lat - 1);
        me_.bubble();
        ex_free_ = false;
        return;
      }
    } else if (busy > 1) {
      ex_busy_.n(busy - 1);
      me_.bubble();
      ex_free_ = false;
      return;
    } else {
      ex_busy_.n(0);  // final cycle: fall through and complete
    }
  }

  me_.load_from(ctx_, ex_);
  if (ex_.trap.r() == 0) {
    do_ex_compute(ex_, d);
  }
  ex_free_ = true;
}

// ---------------------------------------------------------------------------
// RA: register access with scoreboard interlock.

void Leon3Core::gather_sources(const DecodedInst& d, unsigned cwp,
                               std::array<unsigned, 4>& srcs,
                               unsigned& n) const {
  n = 0;
  auto add_src = [&](unsigned arch) {
    if (arch != 0) srcs[n++] = isa::phys_reg_index(arch, cwp);
  };
  switch (d.iclass) {
    case InstClass::kAlu:
    case InstClass::kShift:
    case InstClass::kMul:
    case InstClass::kDiv:
    case InstClass::kJmpl:
    case InstClass::kWriteSpecial:
    case InstClass::kSaveRestore:
    case InstClass::kLoad:
      add_src(d.rs1);
      if (!d.uses_imm) add_src(d.rs2);
      break;
    case InstClass::kStore:
    case InstClass::kAtomic:
      add_src(d.rs1);
      if (!d.uses_imm) add_src(d.rs2);
      add_src(d.rd);
      if (d.opcode == Opcode::kSTD) add_src(d.rd + 1u);
      break;
    default:
      break;  // sethi, branches, call, rdy, ta, flush: no register sources
  }
}

bool Leon3Core::scoreboard_blocks(const std::array<unsigned, 4>& srcs,
                                  unsigned n) const {
  const PipeSlot* stages[] = {&ex_, &me_, &xc_, &wb_};
  for (const PipeSlot* s : stages) {
    if (!s->valid.rb()) continue;
    for (unsigned i = 0; i < n; ++i) {
      if (s->wreg.rb() && s->dphys.r() == srcs[i]) return true;
      if (s->wreg2.rb() && s->dphys2.r() == srcs[i]) return true;
    }
  }
  return false;
}

void Leon3Core::eval_ra(bool ex_free) {
  const bool killed = ra_.valid.rb() &&
                      ((kill_valid_ && ra_.seq >= kill_min_seq_) ||
                       (annul_exact_valid_ && ra_.seq == annul_exact_seq_));
  if (!ex_free) {
    ra_consumed_ = killed;  // a killed packet dies even while EX is busy
    if (killed) { /* ra_ will be overwritten or bubbled by DE */ }
    return;
  }
  if (!ra_.valid.rb() || killed) {
    ex_.bubble();
    ra_consumed_ = true;
    return;
  }

  // Interlock first: pending CWP update (save/restore in EX) serialises
  // register access. Resolving it before RA's own decode lets `d` below be
  // a reference — this is the last memo lookup of the cycle, so the entry
  // cannot be evicted while in use (the copy this replaces was the
  // second-hottest line of the stage).
  if (ex_.valid.rb() && ex_.trap.r() == 0) {
    const DecodedInst& dex = decode_cached(ex_.inst.r());
    if (dex.iclass == InstClass::kSaveRestore) {
      ex_.bubble();
      ra_consumed_ = false;
      return;
    }
  }
  const DecodedInst& d = decode_cached(ra_.inst.r());
  const unsigned cwp = cwp_.r();
  std::array<unsigned, 4> srcs{};
  unsigned nsrc = 0;
  gather_sources(d, cwp, srcs, nsrc);
  if (scoreboard_blocks(srcs, nsrc)) {
    ex_.bubble();
    ra_consumed_ = false;
    return;
  }

  // Read operands and resolve destination mapping.
  ex_.load_from(ctx_, ra_);
  ex_.a.n(rf_->read(d.rs1, cwp));
  ex_.b.n(d.uses_imm ? static_cast<u32>(d.simm13) : rf_->read(d.rs2, cwp));
  if (d.iclass == InstClass::kStore || d.iclass == InstClass::kAtomic) {
    ex_.sdata.n(rf_->read(d.rd, cwp));
    if (d.opcode == Opcode::kSTD) ex_.sdata2.n(rf_->read(d.rd + 1u, cwp));
  }
  ex_.dphys.n(isa::phys_reg_index(d.rd, cwp));
  if (d.opcode == Opcode::kLDD) {
    ex_.dphys2.n(isa::phys_reg_index(d.rd + 1u, cwp));
  }
  // Write-enable resolved here so the scoreboard sees in-flight writers from
  // the moment they leave RA. (SAVE/RESTORE re-resolve dphys at EX under the
  // new window pointer; the save-in-EX interlock above keeps that safe.)
  bool writes = false;
  switch (d.iclass) {
    case InstClass::kAlu:
    case InstClass::kShift:
    case InstClass::kMul:
    case InstClass::kDiv:
    case InstClass::kSethi:
    case InstClass::kLoad:
    case InstClass::kAtomic:
    case InstClass::kJmpl:
    case InstClass::kCall:
    case InstClass::kReadSpecial:
    case InstClass::kSaveRestore:
      writes = d.rd != 0;
      break;
    default:
      break;
  }
  ex_.wreg.n(writes ? 1 : 0);
  ex_.wreg2.n(d.opcode == Opcode::kLDD ? 1 : 0);
  ra_consumed_ = true;
}

// ---------------------------------------------------------------------------
// DE: decode stage (pipeline latency; decode itself is re-derived from the
// instruction word downstream, so latched instruction bits are the
// fault-carrying state).

void Leon3Core::eval_de(bool ra_free) {
  const bool killed = de_.valid.rb() &&
                      ((kill_valid_ && de_.seq >= kill_min_seq_) ||
                       (annul_exact_valid_ && de_.seq == annul_exact_seq_));
  if (!ra_free) {
    de_consumed_ = killed;
    return;
  }
  if (!de_.valid.rb() || killed) {
    ra_.bubble();
    de_consumed_ = true;
    return;
  }
  ra_.load_from(ctx_, de_);
  de_consumed_ = true;
}

// ---------------------------------------------------------------------------
// FE: fetch via the instruction cache.

void Leon3Core::eval_fe(bool de_free) {
  if (immediate_redirect_) {
    // Taken CTI with its delay slot already in the pipe: abandon whatever
    // fetch is in flight and steer to the target.
    fetch_pc_.n(immediate_target_);
    icache_abort_();
    if (de_free) de_.bubble();
    redirect_pending_.n(0);
    return;
  }
  if (!de_free) return;
  const u32 pc = fetch_pc_.r();
  u32 word = 0;
  if (!icache_->step_load(pc, word)) {
    de_.bubble();
    return;
  }

  const u64 seq = next_fetch_seq_++;
  bool valid = true;
  if (kill_valid_ && seq >= kill_min_seq_) valid = false;
  if (annul_pending_.rb() && seq == annul_seq_) {
    valid = false;
    annul_pending_.n(0);
  }
  if (annul_exact_valid_ && seq == annul_exact_seq_) valid = false;

  de_.valid.n(valid ? 1 : 0);
  de_.pc.n(pc);
  de_.inst.n(word);
  // The remaining 13 operand/result/trap fields of a freshly fetched packet
  // are all zero and occupy consecutive registry slots (a..tcode follow
  // valid/pc/inst in PipeSlot::create's layout): one ranged zero instead of
  // thirteen masked stores.
  ctx_.zero_next_range(de_.a.id(), PipeSlot::kFieldCount - 3);
  de_.seq = seq;

  if (redirect_pending_.rb() && seq == redirect_after_seq_) {
    fetch_pc_.n(redirect_target_.r());
    redirect_pending_.n(0);
  } else {
    fetch_pc_.n(pc + 4);
  }
}

void Leon3Core::icache_abort_() {
  // Clearing the refill countdown abandons the in-flight line fill.
  // (The line simply stays invalid; a refetch will miss again.)
  // Implemented via the cache's busy node.
  icache_->abort();
}

// ---------------------------------------------------------------------------
// Top-level cycle.

void Leon3Core::step_eval() {
  ++cycle_;
  kill_valid_ = false;
  annul_exact_valid_ = false;
  immediate_redirect_ = false;
  me_stalled_ = false;
  ex_free_ = false;
  ra_consumed_ = false;
  de_consumed_ = false;

  eval_wb();
  if (!eval_xc()) return;  // halted this cycle; caller commits
  eval_me(true);
  eval_ex(!me_stalled_);
  eval_ra(ex_free_);
  eval_de(ra_consumed_ || !ra_.valid.rb());
  eval_fe(de_consumed_ || !de_.valid.rb());
}

HaltReason Leon3Core::advance(u64 max_cycles) {
  for (u64 i = 0; i < max_cycles && halt_ == HaltReason::kRunning; ++i) step();
  return halt_;
}

HaltReason Leon3Core::run(u64 max_cycles) {
  if (advance(max_cycles) == HaltReason::kRunning) {
    halt_ = HaltReason::kStepLimit;
  }
  return halt_;
}

CoreCheckpoint Leon3Core::checkpoint() const {
  CoreCheckpoint ck;
  ck.node_values = ctx_.save_values();
  ck.slot_seq = {de_.seq, ra_.seq, ex_.seq, me_.seq, xc_.seq, wb_.seq};
  ck.cycle = cycle_;
  ck.instret = instret_;
  ck.next_fetch_seq = next_fetch_seq_;
  ck.redirect_after_seq = redirect_after_seq_;
  ck.annul_seq = annul_seq_;
  ck.halt = halt_;
  ck.trap_code = trap_code_;
  ck.writes = bus_.writes().size();
  return ck;
}

void Leon3Core::restore(const CoreCheckpoint& ck,
                        const OffCoreTrace& trace_src) {
  ctx_.load_values(ck.node_values);
  de_.seq = ck.slot_seq[0];
  ra_.seq = ck.slot_seq[1];
  ex_.seq = ck.slot_seq[2];
  me_.seq = ck.slot_seq[3];
  xc_.seq = ck.slot_seq[4];
  wb_.seq = ck.slot_seq[5];
  cycle_ = ck.cycle;
  instret_ = ck.instret;
  next_fetch_seq_ = ck.next_fetch_seq;
  redirect_after_seq_ = ck.redirect_after_seq;
  annul_seq_ = ck.annul_seq;
  halt_ = ck.halt;
  trap_code_ = ck.trap_code;
  bus_.assign_prefix(trace_src, ck.writes);
  // Per-cycle handshake scratch: recomputed at the top of every step();
  // cleared here so a restored core is indistinguishable from one that
  // reached this cycle by stepping.
  clear_cycle_scratch();
}

bool Leon3Core::matches(const CoreCheckpoint& ck) const {
  const std::array<u64, 6> slot_seq = {de_.seq, ra_.seq, ex_.seq,
                                       me_.seq, xc_.seq, wb_.seq};
  return cycle_ == ck.cycle && halt_ == ck.halt && instret_ == ck.instret &&
         slot_seq == ck.slot_seq && next_fetch_seq_ == ck.next_fetch_seq &&
         redirect_after_seq_ == ck.redirect_after_seq &&
         annul_seq_ == ck.annul_seq && bus_.writes().size() == ck.writes &&
         ctx_.values_equal(ck.node_values);
}

iss::ArchState Leon3Core::arch_state() const {
  iss::ArchState st;
  for (unsigned i = 0; i < RegFile::iss_phys_count(); ++i) {
    st.regs[i] = rf_->peek_phys(i);
  }
  st.cwp = cwp_.raw();
  st.icc = iss::Icc{static_cast<u8>(icc_.raw())};
  st.y = y_.raw();
  st.pc = xc_.pc.raw();
  st.npc = st.pc + 4;
  st.window_depth = wdepth_.raw();
  return st;
}

}  // namespace issrtl::rtlcore
