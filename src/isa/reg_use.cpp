#include "isa/reg_use.hpp"

#include "isa/registers.hpp"

namespace issrtl::isa {

RegUse reg_use(const DecodedInst& d, unsigned cwp) {
  RegUse u;
  auto src = [&](unsigned arch, unsigned wp) {
    if (arch != 0) u.src[u.nsrc++] = phys_reg_index(arch, wp);
  };
  auto dst = [&](unsigned arch, unsigned wp) {
    if (arch != 0) u.dst[u.ndst++] = phys_reg_index(arch, wp);
  };
  const bool op2_reg = !d.uses_imm;
  switch (d.iclass) {
    case InstClass::kAlu:
    case InstClass::kShift:
    case InstClass::kMul:
    case InstClass::kDiv:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      dst(d.rd, cwp);
      break;
    case InstClass::kSethi:
      dst(d.rd, cwp);
      break;
    case InstClass::kLoad:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      dst(d.rd, cwp);
      if (d.opcode == Opcode::kLDD) dst(d.rd + 1u, cwp);
      break;
    case InstClass::kStore:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      src(d.rd, cwp);
      if (d.opcode == Opcode::kSTD) src(d.rd + 1u, cwp);
      break;
    case InstClass::kAtomic:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      // SWAP stores rd's old value; LDSTUB stores 0xFF and only loads rd.
      if (d.opcode == Opcode::kSWAP) src(d.rd, cwp);
      dst(d.rd, cwp);
      break;
    case InstClass::kJmpl:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      dst(d.rd, cwp);
      break;
    case InstClass::kCall:
      dst(15, cwp);
      break;
    case InstClass::kSaveRestore: {
      // Operands read in the old window, destination written in the new one.
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      const unsigned next = d.opcode == Opcode::kSAVE
                                ? (cwp + kNumWindows - 1) % kNumWindows
                                : (cwp + 1) % kNumWindows;
      dst(d.rd, next);
      break;
    }
    case InstClass::kReadSpecial:
      dst(d.rd, cwp);
      break;
    case InstClass::kWriteSpecial:
      src(d.rs1, cwp);
      if (op2_reg) src(d.rs2, cwp);
      break;
    default:
      break;  // branches, trap, flush: no register file traffic
  }
  return u;
}

}  // namespace issrtl::isa
