#include "isa/assembler.hpp"

#include "isa/decode.hpp"

namespace issrtl::isa {

Assembler::Assembler(std::string name, u32 code_base, u32 data_base) {
  prog_.name = std::move(name);
  prog_.code_base = code_base;
  prog_.data_base = data_base;
  prog_.entry = code_base;
}

Label Assembler::label() {
  label_addr_.push_back(-1);
  return Label(static_cast<u32>(label_addr_.size() - 1));
}

void Assembler::bind(Label& l) {
  if (!l.valid_) throw AssemblerError("bind: label not created by this assembler");
  if (label_addr_[l.id_] != -1) throw AssemblerError("bind: label already bound");
  label_addr_[l.id_] = current_pc();
}

Label Assembler::here() {
  Label l = label();
  bind(l);
  return l;
}

u32 Assembler::current_pc() const noexcept {
  return prog_.code_base + static_cast<u32>(4 * prog_.code.size());
}

void Assembler::emit(u32 word) {
  if (finalized_) throw AssemblerError("emit after finalize");
  prog_.code.push_back(word);
}

void Assembler::sethi(Reg rd, u32 imm22) { emit(encode_sethi(reg_num(rd), imm22)); }
void Assembler::nop() { emit(encode_nop()); }

void Assembler::set32(Reg rd, u32 value) {
  if (value <= 4095) {
    mov(rd, static_cast<i32>(value));
    return;
  }
  sethi(rd, value >> 10);
  if ((value & 0x3FF) != 0) or_(rd, rd, static_cast<i32>(value & 0x3FF));
}

void Assembler::emit_branch(Opcode op, const Label& l, bool annul) {
  if (!l.valid_) throw AssemblerError("branch: invalid label");
  fixups_.push_back({prog_.code.size(), l.id_, FixKind::Branch});
  emit(encode_branch(op, annul, 0));
}

#define ISSRTL_DEF_BRANCH(name, op)                          \
  void Assembler::name(const Label& l, bool annul) {         \
    emit_branch(Opcode::op, l, annul);                       \
  }
ISSRTL_BRANCH_LIST(ISSRTL_DEF_BRANCH)
#undef ISSRTL_DEF_BRANCH

void Assembler::bicc(Opcode op, const Label& l, bool annul) {
  emit_branch(op, l, annul);
}

void Assembler::call(const Label& l) {
  if (!l.valid_) throw AssemblerError("call: invalid label");
  fixups_.push_back({prog_.code.size(), l.id_, FixKind::Call});
  emit(encode_call(0));
}

#define ISSRTL_DEF_ALU(name, op)                                          \
  void Assembler::name(Reg rd, Reg rs1, Reg rs2) {                        \
    emit(encode_f3_reg(Opcode::op, reg_num(rd), reg_num(rs1), reg_num(rs2))); \
  }                                                                       \
  void Assembler::name(Reg rd, Reg rs1, i32 simm13) {                     \
    emit(encode_f3_imm(Opcode::op, reg_num(rd), reg_num(rs1), simm13));   \
  }
ISSRTL_ALU_LIST(ISSRTL_DEF_ALU)
#undef ISSRTL_DEF_ALU

#define ISSRTL_DEF_MEM(name, op)                                          \
  void Assembler::name(Reg rd, Reg rs1, Reg rs2) {                        \
    emit(encode_f3_reg(Opcode::op, reg_num(rd), reg_num(rs1), reg_num(rs2))); \
  }                                                                       \
  void Assembler::name(Reg rd, Reg rs1, i32 simm13) {                     \
    emit(encode_f3_imm(Opcode::op, reg_num(rd), reg_num(rs1), simm13));   \
  }
ISSRTL_LOAD_LIST(ISSRTL_DEF_MEM)
ISSRTL_STORE_LIST(ISSRTL_DEF_MEM)
ISSRTL_DEF_MEM(ldstub, kLDSTUB)
ISSRTL_DEF_MEM(swap, kSWAP)
#undef ISSRTL_DEF_MEM

void Assembler::jmpl(Reg rd, Reg rs1, i32 simm13) {
  emit(encode_f3_imm(Opcode::kJMPL, reg_num(rd), reg_num(rs1), simm13));
}
void Assembler::jmpl(Reg rd, Reg rs1, Reg rs2) {
  emit(encode_f3_reg(Opcode::kJMPL, reg_num(rd), reg_num(rs1), reg_num(rs2)));
}
void Assembler::ret() { jmpl(Reg::g0, Reg::i7, 8); }
void Assembler::retl() { jmpl(Reg::g0, Reg::o7, 8); }

void Assembler::rdy(Reg rd) {
  emit(encode_f3_reg(Opcode::kRDY, reg_num(rd), 0, 0));
}
void Assembler::wry(Reg rs1, i32 simm13) {
  emit(encode_f3_imm(Opcode::kWRY, 0, reg_num(rs1), simm13));
}
void Assembler::ta(u8 trap_num) { emit(encode_ta(trap_num)); }
void Assembler::halt() { ta(0); }
void Assembler::flush(Reg rs1, i32 simm13) {
  emit(encode_f3_imm(Opcode::kFLUSH, 0, reg_num(rs1), simm13));
}

void Assembler::mov(Reg rd, Reg rs) { or_(rd, Reg::g0, rs); }
void Assembler::mov(Reg rd, i32 simm13) { or_(rd, Reg::g0, simm13); }
void Assembler::cmp(Reg rs1, Reg rs2) { subcc(Reg::g0, rs1, rs2); }
void Assembler::cmp(Reg rs1, i32 simm13) { subcc(Reg::g0, rs1, simm13); }
void Assembler::clr(Reg rd) { or_(rd, Reg::g0, Reg::g0); }
void Assembler::inc(Reg rd, i32 by) { add(rd, rd, by); }
void Assembler::dec(Reg rd, i32 by) { sub(rd, rd, by); }

u32 Assembler::data_u8(u8 v) {
  const u32 addr = data_cursor();
  prog_.data.push_back(v);
  return addr;
}
u32 Assembler::data_u16(u16 v) {
  align_data(2);
  const u32 addr = data_cursor();
  prog_.data.push_back(static_cast<u8>(v >> 8));
  prog_.data.push_back(static_cast<u8>(v));
  return addr;
}
u32 Assembler::data_u32(u32 v) {
  align_data(4);
  const u32 addr = data_cursor();
  prog_.data.push_back(static_cast<u8>(v >> 24));
  prog_.data.push_back(static_cast<u8>(v >> 16));
  prog_.data.push_back(static_cast<u8>(v >> 8));
  prog_.data.push_back(static_cast<u8>(v));
  return addr;
}
u32 Assembler::data_words(std::span<const u32> words) {
  align_data(4);
  const u32 addr = data_cursor();
  for (u32 w : words) data_u32(w);
  return addr;
}
u32 Assembler::data_zero(u32 bytes) {
  align_data(4);
  const u32 addr = data_cursor();
  prog_.data.insert(prog_.data.end(), bytes, 0);
  return addr;
}
void Assembler::align_data(u32 alignment) {
  while ((prog_.data.size() % alignment) != 0) prog_.data.push_back(0);
}
u32 Assembler::data_cursor() const noexcept {
  return prog_.data_base + static_cast<u32>(prog_.data.size());
}

void Assembler::def_symbol(const std::string& name, u32 addr) {
  prog_.symbols[name] = addr;
}

u32 Assembler::label_target(u32 id) const {
  const i64 addr = label_addr_[id];
  if (addr < 0) throw AssemblerError("finalize: unbound label");
  return static_cast<u32>(addr);
}

Program Assembler::finalize() {
  if (finalized_) throw AssemblerError("finalize called twice");
  finalized_ = true;
  for (const Fixup& f : fixups_) {
    const u32 pc = prog_.code_base + static_cast<u32>(4 * f.code_index);
    const i32 disp = static_cast<i32>(label_target(f.label_id) - pc);
    u32& word = prog_.code[f.code_index];
    const DecodedInst d = decode(word);
    if (f.kind == FixKind::Branch) {
      word = encode_branch(d.opcode, d.annul, disp);
    } else {
      word = encode_call(disp);
    }
  }
  // Sanity: the code may not overlap the data section.
  if (prog_.code_end() > prog_.data_base && !prog_.data.empty()) {
    throw AssemblerError("code section overlaps data section");
  }
  return std::move(prog_);
}

}  // namespace issrtl::isa
