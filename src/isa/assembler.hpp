// Programmatic SPARC V8 assembler.
//
// Workload kernels are written against this builder API (typed registers,
// labels with fixups, data-section directives) and produce a Program image
// that both the ISS and the RTL core execute. Example:
//
//   Assembler a("demo");
//   auto buf = a.data_zero(64);
//   a.set32(Reg::o0, buf);
//   auto loop = a.label();
//   a.bind(loop);
//   a.subcc(Reg::o1, Reg::o1, 1);
//   a.bne(loop);
//   a.nop();                       // delay slot
//   a.halt();
//   Program p = a.finalize();
#pragma once

#include <span>
#include <string>
#include <vector>

#include "isa/encode.hpp"
#include "isa/program.hpp"
#include "isa/registers.hpp"

namespace issrtl::isa {

/// Opaque label handle. Obtain via Assembler::label(), place via bind().
class Label {
 public:
  Label() = default;

 private:
  friend class Assembler;
  explicit Label(u32 id) : id_(id), valid_(true) {}
  u32 id_ = 0;
  bool valid_ = false;
};

class AssemblerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Assembler {
 public:
  explicit Assembler(std::string name, u32 code_base = kDefaultCodeBase,
                     u32 data_base = kDefaultDataBase);

  // ---- labels -------------------------------------------------------------
  Label label();                ///< create an unbound label
  void bind(Label& l);          ///< bind at the next emitted instruction
  Label here();                 ///< create + bind in one step
  u32 current_pc() const noexcept;

  // ---- raw emission -------------------------------------------------------
  void emit(u32 word);

  // ---- format 2 -----------------------------------------------------------
  void sethi(Reg rd, u32 imm22);
  void nop();
  /// Materialise an arbitrary 32-bit constant (sethi/or pair, or single op).
  void set32(Reg rd, u32 value);

  // ---- branches (delay slot is the caller's responsibility) ---------------
#define ISSRTL_BRANCH_LIST(X)                                               \
  X(ba, kBA) X(bn, kBN) X(bne, kBNE) X(be, kBE) X(bg, kBG) X(ble, kBLE)     \
  X(bge, kBGE) X(bl, kBL) X(bgu, kBGU) X(bleu, kBLEU) X(bcc, kBCC)          \
  X(bcs, kBCS) X(bpos, kBPOS) X(bneg, kBNEG) X(bvc, kBVC) X(bvs, kBVS)
#define ISSRTL_DECL_BRANCH(name, op) void name(const Label& l, bool annul = false);
  ISSRTL_BRANCH_LIST(ISSRTL_DECL_BRANCH)
#undef ISSRTL_DECL_BRANCH

  /// Generic Bicc emitter for programmatically chosen branch opcodes.
  void bicc(Opcode op, const Label& l, bool annul = false);

  void call(const Label& l);

  // ---- format 3 ALU (reg and immediate forms) -----------------------------
#define ISSRTL_ALU_LIST(X)                                                   \
  X(add, kADD) X(addcc, kADDCC) X(addx, kADDX) X(addxcc, kADDXCC)            \
  X(sub, kSUB) X(subcc, kSUBCC) X(subx, kSUBX) X(subxcc, kSUBXCC)            \
  X(and_, kAND) X(andcc, kANDCC) X(andn, kANDN) X(andncc, kANDNCC)           \
  X(or_, kOR) X(orcc, kORCC) X(orn, kORN) X(orncc, kORNCC)                   \
  X(xor_, kXOR) X(xorcc, kXORCC) X(xnor, kXNOR) X(xnorcc, kXNORCC)           \
  X(sll, kSLL) X(srl, kSRL) X(sra, kSRA)                                     \
  X(umul, kUMUL) X(umulcc, kUMULCC) X(smul, kSMUL) X(smulcc, kSMULCC)        \
  X(udiv, kUDIV) X(udivcc, kUDIVCC) X(sdiv, kSDIV) X(sdivcc, kSDIVCC)        \
  X(mulscc, kMULSCC) X(taddcc, kTADDCC) X(tsubcc, kTSUBCC)                   \
  X(save, kSAVE) X(restore, kRESTORE)
#define ISSRTL_DECL_ALU(name, op)      \
  void name(Reg rd, Reg rs1, Reg rs2); \
  void name(Reg rd, Reg rs1, i32 simm13);
  ISSRTL_ALU_LIST(ISSRTL_DECL_ALU)
#undef ISSRTL_DECL_ALU

  // ---- memory (address = rs1 + rs2 | rs1 + simm13) -------------------------
#define ISSRTL_LOAD_LIST(X) \
  X(ld, kLD) X(ldub, kLDUB) X(ldsb, kLDSB) X(lduh, kLDUH) X(ldsh, kLDSH) X(ldd, kLDD)
#define ISSRTL_STORE_LIST(X) X(st, kST) X(stb, kSTB) X(sth, kSTH) X(std_, kSTD)
#define ISSRTL_DECL_MEM(name, op)       \
  void name(Reg rd, Reg rs1, Reg rs2);  \
  void name(Reg rd, Reg rs1, i32 simm13 = 0);
  ISSRTL_LOAD_LIST(ISSRTL_DECL_MEM)
  ISSRTL_STORE_LIST(ISSRTL_DECL_MEM)   // rd = store *source* register
  ISSRTL_DECL_MEM(ldstub, kLDSTUB)
  ISSRTL_DECL_MEM(swap, kSWAP)
#undef ISSRTL_DECL_MEM

  // ---- control / special ---------------------------------------------------
  void jmpl(Reg rd, Reg rs1, i32 simm13);
  void jmpl(Reg rd, Reg rs1, Reg rs2);
  void ret();   ///< jmpl %i7+8, %g0 (return from save-full routine)
  void retl();  ///< jmpl %o7+8, %g0 (leaf return)
  void rdy(Reg rd);
  void wry(Reg rs1, i32 simm13 = 0);
  void ta(u8 trap_num);
  void halt();  ///< ta 0 — simulation stop convention
  void flush(Reg rs1, i32 simm13 = 0);

  // ---- pseudo-instructions --------------------------------------------------
  void mov(Reg rd, Reg rs);
  void mov(Reg rd, i32 simm13);
  void cmp(Reg rs1, Reg rs2);
  void cmp(Reg rs1, i32 simm13);
  void clr(Reg rd);
  void inc(Reg rd, i32 by = 1);
  void dec(Reg rd, i32 by = 1);

  // ---- data section ----------------------------------------------------------
  u32 data_u8(u8 v);
  u32 data_u16(u16 v);
  u32 data_u32(u32 v);
  u32 data_words(std::span<const u32> words);
  u32 data_zero(u32 bytes);
  void align_data(u32 alignment);
  u32 data_cursor() const noexcept;

  /// Record a named address in the program's symbol table.
  void def_symbol(const std::string& name, u32 addr);

  /// Resolve all fixups and produce the immutable program image.
  Program finalize();

 private:
  enum class FixKind : u8 { Branch, Call };
  struct Fixup {
    std::size_t code_index;
    u32 label_id;
    FixKind kind;
  };

  void emit_branch(Opcode op, const Label& l, bool annul);
  u32 label_target(u32 id) const;

  Program prog_;
  std::vector<i64> label_addr_;  // -1 = unbound
  std::vector<Fixup> fixups_;
  bool finalized_ = false;
};

}  // namespace issrtl::isa
