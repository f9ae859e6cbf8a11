// Instruction-level trace: the information the ISS "dumps" per §3 of the
// paper. From it we derive the diversity metric (unique instruction types),
// per-functional-unit diversity D_m, and the Table 1 characterisation counts.
//
// record() is on the emulator's per-instruction hot path, so it is a single
// array increment; everything else (per-unit counts, seen-sets) is derived
// from counts_ on demand — observers are O(kNumOpcodes), which is fine for
// reporting, and the checkpoint footprint shrinks to one array.
#pragma once

#include <array>

#include "common/types.hpp"
#include "isa/opcode.hpp"

namespace issrtl::iss {

class InstrTrace {
 public:
  void record(isa::Opcode op) noexcept {
    ++counts_[static_cast<std::size_t>(op)];
  }

  /// Dynamic count of one instruction type.
  u64 count(isa::Opcode op) const noexcept {
    return counts_[static_cast<std::size_t>(op)];
  }

  /// Total dynamic instructions executed.
  u64 total() const noexcept {
    u64 t = 0;
    for (u64 c : counts_) t += c;
    return t;
  }

  /// Instructions that flow through the integer unit (everything except the
  /// trap/flush plumbing, matching the small total-vs-IU delta in Table 1).
  u64 integer_unit_total() const noexcept {
    return total() - count(isa::Opcode::kTA) - count(isa::Opcode::kFLUSH);
  }

  /// Memory instructions (loads, stores, atomics) — Table 1 "Memory" row.
  u64 memory_total() const noexcept {
    u64 t = 0;
    for (std::size_t i = 0; i < isa::kNumOpcodes; ++i) {
      if (isa::is_memory_op(static_cast<isa::Opcode>(i))) t += counts_[i];
    }
    return t;
  }

  /// The paper's diversity metric: number of unique instruction types
  /// (opcodes) executed by the application.
  unsigned diversity() const noexcept {
    unsigned n = 0;
    for (u64 c : counts_) n += (c != 0) ? 1u : 0u;
    return n;
  }

  /// Per-functional-unit diversity D_m: unique instruction types that
  /// exercise unit m.
  unsigned unit_diversity(isa::FuncUnit u) const noexcept {
    const u32 bit = 1u << static_cast<std::size_t>(u);
    unsigned n = 0;
    for (std::size_t i = 0; i < isa::kNumOpcodes; ++i) {
      if (counts_[i] != 0 &&
          (isa::opcode_info(static_cast<isa::Opcode>(i)).units & bit) != 0) {
        ++n;
      }
    }
    return n;
  }

  /// Dynamic accesses to unit m.
  u64 unit_accesses(isa::FuncUnit u) const noexcept {
    const u32 bit = 1u << static_cast<std::size_t>(u);
    u64 t = 0;
    for (std::size_t i = 0; i < isa::kNumOpcodes; ++i) {
      if ((isa::opcode_info(static_cast<isa::Opcode>(i)).units & bit) != 0) {
        t += counts_[i];
      }
    }
    return t;
  }

  void clear() { counts_.fill(0); }

 private:
  std::array<u64, isa::kNumOpcodes> counts_{};
};

}  // namespace issrtl::iss
