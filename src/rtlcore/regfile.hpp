// Windowed SPARC register file as an RTL module: one register node per
// physical entry (8 globals + 8 windows x 16), all injectable.
#pragma once

#include <stdexcept>
#include <vector>

#include "isa/registers.hpp"
#include "rtl/kernel.hpp"

namespace issrtl::rtlcore {

class RegFile {
 public:
  explicit RegFile(rtl::SimContext& ctx) {
    regs_.reserve(iss_phys_count());
    for (unsigned i = 0; i < iss_phys_count(); ++i) {
      // Sparse-commit registers: at most two of the 136 entries are written
      // per cycle (the WB ports), so the clock edge commits them from the
      // dirty list instead of copying the whole file every cycle.
      regs_.push_back(ctx.reg_sparse(entry_name(i), "iu.regfile", 32));
    }
    // read_probe() covers the entries as one NodeId run.
    if (regs_.back().id() != regs_.front().id() + iss_phys_count() - 1) {
      throw std::logic_error("RegFile: entries are not consecutive nodes");
    }
  }

  static constexpr unsigned iss_phys_count() {
    return 8 + isa::kWindowedRegs;
  }

  /// Combinational read port (fault overlay applied), the only path by
  /// which an entry's value reaches the rest of the core. `phys` can carry
  /// a fault (e.g. a stuck bit in a dphys latch) and exceed the table; the
  /// address decoder aliases out-of-range indices back into it, like
  /// hardware ignoring unimplemented address bits. While record_reads() is
  /// on, every value returned is also recorded under the entry actually
  /// read.
  u32 read_phys(unsigned phys) const {
    const rtl::Sig& entry = regs_[wrap(phys)];
    const u32 v = entry.r();
    if (reads_ != nullptr) [[unlikely]] reads_->record(entry.id(), v);
    return v;
  }

  /// Architectural read under a window pointer.
  u32 read(unsigned arch_reg, unsigned cwp) const {
    if (arch_reg == 0) return 0;
    return read_phys(isa::phys_reg_index(arch_reg, cwp));
  }

  /// Synchronous write port (takes effect at the clock edge). Same
  /// address-decoder aliasing as read_phys for faulted indices.
  void write_phys(unsigned phys, u32 value) {
    phys = wrap(phys);
    if (phys == 0) return;  // %g0
    regs_[phys].ns(value);  // sparse-commit: record the pending node
  }

  /// Backdoor initialisation (reset state), bypassing the clock.
  void poke_phys(unsigned phys, u32 value) { regs_.at(phys).poke(value); }

  /// Raw (unfaulted) value for cosimulation state comparison.
  u32 peek_phys(unsigned phys) const { return regs_.at(phys).raw(); }

  /// An empty probe over every entry, for record_reads().
  rtl::ReadProbe read_probe() const {
    return {regs_.front().id(), std::vector<rtl::BitsSeen>(regs_.size())};
  }

  /// Start recording every value read_phys returns into `*probe` (from
  /// read_probe()), or stop with nullptr. The caller owns the probe.
  void record_reads(rtl::ReadProbe* probe) noexcept { reads_ = probe; }

 private:
  static unsigned wrap(unsigned phys) {
    return phys < iss_phys_count() ? phys : phys % iss_phys_count();
  }

  static std::string entry_name(unsigned i) {
    if (i < 8) return "r_g" + std::to_string(i);
    const unsigned w = (i - 8) / 16, k = (i - 8) % 16;
    return "r_w" + std::to_string(w) + "_" + std::to_string(k);
  }

  std::vector<rtl::Sig> regs_;
  rtl::ReadProbe* reads_ = nullptr;  ///< record_reads() target, or none
};

}  // namespace issrtl::rtlcore
