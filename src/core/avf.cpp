#include "core/avf.hpp"

#include <stdexcept>
#include <vector>

#include "isa/decode.hpp"
#include "isa/reg_use.hpp"
#include "iss/emulator.hpp"

namespace issrtl::core {

AvfReport analyze_register_avf(const isa::Program& prog, u64 max_steps) {
  Memory mem;
  iss::Emulator emu(mem);
  emu.load(prog);

  constexpr unsigned kRegs = iss::ArchState::kPhysRegs;
  std::vector<u64> last_write(kRegs, 0);
  std::vector<u64> ace_time(kRegs, 0);
  std::vector<bool> live_read_pending(kRegs, false);
  std::vector<u64> last_read(kRegs, 0);

  u64 t = 0;
  while (emu.halt_reason() == iss::HaltReason::kRunning && t < max_steps) {
    const u32 pc = emu.state().pc;
    const isa::DecodedInst d = isa::decode(emu.memory().load_u32(pc));
    const isa::RegUse use = isa::reg_use(d, emu.state().cwp);
    ++t;
    for (unsigned i = 0; i < use.nsrc; ++i) {
      const unsigned r = use.src[i];
      last_read[r] = t;
      live_read_pending[r] = true;
    }
    for (unsigned i = 0; i < use.ndst; ++i) {
      const unsigned r = use.dst[i];
      // Close the previous definition's interval: ACE up to its last read.
      if (live_read_pending[r] && last_read[r] >= last_write[r]) {
        ace_time[r] += last_read[r] - last_write[r];
      }
      last_write[r] = t;
      live_read_pending[r] = false;
    }
    if (emu.step() != iss::HaltReason::kRunning) break;
  }
  if (emu.halt_reason() != iss::HaltReason::kHalted) {
    throw std::runtime_error("analyze_register_avf: program did not halt");
  }
  // Close all open intervals at program end.
  for (unsigned r = 0; r < kRegs; ++r) {
    if (live_read_pending[r] && last_read[r] >= last_write[r]) {
      ace_time[r] += last_read[r] - last_write[r];
    }
  }

  AvfReport rep;
  rep.instructions = t;
  if (t == 0) return rep;
  double sum = 0.0;
  for (unsigned r = 0; r < kRegs; ++r) {
    rep.per_reg[r] = static_cast<double>(ace_time[r]) / static_cast<double>(t);
    if (r != 0) sum += rep.per_reg[r];
  }
  rep.regfile_avf = sum / (kRegs - 1);
  return rep;
}

}  // namespace issrtl::core
