// Register-file traffic of one SPARC V8 instruction: which physical
// registers it reads and writes under a window pointer. The def/use
// liveness behind register AVF (core/avf.cpp) and the ISS campaign's
// activation pre-screen (engine/iss_backend.cpp) both rest on it, so the
// source set must hold every register iss::Emulator reads while executing
// the instruction (tests/test_iss.cpp checks it against the emulator).
#pragma once

#include <array>

#include "isa/decode.hpp"

namespace issrtl::isa {

/// Physical register indices (isa::phys_reg_index) an instruction reads
/// (`src`) and writes (`dst`); %g0 appears in neither.
struct RegUse {
  std::array<unsigned, 4> src{};
  unsigned nsrc = 0;
  std::array<unsigned, 2> dst{};
  unsigned ndst = 0;
};

/// Register use of `d` executed under window pointer `cwp`. Every read
/// precedes every write of the same instruction, so the values read are
/// the register file before the instruction.
RegUse reg_use(const DecodedInst& d, unsigned cwp);

}  // namespace issrtl::isa
