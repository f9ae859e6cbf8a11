// Shared "test harness" runtime emitted into every automotive kernel.
//
// EEMBC Autobench benchmarks share a common harness (data setup, iteration
// driver, checksum/CRC reporting); that shared code is why the published
// Table 1 diversities cluster at 47-48 across very different kernels. We
// reproduce the effect with an explicit harness: a checksum/report routine
// with a wide, fixed instruction-type footprint that kernels call once per
// iteration, plus data-generation and loop helpers.
//
// Register conventions (globals survive SAVE/RESTORE):
//   %g5 = input data base      %g6 = output pointer
//   %g7 = running checksum
#pragma once

#include <vector>

#include "isa/assembler.hpp"

namespace issrtl::workloads {

using isa::Assembler;
using isa::Label;
using isa::Reg;

/// Deterministic input data derived from (kernel name, seed).
std::vector<u32> gen_data(const std::string& tag, u64 seed, std::size_t count,
                          u32 lo = 0, u32 hi = 0xFFFF);

/// Emit the standard prologue: allocate the output area (returns its
/// address, also bound to symbol "out"), point %g6 at it, clear %g7.
/// `out_words` is the capacity of the result buffer.
u32 emit_prologue(Assembler& a, u32 out_words = 64);

/// Emit a data table and point %g5 at it. Returns the table address.
u32 emit_input_table(Assembler& a, const std::vector<u32>& values);

/// Store %g7 (checksum) through %g6 and advance %g6 by 4 — one off-core
/// write, the failure-manifestation event the campaigns compare.
void emit_report(Assembler& a);

/// Emit the shared harness routine body at the current position and return
/// its entry label. Call with `a.call(label); a.nop();`. Clobbers %l0-%l7 and
/// %o0-%o5 of its own register window (it SAVEs), folds into %g7, emits one
/// report store. Exercises a fixed wide set of instruction types (~40).
Label emit_harness_routine(Assembler& a);

}  // namespace issrtl::workloads
