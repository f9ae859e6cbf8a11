// Timing simulator: the second half of the ISS (paper Fig. 1b).
//
// Mimics the Leon3-like 7-stage pipeline timing at low cost: one cycle per
// issued instruction plus multicycle execute latencies (mul/div), taken-
// branch bubbles, load-use interlocks and I/D cache hit/miss behaviour.
// It never affects functional results — the paper's method deliberately uses
// "little timing information (basically instructions latency)".
#pragma once

#include <vector>

#include "common/types.hpp"
#include "isa/decode.hpp"

namespace issrtl::iss {

/// Behavioural cache model (direct-mapped, write-through, no-allocate),
/// mirroring the RTL CMEM configuration so hit/miss counts are comparable.
class CacheSim {
 public:
  CacheSim(u32 size_bytes, u32 line_bytes);

  /// Access `addr`; returns true on hit. A miss fills the line.
  bool access(u32 addr);

  /// Invalidate everything (e.g. FLUSH).
  void flush();

  u64 hits() const noexcept { return hits_; }
  u64 misses() const noexcept { return misses_; }
  u32 lines() const noexcept { return static_cast<u32>(tags_.size()); }
  u32 line_bytes() const noexcept { return line_bytes_; }

 private:
  u32 line_bytes_;
  u32 index_mask_;
  std::vector<u32> tags_;
  std::vector<bool> valid_;
  u64 hits_ = 0;
  u64 misses_ = 0;
};

struct TimingStats {
  u64 cycles = 0;
  u64 instructions = 0;
  u64 icache_hits = 0, icache_misses = 0;
  u64 dcache_hits = 0, dcache_misses = 0;
  u64 branch_bubbles = 0;
  u64 interlock_stalls = 0;
  u64 latency_stalls = 0;

  double cpi() const noexcept {
    return instructions == 0 ? 0.0
                             : static_cast<double>(cycles) /
                                   static_cast<double>(instructions);
  }
};

class TimingModel {
 public:
  TimingModel();

  // Hooks driven by the Emulator, in instruction order.
  void on_fetch(u32 pc, const isa::DecodedInst& d);
  void on_branch(bool taken);
  void on_memory_access(u32 addr, bool is_store);

  TimingStats stats() const;
  u64 cycles() const noexcept { return cycles_; }
  void reset();

 private:
  CacheSim icache_;
  CacheSim dcache_;
  u64 cycles_ = 0;
  u64 instructions_ = 0;
  u64 branch_bubbles_ = 0;
  u64 interlock_stalls_ = 0;
  u64 latency_stalls_ = 0;
  // load-use tracking
  bool last_was_load_ = false;
  u8 last_rd_ = 0;
};

}  // namespace issrtl::iss
