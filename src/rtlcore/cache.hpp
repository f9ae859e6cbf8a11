// CMEM: direct-mapped, write-through, no-allocate caches with tag/valid/data
// arrays modelled as injectable nodes (HDL "variables" — immediate update).
//
// The write-through policy matters for the methodology: every store reaches
// the bus in program order, so a golden RTL run and the (cache-less)
// functional ISS produce the same off-core write sequence, and any faulty
// deviation is observable at the lockstep comparison boundary.
#pragma once

#include <string>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "rtl/kernel.hpp"

namespace issrtl::rtlcore {

struct CacheConfig {
  u32 size_bytes = 1024;
  u32 line_bytes = 16;
  u32 miss_penalty = 5;  ///< stall cycles on a miss before the line fill
};

class Cache {
 public:
  Cache(rtl::SimContext& ctx, const std::string& unit, const CacheConfig& cfg,
        Memory& mem, OffCoreTrace& bus);

  /// Advance one cycle while an access is pending. Returns true when the
  /// pending (or newly issued) access at `addr` completes this cycle, with
  /// the loaded 32-bit word in `out`.
  bool step_load(u32 addr, u32& out);

  /// Write-through store (completes in one cycle, no allocation). `size` is
  /// 1, 2 or 4 and `addr` already verified aligned by the core.
  void store(u64 cycle, u32 addr, u8 size, u32 value);

  /// True while a refill is in progress (pipeline must stall).
  bool busy() const { return busy_.r() != 0; }

  /// Abandon an in-flight refill (fetch redirect); the line stays invalid.
  void abort() { busy_.n(0); }

  void invalidate_all();

  /// An empty probe over the tag, valid and data arrays, for
  /// record_reads().
  rtl::ReadProbe read_probe() const;

  /// Start recording every value the arrays' read ports return into
  /// `*probe` (from read_probe()), or stop with nullptr. The ports are
  /// hit() (valid, then tag only when valid is set), read_word() and the
  /// read half of a 1- or 2-byte store's read-modify-write; line fills,
  /// full-word stores and invalidation only write. The caller owns the
  /// probe.
  void record_reads(rtl::ReadProbe* probe) noexcept { reads_ = probe; }

 private:
  u32 line_index(u32 addr) const { return (addr / cfg_.line_bytes) % lines_; }
  u32 tag_of(u32 addr) const { return addr / cfg_.line_bytes / lines_; }
  u32 word_slot(u32 addr) const {
    return line_index(addr) * words_per_line_ + ((addr / 4) % words_per_line_);
  }
  bool hit(u32 addr) const;
  void fill_line(u32 addr);
  u32 read_word(u32 addr) const;

  CacheConfig cfg_;
  rtl::SimContext* ctx_;
  Memory& mem_;
  OffCoreTrace& bus_;
  u32 lines_;
  u32 words_per_line_;
  std::vector<rtl::Sig> tags_;
  std::vector<rtl::Sig> valids_;
  std::vector<rtl::Sig> data_;
  // First NodeIds of the hit/read fast path: the tag/valid pairs and the
  // data words are registered consecutively, so a lookup is one value_at()
  // at an offset instead of a Sig-handle load per node.
  rtl::NodeId tag0_ = 0, valid0_ = 0, data0_ = 0;
  u32 tag_mask_ = 0;                  ///< width mask of the tag nodes
  rtl::ReadProbe* reads_ = nullptr;  ///< record_reads() target, or none
  rtl::Sig busy_;
  rtl::Sig pending_addr_;
};

}  // namespace issrtl::rtlcore
