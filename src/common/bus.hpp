// Off-core bus activity trace.
//
// The paper defines failure manifestation at "off-core boundaries": the point
// where light-lockstep microcontrollers (Infineon AURIX, ST SPC56XL) compare
// the two cores' activity. For our Leon3-like core that boundary is the AHB-
// style memory bus. Every store leaves the core here (the D-cache is
// write-through), and failure classification compares those writes, so
// they are all this trace records.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace issrtl {

/// One off-core write.
struct BusRecord {
  u64 cycle = 0;    ///< core cycle at which the write hit the bus
  u32 addr = 0;
  u8 size = 4;      ///< bytes: 1, 2, 4 or 8
  u64 data = 0;     ///< value transferred (in the low `size` bytes)

  bool same_payload(const BusRecord& o) const noexcept {
    return addr == o.addr && size == o.size && data == o.data;
  }
};

std::string to_string(const BusRecord& r);

/// Result of comparing a run's write sequence against a golden sequence.
struct TraceDivergence {
  bool diverged = false;
  std::size_t index = 0;   ///< first differing write index (or min length)
  u64 cycle = 0;           ///< cycle of the diverging (or missing) write
  std::string detail;      ///< human-readable description
};

/// Records off-core writes in program order.
class OffCoreTrace {
 public:
  void record_write(u64 cycle, u32 addr, u8 size, u64 data) {
    writes_.push_back({cycle, addr, size, data});
  }

  const std::vector<BusRecord>& writes() const noexcept { return writes_; }

  void clear() { writes_.clear(); }

  /// Become the first `writes` write records of `src` (clamped to src's
  /// actual length; `src` may be this trace, which truncates it). This is
  /// how checkpoint restores rebuild a simulator's bus history: a
  /// checkpoint stores only the prefix *length* instead of an O(instant)
  /// trace copy, because every ladder rung is taken on the golden run — its
  /// trace is by construction a prefix of the golden trace the campaign
  /// backend already holds.
  void assign_prefix(const OffCoreTrace& src, std::size_t writes) {
    if (&src == this) {
      writes_.resize(std::min(writes, writes_.size()));
      return;
    }
    writes_.assign(src.writes_.begin(),
                   src.writes_.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(writes, src.writes_.size())));
  }

  /// Compare this (faulty) trace's writes against a golden trace's writes.
  /// Order, address, size and value must all match; a shorter sequence is a
  /// divergence at the truncation point.
  TraceDivergence compare_writes(const OffCoreTrace& golden) const;

 private:
  std::vector<BusRecord> writes_;
};

}  // namespace issrtl
