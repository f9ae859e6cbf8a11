// Off-core bus activity trace.
//
// The paper defines failure manifestation at "off-core boundaries": the point
// where light-lockstep microcontrollers (Infineon AURIX, ST SPC56XL) compare
// the two cores' activity. For our Leon3-like core that boundary is the AHB-
// style memory bus: every store (write-through D-cache) and every cache-line
// fill leaves the core here. Failure classification compares *write* records;
// read records are kept for diagnostics and lockstep experiments.
#pragma once

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace issrtl {

enum class BusOp : u8 { Read, Write };

/// One off-core transaction.
struct BusRecord {
  u64 cycle = 0;    ///< core cycle at which the transaction hit the bus
  BusOp op = BusOp::Write;
  u32 addr = 0;
  u8 size = 4;      ///< bytes: 1, 2, 4 or 8
  u64 data = 0;     ///< value transferred (in the low `size` bytes)

  bool same_payload(const BusRecord& o) const noexcept {
    return op == o.op && addr == o.addr && size == o.size && data == o.data;
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

/// Records off-core transactions in program order.
class OffCoreTrace {
 public:
  void record(const BusRecord& r) {
    if (r.op == BusOp::Write) writes_.push_back(r); else reads_.push_back(r);
  }
  void record_write(u64 cycle, u32 addr, u8 size, u64 data) {
    writes_.push_back({cycle, BusOp::Write, addr, size, data});
  }
  void record_read(u64 cycle, u32 addr, u8 size, u64 data) {
    reads_.push_back({cycle, BusOp::Read, addr, size, data});
  }

  const std::vector<BusRecord>& writes() const noexcept { return writes_; }
  const std::vector<BusRecord>& reads() const noexcept { return reads_; }

  void clear() { writes_.clear(); reads_.clear(); }

  /// Become the first `writes` write records and `reads` read records of
  /// `src` (clamped to src's actual lengths; `src` may be this trace, which
  /// truncates it). This is how checkpoint restores rebuild a simulator's
  /// bus history: a checkpoint stores only the two prefix *lengths* instead
  /// of an O(instant) trace copy, because every ladder rung is taken on the
  /// golden run — its trace is by construction a prefix of the golden trace
  /// the campaign backend already holds.
  void assign_prefix(const OffCoreTrace& src, std::size_t writes,
                     std::size_t reads) {
    if (&src == this) {
      writes_.resize(std::min(writes, writes_.size()));
      reads_.resize(std::min(reads, reads_.size()));
      return;
    }
    writes_.assign(src.writes_.begin(),
                   src.writes_.begin() +
                       static_cast<std::ptrdiff_t>(
                           std::min(writes, src.writes_.size())));
    reads_.assign(src.reads_.begin(),
                  src.reads_.begin() + static_cast<std::ptrdiff_t>(
                                           std::min(reads, src.reads_.size())));
  }

  /// Compare this (faulty) trace's writes against a golden trace's writes.
  /// Order, address, size and value must all match; a shorter sequence is a
  /// divergence at the truncation point.
  TraceDivergence compare_writes(const OffCoreTrace& golden) const;

 private:
  std::vector<BusRecord> writes_;
  std::vector<BusRecord> reads_;
};

}  // namespace issrtl
