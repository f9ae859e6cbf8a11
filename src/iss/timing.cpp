#include "iss/timing.hpp"

#include <bit>
#include <stdexcept>

namespace issrtl::iss {

namespace {
constexpr u32 kCacheBytes = 1024;        // each of the I- and D-cache
constexpr u32 kLineBytes = 16;
constexpr u32 kMissPenalty = 6;          // cycles to refill one line
constexpr u32 kTakenBranchPenalty = 2;   // pipeline bubbles after a taken CTI
constexpr u32 kLoadUsePenalty = 1;       // load feeding the next instruction
}  // namespace

CacheSim::CacheSim(u32 size_bytes, u32 line_bytes) : line_bytes_(line_bytes) {
  if (size_bytes == 0 || line_bytes == 0 ||
      !std::has_single_bit(size_bytes) || !std::has_single_bit(line_bytes) ||
      line_bytes > size_bytes) {
    throw std::invalid_argument("CacheSim: sizes must be powers of two");
  }
  const u32 n = size_bytes / line_bytes;
  tags_.assign(n, 0);
  valid_.assign(n, false);
  index_mask_ = n - 1;
}

bool CacheSim::access(u32 addr) {
  const u32 line = addr / line_bytes_;
  const u32 idx = line & index_mask_;
  const u32 tag = line >> std::countr_zero(index_mask_ + 1);
  if (valid_[idx] && tags_[idx] == tag) {
    ++hits_;
    return true;
  }
  ++misses_;
  valid_[idx] = true;
  tags_[idx] = tag;
  return false;
}

void CacheSim::flush() { valid_.assign(valid_.size(), false); }

TimingModel::TimingModel()
    : icache_(kCacheBytes, kLineBytes), dcache_(kCacheBytes, kLineBytes) {}

void TimingModel::reset() {
  icache_ = CacheSim(kCacheBytes, kLineBytes);
  dcache_ = CacheSim(kCacheBytes, kLineBytes);
  cycles_ = instructions_ = 0;
  branch_bubbles_ = interlock_stalls_ = latency_stalls_ = 0;
  last_was_load_ = false;
  last_rd_ = 0;
}

void TimingModel::on_fetch(u32 pc, const isa::DecodedInst& d) {
  ++instructions_;
  ++cycles_;  // base: one issue slot per instruction

  if (!icache_.access(pc)) cycles_ += kMissPenalty;

  const auto& info = isa::opcode_info(d.opcode);
  if (info.latency > 1) {
    const u32 extra = info.latency - 1;
    cycles_ += extra;
    latency_stalls_ += extra;
  }

  // Load-use interlock: a load result consumed by the very next instruction.
  if (last_was_load_ && last_rd_ != 0) {
    const bool uses =
        d.rs1 == last_rd_ || (!d.uses_imm && d.rs2 == last_rd_) ||
        (d.iclass == isa::InstClass::kStore && d.rd == last_rd_);
    if (uses) {
      cycles_ += kLoadUsePenalty;
      interlock_stalls_ += kLoadUsePenalty;
    }
  }
  last_was_load_ = d.iclass == isa::InstClass::kLoad ||
                   d.iclass == isa::InstClass::kAtomic;
  last_rd_ = last_was_load_ ? d.rd : 0;
}

void TimingModel::on_branch(bool taken) {
  if (taken) {
    cycles_ += kTakenBranchPenalty;
    branch_bubbles_ += kTakenBranchPenalty;
  }
}

void TimingModel::on_memory_access(u32 addr, bool is_store) {
  // Write-through no-allocate: stores go straight to the bus and do not
  // allocate; they only probe for hit (to update the line).
  if (is_store) {
    // Probing without allocation: count as neither hit nor miss penalty-wise;
    // the write buffer hides the bus write in this simple model.
    return;
  }
  if (!dcache_.access(addr)) cycles_ += kMissPenalty;
}

TimingStats TimingModel::stats() const {
  TimingStats s;
  s.cycles = cycles_;
  s.instructions = instructions_;
  s.icache_hits = icache_.hits();
  s.icache_misses = icache_.misses();
  s.dcache_hits = dcache_.hits();
  s.dcache_misses = dcache_.misses();
  s.branch_bubbles = branch_bubbles_;
  s.interlock_stalls = interlock_stalls_;
  s.latency_stalls = latency_stalls_;
  return s;
}

}  // namespace issrtl::iss
