#include "rtlcore/cache.hpp"

#include <bit>
#include <stdexcept>

namespace issrtl::rtlcore {

Cache::Cache(rtl::SimContext& ctx, const std::string& unit,
             const CacheConfig& cfg, Memory& mem, OffCoreTrace& bus)
    : cfg_(cfg),
      ctx_(&ctx),
      mem_(mem),
      bus_(bus),
      lines_(cfg.size_bytes / cfg.line_bytes),
      words_per_line_(cfg.line_bytes / 4),
      busy_(ctx.reg(unit.substr(unit.find('.') + 1) + "_busy", unit, 4)),
      pending_addr_(
          ctx.reg(unit.substr(unit.find('.') + 1) + "_pending", unit, 32)) {
  if (!std::has_single_bit(lines_) || !std::has_single_bit(words_per_line_)) {
    throw std::invalid_argument("Cache: geometry must be powers of two");
  }
  const u32 tag_bits = 32 - std::countr_zero(cfg.line_bytes) -
                       std::countr_zero(lines_);
  tags_.reserve(lines_);
  valids_.reserve(lines_);
  data_.reserve(lines_ * words_per_line_);
  for (u32 i = 0; i < lines_; ++i) {
    tags_.push_back(ctx.wire("tag" + std::to_string(i), unit,
                             static_cast<u8>(std::min(tag_bits, 32u))));
    valids_.push_back(ctx.wire("valid" + std::to_string(i), unit, 1));
  }
  for (u32 i = 0; i < lines_ * words_per_line_; ++i) {
    data_.push_back(ctx.wire("data" + std::to_string(i), unit, 32));
  }
  tag0_ = tags_[0].id();
  valid0_ = valids_[0].id();
  data0_ = data_[0].id();
  tag_mask_ = static_cast<u32>(low_mask64(ctx.width(tag0_)));
  // The lookups below and read_probe() index the arrays as one NodeId run.
  if (valid0_ != tag0_ + 1 || data0_ != tag0_ + 2 * lines_ ||
      data_.back().id() != data0_ + lines_ * words_per_line_ - 1) {
    throw std::logic_error("Cache: arrays are not consecutive nodes");
  }
}

rtl::ReadProbe Cache::read_probe() const {
  return {tag0_, std::vector<rtl::BitsSeen>(2 * lines_ +
                                            lines_ * words_per_line_)};
}

bool Cache::hit(u32 addr) const {
  // Tag i and valid i are 2 NodeIds apart (registered pairwise); data words
  // are consecutive. value_at skips the per-node handle loads.
  const u32 idx = line_index(addr);
  const u32 valid = ctx_->value_at(valid0_ + 2 * idx);
  const u32 tag = ctx_->value_at(tag0_ + 2 * idx);
  if (reads_ != nullptr) [[unlikely]] {
    reads_->record(valid0_ + 2 * idx, valid, 1);
    // An invalid line's tag reaches nothing.
    if (valid != 0) reads_->record(tag0_ + 2 * idx, tag, tag_mask_);
  }
  return valid != 0 && tag == tag_of(addr);
}

u32 Cache::read_word(u32 addr) const {
  const rtl::NodeId id = data0_ + word_slot(addr);
  const u32 v = ctx_->value_at(id);
  if (reads_ != nullptr) [[unlikely]] reads_->record(id, v);
  return v;
}

void Cache::fill_line(u32 addr) {
  const u32 idx = line_index(addr);
  const u32 base = addr & ~(cfg_.line_bytes - 1);
  for (u32 w = 0; w < words_per_line_; ++w) {
    data_[idx * words_per_line_ + w].w(mem_.load_u32(base + 4 * w));
  }
  tags_[idx].w(tag_of(addr));
  valids_[idx].w(1);
}

bool Cache::step_load(u32 addr, u32& out) {
  if (busy_.r() > 0) {
    const u32 left = busy_.r() - 1;
    busy_.n(left);
    if (left == 0) {
      fill_line(pending_addr_.r());
      out = read_word(addr);
      return true;
    }
    return false;
  }
  if (hit(addr)) {
    out = read_word(addr);
    return true;
  }
  busy_.n(cfg_.miss_penalty);
  pending_addr_.n(addr);
  return false;
}

void Cache::store(u64 cycle, u32 addr, u8 size, u32 value) {
  // Bus write first (write-through), then update the line if present.
  const u64 masked = value & low_mask64(8u * size);
  bus_.record_write(cycle, addr, size, masked);
  switch (size) {
    case 1: mem_.store_u8(addr, static_cast<u8>(value)); break;
    case 2: mem_.store_u16(addr, static_cast<u16>(value)); break;
    default: mem_.store_u32(addr, value); break;
  }
  if (!hit(addr)) return;  // no-allocate
  rtl::Sig& word = data_[word_slot(addr)];
  if (size == 4) {
    word.w(value);  // replaces the word without reading it
    return;
  }
  // Read-modify-write of the 1- or 2-byte lane (big-endian lane order).
  const u32 lane = size == 2 ? 0xFFFFu : 0xFFu;
  const u32 shift = (4 - size - (addr & 3u)) * 8;
  word.w((read_word(addr) & ~(lane << shift)) | ((value & lane) << shift));
}

void Cache::invalidate_all() {
  for (rtl::Sig& v : valids_) v.w(0);
  busy_.poke(0);
}

}  // namespace issrtl::rtlcore
