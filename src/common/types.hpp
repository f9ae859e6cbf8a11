// Fundamental scalar types and bit-manipulation helpers shared by all modules.
#pragma once

#include <cstdint>
#include <cstddef>

namespace issrtl {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;
using i8 = std::int8_t;
using i16 = std::int16_t;
using i32 = std::int32_t;
using i64 = std::int64_t;

/// Extract bits [hi:lo] (inclusive, hi >= lo) from a 32-bit word.
constexpr u32 bits(u32 v, unsigned hi, unsigned lo) noexcept {
  const u32 width = hi - lo + 1;
  const u32 mask = (width >= 32) ? 0xFFFF'FFFFu : ((1u << width) - 1u);
  return (v >> lo) & mask;
}

/// Extract a single bit.
constexpr u32 bit(u32 v, unsigned pos) noexcept { return (v >> pos) & 1u; }

/// Sign-extend the low `width` bits of `v` to a full 32-bit signed value.
constexpr i32 sign_extend(u32 v, unsigned width) noexcept {
  const u32 shift = 32u - width;
  return static_cast<i32>(v << shift) >> shift;
}

/// Mask covering the low `width` bits (width in [0,64]).
constexpr u64 low_mask64(unsigned width) noexcept {
  return (width >= 64) ? ~0ull : ((1ull << width) - 1ull);
}

}  // namespace issrtl
