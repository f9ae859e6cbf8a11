// Unit tests for the common substrate: bit utilities, sparse memory,
// deterministic RNG and off-core trace comparison.
#include <gtest/gtest.h>

#include "common/bus.hpp"
#include "common/memory.hpp"
#include "common/rng.hpp"
#include "common/types.hpp"

namespace issrtl {
namespace {

TEST(Bits, ExtractRanges) {
  EXPECT_EQ(bits(0xDEADBEEF, 31, 28), 0xDu);
  EXPECT_EQ(bits(0xDEADBEEF, 3, 0), 0xFu);
  EXPECT_EQ(bits(0xDEADBEEF, 31, 0), 0xDEADBEEFu);
  EXPECT_EQ(bits(0xFF00, 15, 8), 0xFFu);
  EXPECT_EQ(bit(0x8000'0000u, 31), 1u);
  EXPECT_EQ(bit(0x8000'0000u, 30), 0u);
}

TEST(Bits, SignExtend) {
  EXPECT_EQ(sign_extend(0x1FFF, 13), -1);
  EXPECT_EQ(sign_extend(0x0FFF, 13), 4095);
  EXPECT_EQ(sign_extend(0x1000, 13), -4096);
  EXPECT_EQ(sign_extend(0x3F'FFFF, 22), -1);
  EXPECT_EQ(sign_extend(0, 22), 0);
}

TEST(Memory, ZeroOnFirstRead) {
  Memory m;
  EXPECT_EQ(m.load_u32(0x40000000), 0u);
  EXPECT_EQ(m.allocated_pages(), 0u);
}

TEST(Memory, BigEndianLayout) {
  Memory m;
  m.store_u32(0x1000, 0x11223344);
  EXPECT_EQ(m.load_u8(0x1000), 0x11);
  EXPECT_EQ(m.load_u8(0x1001), 0x22);
  EXPECT_EQ(m.load_u8(0x1002), 0x33);
  EXPECT_EQ(m.load_u8(0x1003), 0x44);
  EXPECT_EQ(m.load_u16(0x1000), 0x1122);
  EXPECT_EQ(m.load_u16(0x1002), 0x3344);
}

TEST(Memory, U64RoundTrip) {
  Memory m;
  m.store_u64(0x2000, 0x0102030405060708ull);
  EXPECT_EQ(m.load_u64(0x2000), 0x0102030405060708ull);
  EXPECT_EQ(m.load_u32(0x2000), 0x01020304u);
  EXPECT_EQ(m.load_u32(0x2004), 0x05060708u);
}

TEST(Memory, CrossPageAccess) {
  Memory m;
  const u32 addr = Memory::kPageSize - 2;
  m.store_u32(addr, 0xAABBCCDD);
  EXPECT_EQ(m.load_u32(addr), 0xAABBCCDDu);
  EXPECT_EQ(m.allocated_pages(), 2u);
}

TEST(Memory, BlockReadWrite) {
  Memory m;
  const u8 data[5] = {1, 2, 3, 4, 5};
  m.write_block(0x3000, data, sizeof data);
  u8 out[5] = {};
  m.read_block(0x3000, out, sizeof out);
  EXPECT_EQ(0, std::memcmp(data, out, sizeof data));
}

TEST(Memory, CloneIsDeep) {
  Memory m;
  m.store_u32(0x1000, 42);
  Memory c = m.clone();
  c.store_u32(0x1000, 43);
  EXPECT_EQ(m.load_u32(0x1000), 42u);
  EXPECT_EQ(c.load_u32(0x1000), 43u);
}

TEST(Memory, CowCloneSharesUntilWrite) {
  Memory m;
  m.store_u32(0x1000, 42);
  m.store_u32(0x5000, 7);  // second page
  Memory c = m.clone();
  EXPECT_TRUE(m.equals(c));

  // Write to one image: only that page un-shares, the other is unaffected.
  c.store_u32(0x1000, 99);
  EXPECT_EQ(m.load_u32(0x1000), 42u);
  EXPECT_EQ(c.load_u32(0x1000), 99u);
  EXPECT_EQ(m.load_u32(0x5000), 7u);
  EXPECT_EQ(c.load_u32(0x5000), 7u);
  EXPECT_FALSE(m.equals(c));

  // Writing back through the original does not leak into the clone either.
  m.store_u32(0x5000, 8);
  EXPECT_EQ(c.load_u32(0x5000), 7u);
}

TEST(Memory, CowCloneOfCloneIsIndependent) {
  Memory a;
  a.store_u8(0x2000, 1);
  Memory b = a.clone();
  Memory c = b.clone();
  b.store_u8(0x2000, 2);
  c.store_u8(0x2000, 3);
  EXPECT_EQ(a.load_u8(0x2000), 1);
  EXPECT_EQ(b.load_u8(0x2000), 2);
  EXPECT_EQ(c.load_u8(0x2000), 3);
}

TEST(Memory, CowEqualsUnaffectedBySharing) {
  Memory m;
  for (u32 p = 0; p < 8; ++p) m.store_u32(0x1000 * (p + 1), p + 1);
  const Memory golden = m.clone();
  Memory faulty = m.clone();
  EXPECT_TRUE(faulty.equals(golden));
  faulty.store_u32(0x3000, 0xBAD);
  EXPECT_FALSE(faulty.equals(golden));
  EXPECT_FALSE(golden.equals(faulty));
  faulty.store_u32(0x3000, 3);  // restore the overwritten value
  EXPECT_TRUE(faulty.equals(golden));
  EXPECT_TRUE(m.equals(golden));  // the source image never changed
}

TEST(Memory, CrossPageWordAccess) {
  Memory m;
  const u32 addr = Memory::kPageSize - 2;
  m.store_u32(addr, 0x11223344);
  EXPECT_EQ(m.load_u32(addr), 0x11223344u);
  EXPECT_EQ(m.load_u16(addr), 0x1122u);
  EXPECT_EQ(m.load_u16(addr + 2), 0x3344u);
  const u8 block[8] = {9, 8, 7, 6, 5, 4, 3, 2};
  m.write_block(addr - 2, block, sizeof block);
  u8 out[8] = {};
  m.read_block(addr - 2, out, sizeof out);
  EXPECT_EQ(0, std::memcmp(block, out, sizeof block));
}

TEST(Memory, EqualsIgnoresZeroPages) {
  Memory a, b;
  a.store_u32(0x1000, 0);  // allocates a zero page
  EXPECT_TRUE(a.equals(b));
  EXPECT_TRUE(b.equals(a));
  a.store_u32(0x1000, 7);
  EXPECT_FALSE(a.equals(b));
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, BoundsRespected) {
  Xoshiro256 r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_below(17), 17u);
    const double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(OffCoreTrace, IdenticalTracesDontDiverge) {
  OffCoreTrace a, b;
  a.record_write(1, 0x100, 4, 0xAA);
  b.record_write(9, 0x100, 4, 0xAA);  // cycle differences are not failures
  EXPECT_FALSE(a.compare_writes(b).diverged);
}

TEST(OffCoreTrace, ValueMismatchDiverges) {
  OffCoreTrace a, b;
  a.record_write(1, 0x100, 4, 0xAA);
  b.record_write(1, 0x100, 4, 0xAB);
  const auto d = a.compare_writes(b);
  EXPECT_TRUE(d.diverged);
  EXPECT_EQ(d.index, 0u);
}

TEST(OffCoreTrace, MissingWriteDiverges) {
  OffCoreTrace golden, faulty;
  golden.record_write(1, 0x100, 4, 1);
  golden.record_write(2, 0x104, 4, 2);
  faulty.record_write(1, 0x100, 4, 1);
  EXPECT_TRUE(faulty.compare_writes(golden).diverged);
}

TEST(OffCoreTrace, ExtraWriteDiverges) {
  OffCoreTrace golden, faulty;
  golden.record_write(1, 0x100, 4, 1);
  faulty.record_write(1, 0x100, 4, 1);
  faulty.record_write(2, 0x104, 4, 2);
  EXPECT_TRUE(faulty.compare_writes(golden).diverged);
}

TEST(OffCoreTrace, SizeMismatchDiverges) {
  OffCoreTrace a, b;
  a.record_write(1, 0x100, 2, 0xAA);
  b.record_write(1, 0x100, 4, 0xAA);
  EXPECT_TRUE(a.compare_writes(b).diverged);
}

}  // namespace
}  // namespace issrtl
