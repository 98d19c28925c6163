// Tests for util/memory.hpp: the aligned (optionally huge-page-advised)
// buffer under BinArray/WeightedBinArray slot storage and the HugePages
// knob parsing. Memory configuration must never be observable in anything
// but telemetry and throughput, so these tests pin the value-semantics
// contract (copy/move/grow preserve contents exactly) and the
// silent-fallback contract (every HugePages setting allocates usable memory
// on every platform).

#include "util/memory.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>

namespace nubb {
namespace {

TEST(HugePagesTest, ParseAndToStringRoundTrip) {
  EXPECT_EQ(parse_huge_pages("auto"), HugePages::kAuto);
  EXPECT_EQ(parse_huge_pages("on"), HugePages::kOn);
  EXPECT_EQ(parse_huge_pages("off"), HugePages::kOff);
  EXPECT_STREQ(to_string(HugePages::kAuto), "auto");
  EXPECT_STREQ(to_string(HugePages::kOn), "on");
  EXPECT_STREQ(to_string(HugePages::kOff), "off");
  for (const char* name : {"auto", "on", "off"}) {
    EXPECT_STREQ(to_string(parse_huge_pages(name)), name);
  }
  EXPECT_THROW(parse_huge_pages(""), std::runtime_error);
  EXPECT_THROW(parse_huge_pages("ON"), std::runtime_error);
  EXPECT_THROW(parse_huge_pages("always"), std::runtime_error);
}

TEST(MemoryConfigTest, DefaultsAndEquality) {
  const MemoryConfig a;
  EXPECT_EQ(a.huge_pages, HugePages::kAuto);
  EXPECT_TRUE(a.prefetch);
  MemoryConfig b;
  EXPECT_TRUE(a == b);
  b.prefetch = false;
  EXPECT_FALSE(a == b);
  b = MemoryConfig{};
  b.huge_pages = HugePages::kOff;
  EXPECT_FALSE(a == b);
}

TEST(AlignedBufferTest, DefaultConstructedIsEmpty) {
  const AlignedBuffer<std::uint64_t> buf;
  EXPECT_EQ(buf.size(), 0u);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_FALSE(buf.huge_page_advised());
}

TEST(AlignedBufferTest, AllocatesCacheAligned) {
  const AlignedBuffer<std::uint64_t> buf(100);
  EXPECT_EQ(buf.size(), 100u);
  EXPECT_FALSE(buf.empty());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
}

TEST(AlignedBufferTest, ContentsSurviveCopyMoveAndGrow) {
  AlignedBuffer<std::uint64_t> buf(257);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i * 3 + 1;

  const AlignedBuffer<std::uint64_t> copy(buf);
  ASSERT_EQ(copy.size(), buf.size());
  for (std::size_t i = 0; i < copy.size(); ++i) EXPECT_EQ(copy[i], i * 3 + 1);
  EXPECT_NE(copy.data(), buf.data());

  AlignedBuffer<std::uint64_t> moved(std::move(buf));
  ASSERT_EQ(moved.size(), 257u);
  for (std::size_t i = 0; i < moved.size(); ++i) EXPECT_EQ(moved[i], i * 3 + 1);

  moved.grow(1000);
  ASSERT_EQ(moved.size(), 1000u);
  for (std::size_t i = 0; i < 257u; ++i) EXPECT_EQ(moved[i], i * 3 + 1);
  // Entries [257, 1000) are uninitialized by contract (owner writes = first
  // touch); write them to prove the storage is usable end to end.
  for (std::size_t i = 257; i < moved.size(); ++i) moved[i] = 7;
  EXPECT_EQ(moved[999], 7u);
}

TEST(AlignedBufferTest, MoveAssignReleasesAndSteals) {
  AlignedBuffer<std::uint64_t> a(64);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = i;
  AlignedBuffer<std::uint64_t> b(8);
  b = std::move(a);
  ASSERT_EQ(b.size(), 64u);
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_EQ(b[i], i);
}

TEST(AlignedBufferTest, EverySettingYieldsUsableMemory) {
  // The huge-page request is advisory with silent fallback: whatever the
  // platform says, the memory must be allocated, aligned, and writable.
  for (const HugePages hp : {HugePages::kAuto, HugePages::kOn, HugePages::kOff}) {
    MemoryConfig mem;
    mem.huge_pages = hp;
    AlignedBuffer<std::uint64_t> buf(1000, mem);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 64, 0u);
    for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = i;
    EXPECT_EQ(buf[999], 999u);
    EXPECT_EQ(buf.memory_config(), mem);
    if (hp == HugePages::kOff) {
      EXPECT_FALSE(buf.huge_page_advised());
    }
  }
}

TEST(AlignedBufferTest, HugeAllocationIsTwoMiBAlignedWhenEligible) {
  // 2 MiB of uint64 = 256k entries; auto mode must 2 MiB-align the block so
  // the madvise region can actually be backed by huge pages.
  const std::size_t entries = (2u << 20) / sizeof(std::uint64_t);
  AlignedBuffer<std::uint64_t> buf(entries);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % (2u << 20), 0u);
  for (std::size_t i = 0; i < buf.size(); ++i) buf[i] = 1;
#if defined(__linux__)
  // On Linux the madvise(MADV_HUGEPAGE) call itself succeeds on any mapped
  // region whether or not THP promotes it.
  EXPECT_TRUE(buf.huge_page_advised());
#endif
}

TEST(AlignedBufferTest, SmallAutoAllocationIsNotAdvised) {
  // Below the 2 MiB threshold, auto mode skips the advise entirely.
  const AlignedBuffer<std::uint64_t> buf(16);
  EXPECT_FALSE(buf.huge_page_advised());
}

}  // namespace
}  // namespace nubb
