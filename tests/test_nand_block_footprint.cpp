// Page-store footprint of one MLC Block, counted by the allocation audit.
//
// A stored page is one 32-byte PageRecord plus one PageState byte; raw
// payloads live in a sparse per-block table that allocates only when a
// non-empty payload is programmed and releases it on corrupt/erase. These
// tests pin that layout through the global operator new interposer, so
// they run in their own binary (rps_tests keeps the stock allocator).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/nand/block.hpp"
#include "src/util/alloc_audit.hpp"

namespace rps::nand {
namespace {

constexpr std::uint32_t kWordlines = 128;
constexpr std::uint64_t kPages = 2 * kWordlines;

TEST(BlockFootprint, ConstructionAllocatesAboutOneRecordAndStatePerPage) {
  ASSERT_TRUE(util::alloc_audit_linked());
  util::alloc_audit_arm();
  {
    const Block block(kWordlines, SequenceKind::kRps);
    EXPECT_TRUE(block.is_erased());
  }
  const util::AllocAuditStats stats = util::alloc_audit_disarm();
  // 32 B record + 1 B state per page; the constant covers the per-word-line
  // program state (one byte per word line).
  EXPECT_LE(stats.bytes, kPages * (sizeof(PageRecord) + 1) + kWordlines + 64);
  EXPECT_GE(stats.bytes, kPages * (sizeof(PageRecord) + 1));
}

TEST(BlockFootprint, PagesWithoutPayloadAllocateNothing) {
  Block block(kWordlines, SequenceKind::kRps);
  const ProgramOrder order = rps_full_order(kWordlines);
  util::alloc_audit_arm();
  for (int round = 0; round < 2; ++round) {
    for (const PagePos pos : order) {
      PageData data;
      data.lpn = pos.flat_index();
      data.signature = 7;
      ASSERT_TRUE(block.program(pos, data).is_ok());
    }
    ASSERT_TRUE(block.read({0, PageType::kLsb}).is_ok());
    block.corrupt({0, PageType::kMsb});
    block.erase();
  }
  const util::AllocAuditStats stats = util::alloc_audit_disarm();
  EXPECT_EQ(stats.allocations, 0u);
}

TEST(BlockFootprint, CorruptAndEraseReleasePayloads) {
  Block block(kWordlines, SequenceKind::kRps);
  PageData data;
  data.bytes = {1, 2, 3};
  ASSERT_TRUE(block.program({0, PageType::kLsb}, data).is_ok());
  ASSERT_TRUE(block.program({1, PageType::kLsb}, data).is_ok());

  util::alloc_audit_arm();
  block.corrupt({0, PageType::kLsb});
  EXPECT_EQ(util::alloc_audit_disarm().frees, 1u);

  util::alloc_audit_arm();
  block.erase();
  EXPECT_EQ(util::alloc_audit_disarm().frees, 1u);
}

}  // namespace
}  // namespace rps::nand
