#include "src/nand/block.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::nand {
namespace {

PageData make_data(Lpn lpn, std::uint64_t sig) {
  PageData d;
  d.lpn = lpn;
  d.signature = sig;
  return d;
}

TEST(PageData, XorIsInvolution) {
  PageData a = make_data(5, 0xdeadbeef);
  a.bytes = {1, 2, 3};
  PageData b = make_data(9, 0xfeedface);
  b.bytes = {4, 5};
  PageData acc = a;
  acc.xor_with(b);
  acc.xor_with(b);
  EXPECT_EQ(acc, a);
}

TEST(PageData, XorRecoversMissingPage) {
  // The parity-recovery primitive: parity ^ (all but one) == the one.
  PageData pages[3] = {make_data(1, 111), make_data(2, 222), make_data(3, 333)};
  PageData parity;
  parity.lpn = 0;
  for (const PageData& p : pages) parity.xor_with(p);
  PageData recovered = parity;
  recovered.xor_with(pages[0]);
  recovered.xor_with(pages[2]);
  EXPECT_EQ(recovered.lpn, pages[1].lpn);
  EXPECT_EQ(recovered.signature, pages[1].signature);
}

TEST(Block, ProgramReadRoundTrip) {
  Block b(4, SequenceKind::kRps);
  EXPECT_TRUE(b.program({0, PageType::kLsb}, make_data(7, 42)).is_ok());
  const Result<PageData> read = b.read({0, PageType::kLsb});
  ASSERT_TRUE(read.is_ok());
  EXPECT_EQ(read.value().lpn, 7u);
  EXPECT_EQ(read.value().signature, 42u);
}

TEST(Block, ReadErasedPage) {
  Block b(4, SequenceKind::kRps);
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kNotProgrammed);
  EXPECT_EQ(b.read({9, PageType::kLsb}).code(), ErrorCode::kOutOfRange);
}

TEST(Block, EnforcesSequence) {
  Block b(4, SequenceKind::kFps);
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
  EXPECT_EQ(b.programmed_pages(), 0u);  // failed program changes nothing
}

TEST(Block, FullLifecycleUnderRpsFull) {
  const std::uint32_t wl = 8;
  Block b(wl, SequenceKind::kRps);
  for (const PagePos pos : rps_full_order(wl)) {
    EXPECT_TRUE(b.program(pos, make_data(pos.flat_index(), 1)).is_ok());
  }
  EXPECT_TRUE(b.is_fully_programmed());
  EXPECT_EQ(b.programmed_lsb_pages(), wl);
  EXPECT_EQ(b.programmed_msb_pages(), wl);
  EXPECT_FALSE(b.next_lsb().has_value());
  EXPECT_FALSE(b.next_msb().has_value());
}

TEST(Block, EraseResetsEverythingAndCountsWear) {
  Block b(2, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, make_data(1, 1)).is_ok());
  EXPECT_EQ(b.erase_count(), 0u);
  b.erase();
  EXPECT_EQ(b.erase_count(), 1u);
  EXPECT_TRUE(b.is_erased());
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kNotProgrammed);
  b.erase();
  EXPECT_EQ(b.erase_count(), 2u);
}

TEST(Block, NextLsbTracksFrontier) {
  Block b(3, SequenceKind::kRps);
  ASSERT_TRUE(b.next_lsb().has_value());
  EXPECT_EQ(b.next_lsb()->wordline, 0u);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.next_lsb()->wordline, 1u);
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.program({2, PageType::kLsb}, {}).is_ok());
  EXPECT_FALSE(b.next_lsb().has_value());
}

TEST(Block, NextMsbRespectsConstraint3) {
  Block b(3, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  // MSB(0) needs LSB(1) first.
  EXPECT_FALSE(b.next_msb().has_value());
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.next_msb().has_value());
  EXPECT_EQ(b.next_msb()->wordline, 0u);
  ASSERT_TRUE(b.program({0, PageType::kMsb}, {}).is_ok());
  EXPECT_FALSE(b.next_msb().has_value());  // MSB(1) needs LSB(2)
}

TEST(Block, CorruptMakesPageUnreadable) {
  Block b(2, SequenceKind::kRps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, make_data(3, 3)).is_ok());
  b.corrupt({0, PageType::kLsb});
  EXPECT_EQ(b.read({0, PageType::kLsb}).code(), ErrorCode::kEccUncorrectable);
  EXPECT_EQ(b.page_state({0, PageType::kLsb}), PageState::kCorrupted);
  // Still counts as programmed for ordering purposes.
  EXPECT_TRUE(b.is_programmed({0, PageType::kLsb}));
}

TEST(Block, CorruptErasedPageIsNoOp) {
  Block b(2, SequenceKind::kRps);
  b.corrupt({1, PageType::kLsb});
  EXPECT_EQ(b.page_state({1, PageType::kLsb}), PageState::kErased);
}

TEST(Block, SlcModeAllowsConsecutiveLsbOnFpsDevice) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  EXPECT_TRUE(b.slc_mode());
  for (std::uint32_t wl = 0; wl < 4; ++wl) {
    EXPECT_TRUE(b.program({wl, PageType::kLsb}, {}).is_ok()) << wl;
  }
  // MSB programs are rejected in SLC mode.
  EXPECT_EQ(b.program({0, PageType::kMsb}, {}).code(), ErrorCode::kSequenceViolation);
}

TEST(Block, SlcModeRequiresErasedBlock) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.set_slc_mode().code(), ErrorCode::kNotErased);
}

TEST(Block, EraseClearsSlcMode) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  b.erase();
  EXPECT_FALSE(b.slc_mode());
  // Back in MLC mode: FPS constraint 4 applies again.
  ASSERT_TRUE(b.program({0, PageType::kLsb}, {}).is_ok());
  ASSERT_TRUE(b.program({1, PageType::kLsb}, {}).is_ok());
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
}

TEST(Block, SlcLsbOrderStillEnforced) {
  Block b(4, SequenceKind::kFps);
  ASSERT_TRUE(b.set_slc_mode().is_ok());
  EXPECT_EQ(b.program({2, PageType::kLsb}, {}).code(), ErrorCode::kSequenceViolation);
}

// ---------------------------------------------------------------------------
// Snapshot trust boundary: Block::load rebuilds the word-line program state
// from the stream's page states, so it must reject states no program
// sequence can produce instead of asserting on them.

/// A hand-built block stream: kind, erase count, reads since erase, SLC
/// flag, page count, then each page's state byte (and a record if valid).
std::vector<std::uint8_t> block_stream(SequenceKind kind, bool slc,
                                       const std::vector<PageState>& states) {
  ser::Writer w;
  w.u8(static_cast<std::uint8_t>(kind));
  w.u64(0);
  w.u64(0);
  w.boolean(slc);
  w.u64(states.size());
  for (const PageState state : states) {
    w.u8(static_cast<std::uint8_t>(state));
    if (state == PageState::kValid) save(w, make_data(1, 2));
  }
  return w.take();
}

bool loads(Block& b, const std::vector<std::uint8_t>& stream) {
  ser::Reader r(stream);
  b.load(r);
  return r.ok() && r.at_end();
}

TEST(BlockLoad, AcceptsReachablePageStates) {
  // LSB(0), LSB(1), MSB(0): a legal RPS prefix.
  std::vector<PageState> states(8, PageState::kErased);
  states[0] = states[2] = states[1] = PageState::kValid;
  Block b(4, SequenceKind::kRps);
  ASSERT_TRUE(loads(b, block_stream(SequenceKind::kRps, false, states)));
  EXPECT_EQ(b.programmed_pages(), 3u);
  EXPECT_EQ(b.wordline_state(0), WordlineState::kFullyProgrammed);
}

TEST(BlockLoad, RejectsMsbOverErasedLsb) {
  for (const PageState msb : {PageState::kValid, PageState::kCorrupted}) {
    std::vector<PageState> states(8, PageState::kErased);
    states[1] = msb;  // MSB(0) with LSB(0) erased: physically impossible
    Block b(4, SequenceKind::kRps);
    EXPECT_FALSE(loads(b, block_stream(SequenceKind::kRps, false, states)));
  }
}

TEST(BlockLoad, RejectsMsbInSlcModeBlock) {
  std::vector<PageState> states(8, PageState::kErased);
  states[0] = states[1] = PageState::kValid;  // LSB(0) and MSB(0)
  Block mlc(4, SequenceKind::kFps);
  EXPECT_TRUE(loads(mlc, block_stream(SequenceKind::kFps, false, states)));
  Block slc(4, SequenceKind::kFps);
  EXPECT_FALSE(loads(slc, block_stream(SequenceKind::kFps, true, states)));
}

// ---------------------------------------------------------------------------
// Reference model: the page store as one 64-byte slot per page (a state
// byte plus a whole PageData, payload vector included), with the same
// program-order, counter and snapshot logic. The property test below holds
// the compact Block to it operation by operation.
class RefBlock {
 public:
  RefBlock(std::uint32_t wordlines, SequenceKind kind)
      : kind_(kind), program_state_(wordlines), slots_(wordlines * 2) {}

  [[nodiscard]] std::uint32_t wordlines() const { return program_state_.wordlines(); }

  [[nodiscard]] Status can_program(PagePos pos) const {
    if (slc_mode_) {
      if (pos.type == PageType::kMsb) return Status{ErrorCode::kSequenceViolation};
      return check_program_legality(program_state_, pos, SequenceKind::kRps);
    }
    return check_program_legality(program_state_, pos, kind_);
  }

  Status program(PagePos pos, PageData data) {
    const Status legal = can_program(pos);
    if (!legal.is_ok()) return legal;
    program_state_.mark_programmed(pos);
    Slot& s = slots_[pos.flat_index()];
    s.state = PageState::kValid;
    s.data = std::move(data);
    ++programmed_pages_;
    if (pos.type == PageType::kLsb) ++programmed_lsb_;
    return Status::ok();
  }

  [[nodiscard]] Result<PageData> read(PagePos pos) const {
    if (pos.wordline >= wordlines()) return ErrorCode::kOutOfRange;
    ++reads_since_erase_;
    const Slot& s = slots_[pos.flat_index()];
    switch (s.state) {
      case PageState::kErased: return ErrorCode::kNotProgrammed;
      case PageState::kCorrupted: return ErrorCode::kEccUncorrectable;
      case PageState::kValid: return s.data;
    }
    return ErrorCode::kInvalidArgument;
  }

  [[nodiscard]] const PageData* peek(PagePos pos) const {
    if (pos.wordline >= wordlines()) return nullptr;
    ++reads_since_erase_;
    const Slot& s = slots_[pos.flat_index()];
    return s.state == PageState::kValid ? &s.data : nullptr;
  }

  [[nodiscard]] PageState page_state(PagePos pos) const {
    return slots_[pos.flat_index()].state;
  }
  [[nodiscard]] WordlineState wordline_state(std::uint32_t wl) const {
    return program_state_.state(wl);
  }

  void erase() {
    for (Slot& s : slots_) s = Slot{};
    program_state_.reset();
    programmed_pages_ = 0;
    programmed_lsb_ = 0;
    reads_since_erase_ = 0;
    slc_mode_ = false;
    ++erase_count_;
  }

  Status set_slc_mode() {
    if (programmed_pages_ != 0) return Status{ErrorCode::kNotErased};
    slc_mode_ = true;
    return Status::ok();
  }

  void corrupt(PagePos pos) {
    Slot& s = slots_[pos.flat_index()];
    if (s.state == PageState::kValid) {
      s.state = PageState::kCorrupted;
      s.data = PageData{};
    }
  }

  [[nodiscard]] bool slc_mode() const { return slc_mode_; }
  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  [[nodiscard]] std::uint64_t reads_since_erase() const { return reads_since_erase_; }
  [[nodiscard]] std::uint32_t programmed_pages() const { return programmed_pages_; }
  [[nodiscard]] std::uint32_t programmed_lsb_pages() const { return programmed_lsb_; }

  [[nodiscard]] std::optional<PagePos> next_lsb() const {
    if (programmed_lsb_ >= wordlines()) return std::nullopt;
    return PagePos{programmed_lsb_, PageType::kLsb};
  }
  [[nodiscard]] std::optional<PagePos> next_msb() const {
    const std::uint32_t programmed_msb = programmed_pages_ - programmed_lsb_;
    if (programmed_msb >= wordlines()) return std::nullopt;
    const PagePos candidate{programmed_msb, PageType::kMsb};
    if (!can_program(candidate).is_ok()) return std::nullopt;
    return candidate;
  }

  void save(ser::Writer& w) const {
    w.u8(static_cast<std::uint8_t>(kind_));
    w.u64(erase_count_);
    w.u64(reads_since_erase_);
    w.boolean(slc_mode_);
    w.u64(slots_.size());
    for (const Slot& s : slots_) {
      w.u8(static_cast<std::uint8_t>(s.state));
      if (s.state == PageState::kValid) nand::save(w, s.data);
    }
  }

  void load(ser::Reader& r) {
    if (r.u8() != static_cast<std::uint8_t>(kind_)) return r.fail();
    erase_count_ = r.u64();
    reads_since_erase_ = r.u64();
    slc_mode_ = r.boolean();
    if (r.u64() != slots_.size()) return r.fail();
    program_state_.reset();
    programmed_pages_ = 0;
    programmed_lsb_ = 0;
    for (std::uint32_t i = 0; i < slots_.size(); ++i) {
      Slot& s = slots_[i];
      s.state = static_cast<PageState>(r.u8());
      s.data = PageData{};
      if (s.state == PageState::kValid) nand::load(r, s.data);
      if (s.state != PageState::kErased) {
        const PagePos pos = PagePos::from_flat(i);
        program_state_.mark_programmed(pos);
        ++programmed_pages_;
        if (pos.type == PageType::kLsb) ++programmed_lsb_;
      }
    }
  }

 private:
  struct Slot {
    PageState state = PageState::kErased;
    PageData data;
  };

  SequenceKind kind_;
  BlockProgramState program_state_;
  std::vector<Slot> slots_;
  std::uint64_t erase_count_ = 0;
  mutable std::uint64_t reads_since_erase_ = 0;
  std::uint32_t programmed_pages_ = 0;
  std::uint32_t programmed_lsb_ = 0;
  bool slc_mode_ = false;
};

/// Every observable of the block that has no side effect.
void expect_same(const Block& b, const RefBlock& ref) {
  EXPECT_EQ(b.erase_count(), ref.erase_count());
  EXPECT_EQ(b.reads_since_erase(), ref.reads_since_erase());
  EXPECT_EQ(b.programmed_pages(), ref.programmed_pages());
  EXPECT_EQ(b.programmed_lsb_pages(), ref.programmed_lsb_pages());
  EXPECT_EQ(b.is_erased(), ref.programmed_pages() == 0);
  EXPECT_EQ(b.is_fully_programmed(), ref.programmed_pages() == 2 * ref.wordlines());
  EXPECT_EQ(b.slc_mode(), ref.slc_mode());
  EXPECT_EQ(b.next_lsb(), ref.next_lsb());
  EXPECT_EQ(b.next_msb(), ref.next_msb());
  for (std::uint32_t wl = 0; wl < b.wordlines(); ++wl) {
    EXPECT_EQ(b.wordline_state(wl), ref.wordline_state(wl)) << "WL " << wl;
    for (const PageType type : {PageType::kLsb, PageType::kMsb}) {
      const PagePos pos{wl, type};
      EXPECT_EQ(b.page_state(pos), ref.page_state(pos)) << pos.to_string();
      EXPECT_EQ(b.can_program(pos), ref.can_program(pos)) << pos.to_string();
    }
  }
}

std::vector<std::uint8_t> saved(const auto& block) {
  ser::Writer w;
  block.save(w);
  return w.take();
}

PagePos random_pos(Rng& rng, std::uint32_t wordlines) {
  // One word line past the end now and then: the out-of-range paths.
  return PagePos{static_cast<std::uint32_t>(rng.next_below(wordlines + 1)),
                 rng.chance(0.5) ? PageType::kLsb : PageType::kMsb};
}

PageData random_data(Rng& rng) {
  PageData d;
  d.lpn = rng.chance(0.1) ? kInvalidLpn : rng.next_below(1000);
  d.signature = rng.next_u64();
  d.spare = rng.chance(0.2) ? kNonHostSpareFlag | rng.next_below(64) : rng.next_below(4);
  d.version = rng.next_below(1u << 20);
  if (rng.chance(0.3)) {
    d.bytes.resize(static_cast<std::size_t>(rng.uniform_int(1, 24)));
    for (std::uint8_t& byte : d.bytes) byte = static_cast<std::uint8_t>(rng.next_u64());
  }
  return d;
}

class BlockVsReference : public ::testing::TestWithParam<SequenceKind> {};

TEST_P(BlockVsReference, RandomOperationSequencesAgree) {
  const SequenceKind kind = GetParam();
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(kind));
    const std::uint32_t wordlines = 2 + static_cast<std::uint32_t>(rng.next_below(7));
    Block b(wordlines, kind);
    RefBlock ref(wordlines, kind);
    for (int step = 0; step < 1500 && !HasFailure(); ++step) {
      SCOPED_TRACE(::testing::Message() << "step " << step);
      const std::uint64_t op = rng.next_below(100);
      if (op < 40) {
        // Program: mostly a frontier page (so blocks fill up), else any.
        std::optional<PagePos> pos = rng.chance(0.5) ? ref.next_lsb() : ref.next_msb();
        if (!pos || rng.chance(0.2)) pos = random_pos(rng, wordlines);
        if (pos->wordline >= wordlines) pos->wordline = wordlines - 1;
        const PageData data = random_data(rng);
        const Status expected = ref.program(*pos, data);
        if (expected.is_ok() && rng.chance(0.5)) {
          ASSERT_TRUE(b.can_program(*pos).is_ok());
          b.program_prechecked(*pos, data);
        } else {
          EXPECT_EQ(b.program(*pos, data), expected);
        }
      } else if (op < 58) {
        const PagePos pos = random_pos(rng, wordlines);
        const Result<PageData> want = ref.read(pos);
        const Result<PageData> got = b.read(pos);
        ASSERT_EQ(got.code(), want.code());
        if (want.is_ok()) {
          EXPECT_EQ(got.value(), want.value());
        }
      } else if (op < 70) {
        const PagePos pos = random_pos(rng, wordlines);
        const PageData* want = ref.peek(pos);
        const PageRecord* got = b.peek(pos);
        ASSERT_EQ(got == nullptr, want == nullptr);
        if (want != nullptr) {
          EXPECT_EQ(*got, want->record());
        }
      } else if (op < 78) {
        const PagePos pos{static_cast<std::uint32_t>(rng.next_below(wordlines)),
                          rng.chance(0.5) ? PageType::kLsb : PageType::kMsb};
        ref.corrupt(pos);
        b.corrupt(pos);
      } else if (op < 83) {
        ref.erase();
        b.erase();
      } else if (op < 88) {
        EXPECT_EQ(b.set_slc_mode(), ref.set_slc_mode());
      } else {
        // Snapshot round trip: byte-identical streams, restored into a
        // fresh block or over the block's own state (the reference always
        // restores its own stream into a fresh copy, so whatever load
        // leaves behind shows up in later steps).
        const std::vector<std::uint8_t> stream = saved(b);
        ASSERT_EQ(stream, saved(ref));
        if (rng.chance(0.5)) {
          Block restored(wordlines, kind);
          ASSERT_TRUE(loads(restored, stream));
          b = std::move(restored);
        } else {
          ASSERT_TRUE(loads(b, stream));
        }
        EXPECT_EQ(saved(b), stream);
        RefBlock ref_restored(wordlines, kind);
        ser::Reader r(stream);
        ref_restored.load(r);
        ASSERT_TRUE(r.ok());
        ref = std::move(ref_restored);
      }
      expect_same(b, ref);
    }
    EXPECT_EQ(saved(b), saved(ref));
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, BlockVsReference,
                         ::testing::Values(SequenceKind::kFps, SequenceKind::kRps,
                                           SequenceKind::kUnconstrained),
                         [](const ::testing::TestParamInfo<SequenceKind>& info) {
                           return std::string(to_string(info.param));
                         });

}  // namespace
}  // namespace rps::nand
