// One MLC NAND block: word-line program state, stored page contents, wear.
//
// The block enforces the active program-sequence policy on every program;
// an FTL physically cannot violate the device's constraint set.
//
// Page store: each page is one 32-byte PageRecord (LPN, a 64-bit payload
// signature standing in for the 4 KB of data, the OOB spare word and the
// host-write version) in a per-block array, plus one PageState byte in a
// parallel array. Raw payload bytes, which only tests, examples and the
// block-device adapter write, live in a sparse per-block side table that
// allocates only when a non-empty payload is programmed. PageData (record
// plus payload) stays the program/read API type; read() reassembles it.
#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/nand/address.hpp"
#include "src/nand/program_order.hpp"
#include "src/util/result.hpp"
#include "src/util/types.hpp"

namespace rps::ser {
class Writer;
class Reader;
}  // namespace rps::ser

namespace rps::nand {

/// Spare-area flag marking a page as FTL metadata (parity or paired-page
/// backup), not host data. Mapping reconstruction after a reboot skips
/// flagged pages; host pages never set it.
inline constexpr std::uint64_t kNonHostSpareFlag = 1ull << 63;

/// Low spare bits of a *host* page carry its write-stream tag (the
/// FDP-style placement hint the multi-queue frontend assigns per tenant).
/// Tag 0 is the default stream; GC copies inherit the tag with the rest
/// of the page, so stream ownership survives relocation. Metadata pages
/// (kNonHostSpareFlag) reuse these bits for their own purposes.
inline constexpr std::uint64_t kStreamSpareMask = 0xffffull;

/// The stream tag stored in a host page's spare word.
[[nodiscard]] inline constexpr std::uint32_t stream_of_spare(std::uint64_t spare) {
  return static_cast<std::uint32_t>(spare & kStreamSpareMask);
}

/// The fixed-size part of a stored page: everything the simulator reads.
///
/// `spare` models the out-of-band area; FTLs use it for the reverse map
/// (LPN) and flexFTL's parity backup stores the fast-block number there.
/// `version` is the host-write sequence number, the tie-breaker mapping
/// reconstruction uses when several physical copies of an LPN exist.
struct PageRecord {
  Lpn lpn = kInvalidLpn;
  std::uint64_t signature = 0;          // stands in for the 4 KB payload
  std::uint64_t spare = 0;              // OOB metadata word
  std::uint64_t version = 0;            // host-write sequence number

  friend bool operator==(const PageRecord&, const PageRecord&) = default;
};
static_assert(sizeof(PageRecord) == 32, "one stored page is one 32-byte record");

/// What a program operation stores into a page, and what a read returns:
/// the record's fields plus an optional raw payload (tests and examples).
struct PageData {
  Lpn lpn = kInvalidLpn;
  std::uint64_t signature = 0;
  std::uint64_t spare = 0;
  std::uint64_t version = 0;
  std::vector<std::uint8_t> bytes;      // optional raw payload (tests/examples)

  [[nodiscard]] PageRecord record() const { return {lpn, signature, spare, version}; }

  /// XOR combine, the primitive behind every parity-backup scheme here.
  void xor_with(const PageData& other);

  friend bool operator==(const PageData&, const PageData&) = default;
};

/// Canonical byte encoding of a stored page record (snapshots).
void save(ser::Writer& w, const PageData& d);
void load(ser::Reader& r, PageData& d);

/// Lifecycle state of a stored page.
enum class PageState : std::uint8_t {
  kErased = 0,
  kValid,         // programmed, data intact
  kCorrupted,     // programmed but destroyed (power loss) — ECC-uncorrectable
};

class Block {
 public:
  Block(std::uint32_t wordlines, SequenceKind kind);

  [[nodiscard]] std::uint32_t wordlines() const { return program_state_.wordlines(); }
  [[nodiscard]] std::uint32_t num_pages() const { return wordlines() * 2; }
  [[nodiscard]] SequenceKind sequence_kind() const { return kind_; }

  /// Legality of programming `pos` next, without performing it.
  [[nodiscard]] Status can_program(PagePos pos) const {
    if (slc_mode_) {
      if (pos.type == PageType::kMsb) return Status{ErrorCode::kSequenceViolation};
      // LSB pages only, ascending (constraint 1); no cross-type constraints.
      return check_program_legality(program_state_, pos, SequenceKind::kRps);
    }
    return check_program_legality(program_state_, pos, kind_);
  }

  /// Program a page; fails (and changes nothing) if the order is illegal.
  Status program(PagePos pos, PageData data) {
    const Status legal = can_program(pos);
    if (!legal.is_ok()) return legal;
    store_programmed(pos, std::move(data));
    return Status::ok();
  }

  /// Program a page whose legality the caller has already established via
  /// can_program() on this exact block state (the device's resolve step).
  /// Skips the redundant re-validation; asserts the physical invariant.
  void program_prechecked(PagePos pos, PageData data) {
    assert(!program_state_.is_programmed(pos));
    store_programmed(pos, std::move(data));
  }

  /// Read a page: kNotProgrammed for erased pages, kEccUncorrectable for
  /// pages destroyed by a power loss.
  [[nodiscard]] Result<PageData> read(PagePos pos) const {
    if (pos.wordline >= wordlines()) return ErrorCode::kOutOfRange;
    ++reads_since_erase_;
    const std::uint32_t i = pos.flat_index();
    switch (states_[i]) {
      case PageState::kErased: return ErrorCode::kNotProgrammed;
      case PageState::kCorrupted: return ErrorCode::kEccUncorrectable;
      case PageState::kValid: {
        const PageRecord& r = records_[i];
        PageData d{r.lpn, r.signature, r.spare, r.version, {}};
        if (const std::vector<std::uint8_t>* bytes = payload(i)) d.bytes = *bytes;
        return d;
      }
    }
    return ErrorCode::kInvalidArgument;
  }

  /// Zero-copy read: the stored record in place, or nullptr unless the
  /// page is kValid. Counts toward reads_since_erase exactly like read()
  /// — it models the same sensing pass, so scrub thresholds see it — and
  /// the pointer is invalidated by the next program/erase/corrupt of this
  /// block. For hot paths (GC validity tests, mapping rebuild, oracle
  /// audits) that only inspect the record; read() copies the payload.
  [[nodiscard]] const PageRecord* peek(PagePos pos) const {
    if (pos.wordline >= wordlines()) return nullptr;
    ++reads_since_erase_;
    const std::uint32_t i = pos.flat_index();
    return states_[i] == PageState::kValid ? &records_[i] : nullptr;
  }

  /// Raw page state (for FTL bookkeeping and tests).
  [[nodiscard]] PageState page_state(PagePos pos) const {
    return states_[pos.flat_index()];
  }
  [[nodiscard]] WordlineState wordline_state(std::uint32_t wl) const {
    return program_state_.state(wl);
  }
  [[nodiscard]] bool is_programmed(PagePos pos) const {
    return program_state_.is_programmed(pos);
  }

  /// Erase the whole block, incrementing wear. Clears SLC mode.
  void erase();

  /// Put the (erased) block into SLC mode: only its LSB pages are used, in
  /// ascending word-line order, each at LSB program speed; MSB programs are
  /// rejected. Real MLC parts expose this per-block mode, and FPS-based
  /// FTLs use it for backup blocks, where MLC ordering constraints would
  /// otherwise forbid consecutive fast writes. Returns kNotErased if the
  /// block already holds data.
  Status set_slc_mode();
  [[nodiscard]] bool slc_mode() const { return slc_mode_; }

  /// Destroy a programmed page's contents (power-loss injection). The page
  /// still counts as programmed for ordering purposes.
  void corrupt(PagePos pos);

  [[nodiscard]] std::uint64_t erase_count() const { return erase_count_; }
  /// Read operations since the last erase — the read-disturb exposure that
  /// scrubbing policies act on (every sensing pass stresses the block).
  [[nodiscard]] std::uint64_t reads_since_erase() const { return reads_since_erase_; }
  [[nodiscard]] std::uint32_t programmed_pages() const { return programmed_pages_; }
  [[nodiscard]] std::uint32_t programmed_lsb_pages() const { return programmed_lsb_; }
  [[nodiscard]] std::uint32_t programmed_msb_pages() const {
    return programmed_pages_ - programmed_lsb_;
  }
  [[nodiscard]] bool is_fully_programmed() const {
    return programmed_pages_ == num_pages();
  }
  [[nodiscard]] bool is_erased() const { return programmed_pages_ == 0; }

  /// Next legal LSB / MSB page in ascending word-line order, if any.
  /// Under RPS these are the two program frontiers flexFTL consumes.
  [[nodiscard]] std::optional<PagePos> next_lsb() const {
    // C1 forces ascending LSB order, so the frontier is the count of
    // LSB-programmed word lines.
    if (programmed_lsb_ >= wordlines()) return std::nullopt;
    return PagePos{programmed_lsb_, PageType::kLsb};
  }
  [[nodiscard]] std::optional<PagePos> next_msb() const;

  /// Snapshot support: serialize / restore the full mutable state (page
  /// states and records, raw payloads, program state, wear, read-disturb
  /// exposure, SLC mode). The target block must have the same shape
  /// (wordlines, sequence kind). The stream encodes each valid page as a
  /// full PageData (zero-length payload included), so it does not depend
  /// on how the block stores its pages. load() rejects (Reader::fail) a
  /// stream whose page states no program sequence can produce: an MSB
  /// programmed over an erased LSB, or any MSB in an SLC-mode block.
  void save(ser::Writer& w) const;
  void load(ser::Reader& r);

 private:
  /// One non-empty raw payload, keyed by the page's flat index.
  struct Payload {
    std::uint32_t index;
    std::vector<std::uint8_t> bytes;
  };

  /// The raw payload stored with page `index`, or nullptr if it has none.
  [[nodiscard]] const std::vector<std::uint8_t>* payload(std::uint32_t index) const {
    if (payloads_.empty()) return nullptr;
    const auto it = find_payload(index);
    return it != payloads_.end() && it->index == index ? &it->bytes : nullptr;
  }
  [[nodiscard]] std::vector<Payload>::const_iterator find_payload(std::uint32_t index) const;
  void store_payload(std::uint32_t index, std::vector<std::uint8_t>&& bytes);

  void store_programmed(PagePos pos, PageData&& data) {
    program_state_.mark_programmed(pos);
    const std::uint32_t i = pos.flat_index();
    states_[i] = PageState::kValid;
    records_[i] = data.record();
    if (!data.bytes.empty()) store_payload(i, std::move(data.bytes));
    ++programmed_pages_;
    if (pos.type == PageType::kLsb) ++programmed_lsb_;
  }

  SequenceKind kind_;
  BlockProgramState program_state_;
  // Indexed by PagePos::flat_index(). A record is meaningful only while its
  // page is kValid; erase() and corrupt() change the state, not the record.
  std::vector<PageState> states_;
  std::vector<PageRecord> records_;
  // Sorted by index; empty (no allocation) unless a payload was programmed.
  std::vector<Payload> payloads_;
  std::uint64_t erase_count_ = 0;
  mutable std::uint64_t reads_since_erase_ = 0;
  std::uint32_t programmed_pages_ = 0;
  std::uint32_t programmed_lsb_ = 0;
  bool slc_mode_ = false;
};

}  // namespace rps::nand
