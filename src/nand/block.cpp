#include "src/nand/block.hpp"

#include <algorithm>
#include <span>

#include "src/util/serialize.hpp"

namespace rps::nand {

void PageData::xor_with(const PageData& other) {
  signature ^= other.signature;
  spare ^= other.spare;
  lpn ^= other.lpn;
  version ^= other.version;
  if (bytes.size() < other.bytes.size()) bytes.resize(other.bytes.size(), 0);
  for (std::size_t i = 0; i < other.bytes.size(); ++i) bytes[i] ^= other.bytes[i];
}

Block::Block(std::uint32_t wordlines, SequenceKind kind)
    : kind_(kind),
      program_state_(wordlines),
      states_(wordlines * 2, PageState::kErased),
      records_(wordlines * 2) {}

std::vector<Block::Payload>::const_iterator Block::find_payload(std::uint32_t index) const {
  return std::lower_bound(payloads_.begin(), payloads_.end(), index,
                          [](const Payload& p, std::uint32_t i) { return p.index < i; });
}

void Block::store_payload(std::uint32_t index, std::vector<std::uint8_t>&& bytes) {
  const auto at = payloads_.begin() + (find_payload(index) - payloads_.cbegin());
  payloads_.insert(at, Payload{index, std::move(bytes)});
}

void Block::erase() {
  std::fill(states_.begin(), states_.end(), PageState::kErased);
  payloads_.clear();
  program_state_.reset();
  programmed_pages_ = 0;
  programmed_lsb_ = 0;
  reads_since_erase_ = 0;
  slc_mode_ = false;
  ++erase_count_;
}

Status Block::set_slc_mode() {
  if (!is_erased()) return Status{ErrorCode::kNotErased};
  slc_mode_ = true;
  return Status::ok();
}

void Block::corrupt(PagePos pos) {
  const std::uint32_t i = pos.flat_index();
  if (states_[i] != PageState::kValid) return;
  states_[i] = PageState::kCorrupted;
  const auto it = find_payload(i);
  if (it != payloads_.end() && it->index == i) payloads_.erase(it);
}

namespace {

// One stored page in the snapshot stream: the four record words, then the
// payload as a length-prefixed byte string (length 0 without a payload).
void save_page(ser::Writer& w, const PageRecord& d, std::span<const std::uint8_t> bytes) {
  w.u64(d.lpn);
  w.u64(d.signature);
  w.u64(d.spare);
  w.u64(d.version);
  w.u64(bytes.size());
  w.bytes(bytes.data(), bytes.size());
}

void load_page(ser::Reader& r, PageRecord& d, std::vector<std::uint8_t>& bytes) {
  d.lpn = r.u64();
  d.signature = r.u64();
  d.spare = r.u64();
  d.version = r.u64();
  const std::uint64_t n = r.u64();
  if (n > r.remaining()) {
    r.fail();
    bytes.clear();
    return;
  }
  bytes.resize(static_cast<std::size_t>(n));
  r.bytes(bytes.data(), bytes.size());
}

}  // namespace

void save(ser::Writer& w, const PageData& d) { save_page(w, d.record(), d.bytes); }

void load(ser::Reader& r, PageData& d) {
  PageRecord record;
  load_page(r, record, d.bytes);
  d.lpn = record.lpn;
  d.signature = record.signature;
  d.spare = record.spare;
  d.version = record.version;
}

void Block::save(ser::Writer& w) const {
  w.u8(static_cast<std::uint8_t>(kind_));
  w.u64(erase_count_);
  w.u64(reads_since_erase_);
  w.boolean(slc_mode_);
  w.u64(states_.size());
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    w.u8(static_cast<std::uint8_t>(states_[i]));
    // Only valid pages carry a record: the same bytes nand::save writes for
    // a PageData, so the stream matches a store of whole PageData slots.
    if (states_[i] != PageState::kValid) continue;
    const std::vector<std::uint8_t>* bytes = payload(i);
    save_page(w, records_[i], bytes != nullptr ? *bytes : std::span<const std::uint8_t>{});
  }
}

void Block::load(ser::Reader& r) {
  if (r.u8() != static_cast<std::uint8_t>(kind_)) {
    r.fail();
    return;
  }
  erase_count_ = r.u64();
  reads_since_erase_ = r.u64();
  slc_mode_ = r.boolean();
  if (r.u64() != states_.size()) {
    r.fail();
    return;
  }
  program_state_.reset();
  payloads_.clear();
  programmed_pages_ = 0;
  programmed_lsb_ = 0;
  for (std::uint32_t i = 0; i < states_.size(); ++i) {
    const std::uint8_t raw = r.u8();
    if (raw > static_cast<std::uint8_t>(PageState::kCorrupted)) {
      r.fail();
      return;
    }
    states_[i] = static_cast<PageState>(raw);
    if (states_[i] == PageState::kErased) continue;
    if (states_[i] == PageState::kValid) {
      std::vector<std::uint8_t> bytes;
      load_page(r, records_[i], bytes);
      // Flat order ascends, so appending keeps the table sorted.
      if (!bytes.empty()) payloads_.push_back(Payload{i, std::move(bytes)});
    }
    // Word-line program state and the programmed counters are derived from
    // the page states: a non-erased page is programmed for ordering
    // purposes, corrupted or not. Flat order visits LSB(k) before MSB(k),
    // so an MSB over an erased LSB (physically impossible) or an MSB in an
    // SLC-mode block (which uses LSB pages only) is caught here, before
    // mark_programmed could assert on it.
    const PagePos pos = PagePos::from_flat(i);
    if (pos.type == PageType::kMsb &&
        (slc_mode_ || program_state_.state(pos.wordline) != WordlineState::kLsbProgrammed)) {
      r.fail();
      return;
    }
    program_state_.mark_programmed(pos);
    ++programmed_pages_;
    if (pos.type == PageType::kLsb) ++programmed_lsb_;
  }
}

std::optional<PagePos> Block::next_msb() const {
  const std::uint32_t programmed_msb = programmed_msb_pages();
  if (programmed_msb >= wordlines()) return std::nullopt;
  const PagePos candidate{programmed_msb, PageType::kMsb};
  if (!can_program(candidate).is_ok()) return std::nullopt;
  return candidate;
}

}  // namespace rps::nand
