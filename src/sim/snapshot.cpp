#include "src/sim/snapshot.hpp"

#include <cassert>

#include "src/core/flex_tlc_ftl.hpp"
#include "src/ftl/ftl_base.hpp"

namespace rps::sim {

namespace {

constexpr std::uint8_t kFamilyMlc = 0;
constexpr std::uint8_t kFamilyTlc = 1;

void write_header(ser::Writer& w, std::uint8_t family, std::string_view name) {
  w.u64(Snapshot::kMagic);
  w.u32(Snapshot::kVersion);
  w.u8(family);
  w.str(name);
}

void write_geometry(ser::Writer& w, const nand::Geometry& g) {
  w.u32(g.channels);
  w.u32(g.chips_per_channel);
  w.u32(g.planes_per_chip);
  w.u32(g.blocks_per_chip);
  w.u32(g.wordlines_per_block);
  w.u32(g.page_size_bytes);
  w.u32(g.spare_bytes);
}

bool geometry_matches(ser::Reader& r, const nand::Geometry& g) {
  return r.u32() == g.channels && r.u32() == g.chips_per_channel &&
         r.u32() == g.planes_per_chip && r.u32() == g.blocks_per_chip &&
         r.u32() == g.wordlines_per_block && r.u32() == g.page_size_bytes &&
         r.u32() == g.spare_bytes;
}

void write_geometry(ser::Writer& w, const nand::TlcGeometry& g) {
  w.u32(g.channels);
  w.u32(g.chips_per_channel);
  w.u32(g.blocks_per_chip);
  w.u32(g.wordlines_per_block);
  w.u32(g.page_size_bytes);
}

bool geometry_matches(ser::Reader& r, const nand::TlcGeometry& g) {
  return r.u32() == g.channels && r.u32() == g.chips_per_channel &&
         r.u32() == g.blocks_per_chip && r.u32() == g.wordlines_per_block &&
         r.u32() == g.page_size_bytes;
}

/// The framed stream up to and including the payload, with a zero
/// placeholder for the payload size. Returns the placeholder's offset.
template <typename Ftl>
std::size_t write_framed(ser::Writer& w, std::uint8_t family, const Ftl& ftl) {
  write_header(w, family, ftl.name());
  write_geometry(w, ftl.device().geometry());
  const std::size_t size_at = w.size();
  w.u64(0);
  ftl.save_state(w);
  return size_at;
}

/// The whole snapshot stream in one buffer allocated at its exact length:
/// a measuring pass through the same save code sizes it, the real pass
/// fills it, and the payload size and FNV-1a trailer are written in place.
/// The trailer hash is the one pass over the payload that cannot go.
template <typename Ftl>
std::vector<std::uint8_t> capture_stream(std::uint8_t family, const Ftl& ftl) {
  ser::Writer measure = ser::Writer::measuring();
  write_framed(measure, family, ftl);
  const std::size_t length = measure.size() + 8;
  ser::Writer w(length);
  const std::size_t size_at = write_framed(w, family, ftl);
  const std::size_t payload_at = size_at + 8;
  const std::size_t payload = w.size() - payload_at;
  w.patch_u64(size_at, payload);
  w.u64(ser::fnv1a(w.view().subspan(payload_at)));
  assert(w.size() == length);
  return w.take();
}

/// Parse + validate the header; on success returns a Reader positioned at
/// the payload covering exactly `payload size` bytes. The checksum trailer
/// is NOT re-verified here: restore() runs on every warm-started trial (a
/// 64-seed sweep forks thousands of times from one snapshot), and hashing
/// a multi-megabyte payload per fork would cost as much as the fill phase
/// it replaces. Integrity is checked once, where untrusted bytes enter a
/// Snapshot (from_bytes / load_file); capture() output is correct by
/// construction.
template <typename Geometry>
std::optional<ser::Reader> open_payload(const std::vector<std::uint8_t>& bytes,
                                        std::uint8_t family, std::string_view name,
                                        const Geometry& geometry) {
  ser::Reader r(bytes);
  if (r.u64() != Snapshot::kMagic) return std::nullopt;
  if (r.u32() != Snapshot::kVersion) return std::nullopt;
  if (r.u8() != family) return std::nullopt;
  if (r.str() != name) return std::nullopt;
  if (!geometry_matches(r, geometry)) return std::nullopt;
  const std::uint64_t size = r.u64();
  if (!r.ok() || r.remaining() < 8 || size != r.remaining() - 8) return std::nullopt;
  return ser::Reader(bytes.data() + r.pos(), static_cast<std::size_t>(size));
}

/// Full structural + checksum verification of an untrusted byte stream:
/// magic, version, family, payload framing, FNV-1a trailer.
bool verify_stream(const std::vector<std::uint8_t>& bytes) {
  ser::Reader r(bytes);
  if (r.u64() != Snapshot::kMagic) return false;
  if (r.u32() != Snapshot::kVersion) return false;
  const std::uint8_t family = r.u8();
  if (family != kFamilyMlc && family != kFamilyTlc) return false;
  if (r.str().empty()) return false;
  const std::size_t geometry_words = family == kFamilyMlc ? 7 : 5;
  for (std::size_t i = 0; i < geometry_words; ++i) (void)r.u32();
  const std::uint64_t size = r.u64();
  if (!r.ok() || r.remaining() < 8 || size != r.remaining() - 8) return false;
  const std::size_t start = r.pos();
  ser::Reader trailer(bytes.data() + start + size, 8);
  return trailer.u64() ==
         ser::fnv1a(bytes.data() + start, static_cast<std::size_t>(size));
}

}  // namespace

Snapshot Snapshot::capture(const ftl::FtlBase& ftl) {
  Snapshot s;
  s.bytes_ = capture_stream(kFamilyMlc, ftl);
  return s;
}

Snapshot Snapshot::capture(const core::FlexTlcFtl& ftl) {
  Snapshot s;
  s.bytes_ = capture_stream(kFamilyTlc, ftl);
  return s;
}

bool Snapshot::restore(ftl::FtlBase& ftl) const {
  std::optional<ser::Reader> payload =
      open_payload(bytes_, kFamilyMlc, ftl.name(), ftl.device().geometry());
  if (!payload) return false;
  ftl.load_state(*payload);
  return payload->ok() && payload->at_end();
}

bool Snapshot::restore(core::FlexTlcFtl& ftl) const {
  std::optional<ser::Reader> payload =
      open_payload(bytes_, kFamilyTlc, ftl.name(), ftl.device().geometry());
  if (!payload) return false;
  ftl.load_state(*payload);
  return payload->ok() && payload->at_end();
}

bool Snapshot::valid() const {
  ser::Reader r(bytes_);
  if (r.u64() != kMagic || r.u32() != kVersion) return false;
  const std::uint8_t family = r.u8();
  return r.ok() && (family == kFamilyMlc || family == kFamilyTlc);
}

std::string Snapshot::ftl_name() const {
  ser::Reader r(bytes_);
  if (r.u64() != kMagic || r.u32() != kVersion) return {};
  (void)r.u8();
  std::string name = r.str();
  return r.ok() ? name : std::string{};
}

Snapshot Snapshot::from_bytes(std::vector<std::uint8_t> bytes) {
  // The one trust boundary: bytes from outside (a file, a peer process)
  // get the full checksum verification here, exactly once. A snapshot
  // that fails comes back empty — restore() on it returns false.
  Snapshot s;
  if (verify_stream(bytes)) s.bytes_ = std::move(bytes);
  return s;
}

bool Snapshot::save_file(const std::string& path) const {
  return ser::write_file(path, {bytes_});
}

std::optional<Snapshot> Snapshot::load_file(const std::string& path) {
  ser::FileReader in(path);
  std::vector<std::uint8_t> bytes = in.take(in.remaining());
  if (!in.ok()) return std::nullopt;
  Snapshot s = from_bytes(std::move(bytes));
  if (!s.valid()) return std::nullopt;
  return s;
}

}  // namespace rps::sim
