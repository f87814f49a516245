// Versioned binary snapshots of complete device + FTL state.
//
// A Snapshot captures everything mutable in an FTL — NAND media contents,
// per-chip timelines, bad-block tables, mapping, block pools, stats,
// policy cursors — as one canonical byte stream, so a restored instance
// is bit-identical to the saved one: same placements, same timings, same
// digests from then on. That is what lets the sweep drivers precondition
// a device ONCE and fork every seeded trial from the snapshot instead of
// re-running the fill phase per trial (ISSUE 8's warm start).
//
// Layout (all fields via ser::Writer — fixed little-endian):
//
//   u64  magic      "RPSSNAP1"
//   u32  version    kVersion (readers reject anything else)
//   u8   family     0 = MLC FtlBase, 1 = core::FlexTlcFtl
//   str  ftl name   e.g. "flexFTL" (restore target must match)
//   u32[] geometry echo (7 fields MLC / 5 fields TLC; must match)
//   u64  payload size
//   ...  payload    FtlBase::save_state / FlexTlcFtl::save_state stream
//   u64  payload FNV-1a (file-corruption guard)
//
// Determinism contract: the byte stream is canonical — unordered
// containers are serialized sorted by key, doubles as IEEE-754 bit
// patterns — so digest() is a pure function of logical state, identical
// across platforms and runs. RNG streams are deliberately NOT part of a
// snapshot: no persistent generator lives across the harness fork points
// (the fill phase draws nothing; workload generators are re-seeded per
// trial), which DESIGN.md §13 pins as a contract.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/nand/geometry.hpp"
#include "src/util/serialize.hpp"

namespace rps::ftl {
class FtlBase;
}  // namespace rps::ftl

namespace rps::core {
class FlexTlcFtl;
}  // namespace rps::core

namespace rps::sim {

class Snapshot {
 public:
  static constexpr std::uint64_t kMagic = 0x3150414e53535052ull;  // "RPSSNAP1"
  // v2: per-block wear ledger + cause-attributed op counters appended to
  // the chip/device payload streams (old v1 payloads lack those fields).
  static constexpr std::uint32_t kVersion = 2;

  Snapshot() = default;

  /// Capture the complete state of an MLC-family FTL (any FtlBase).
  static Snapshot capture(const ftl::FtlBase& ftl);
  /// Capture the TLC projection (FlexTlcFtl owns its own device type).
  static Snapshot capture(const core::FlexTlcFtl& ftl);

  /// Restore into a same-configuration instance. Returns false — leaving
  /// the target in an unspecified state that must be discarded — when the
  /// header does not match (wrong FTL name, geometry, version) or the
  /// payload is truncated/corrupt. Restoring into a freshly-constructed
  /// FTL of the captured config always succeeds.
  [[nodiscard]] bool restore(ftl::FtlBase& ftl) const;
  [[nodiscard]] bool restore(core::FlexTlcFtl& ftl) const;

  /// FNV-1a over the whole stream (header + payload). Two FTLs in the
  /// same logical state produce equal digests; the golden-digest tests
  /// pin these for the paper geometry.
  [[nodiscard]] std::uint64_t digest() const { return ser::fnv1a(bytes_); }

  /// Header accessors (empty/zero when the header is malformed).
  [[nodiscard]] bool valid() const;
  [[nodiscard]] std::string ftl_name() const;
  /// The geometry echo of an MLC-family snapshot (nullopt for TLC or a
  /// malformed header).
  [[nodiscard]] std::optional<nand::Geometry> geometry() const;

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  [[nodiscard]] bool empty() const { return bytes_.empty(); }

  /// Adopt a raw stream (file I/O, embedding in a larger container).
  static Snapshot from_bytes(std::vector<std::uint8_t> bytes);

  /// Whole-snapshot file I/O. load_file returns nullopt when the file is
  /// unreadable or fails header/checksum validation.
  [[nodiscard]] bool save_file(const std::string& path) const;
  static std::optional<Snapshot> load_file(const std::string& path);

 private:
  std::vector<std::uint8_t> bytes_;
};

}  // namespace rps::sim
