// Byte-level serialization primitives for device/FTL snapshots.
//
// The encoding is deliberately boring: fixed little-endian integers,
// doubles as their IEEE-754 bit patterns, length-prefixed byte strings.
// No varints, no alignment, no endianness detection — the canonical byte
// stream must be identical on every platform because Snapshot::digest()
// hashes it and tests pin those digests. Anything order-sensitive
// (unordered_map contents) is the *caller's* job to canonicalize (sort by
// key) before writing.
//
// Endianness rule: integers move between memory and the stream as whole
// words (one memcpy per field), which is the canonical little-endian
// encoding only on a little-endian host. The static_assert below turns a
// big-endian build into a compile error instead of a silently different
// stream; porting there means adding a byteswap in Writer::word and
// Reader::word, nothing else.
//
// Writer appends through a raw cursor with one capacity check per field.
// A measuring Writer (Writer::measuring()) runs the same save() code
// without storing anything, so a caller can learn a stream's exact length
// first and then write it into a buffer allocated once at that size
// (Snapshot::capture does this; its stream never regrows or gets copied).
//
// Reader never throws: an underflow or explicit fail() poisons the stream
// (all further reads return zeros) and the caller checks ok() once at the
// top level. That keeps per-field load code branch-free.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace rps::ser {

static_assert(std::endian::native == std::endian::little,
              "ser::Writer/Reader copy words verbatim; the stream is little-endian");

class Writer {
 public:
  Writer() = default;
  /// A writer whose buffer is allocated once, at `capacity` bytes. Writing
  /// more still works (the buffer regrows); writing exactly that much
  /// leaves take() with no slack.
  explicit Writer(std::size_t capacity) {
    buf_.reserve(capacity);
    cur_ = end_ = buf_.data();
  }

  /// A writer that stores nothing: it cycles one small scratch buffer and
  /// size() reports how long the stream would have been.
  static Writer measuring() { return Writer(kScratchBytes, true); }

  // The cursor points into buf_; a copied or moved Writer would alias it.
  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  void u8(std::uint8_t v) { *claim(1) = v; }
  void u32(std::uint32_t v) { word(v); }
  void u64(std::uint64_t v) { word(v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const void* p, std::size_t n) {
    if (n == 0) return;  // p may be null (an empty vector's data())
    if (room() < n && !overflow(n)) return;
    std::memcpy(cur_, p, n);
    cur_ += n;
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  /// Overwrite the u64 written at byte `offset` (a placeholder for a
  /// length that is only known later). Not for measuring writers.
  void patch_u64(std::size_t offset, std::uint64_t v) {
    assert(!measuring_ && offset + sizeof v <= size());
    std::memcpy(buf_.data() + offset, &v, sizeof v);
  }

  /// The bytes written so far (not for measuring writers).
  [[nodiscard]] std::span<const std::uint8_t> view() const {
    return {buf_.data(), used()};
  }
  [[nodiscard]] std::size_t size() const { return measured_ + used(); }
  std::vector<std::uint8_t> take() {
    buf_.resize(used());
    cur_ = end_ = nullptr;
    return std::move(buf_);
  }

 private:
  static constexpr std::size_t kScratchBytes = 4096;

  // Zero-filled ahead of the cursor in chunks of this size, so the fill
  // (and the page faults of a fresh buffer) land in cache just before the
  // fields overwrite them, not in a separate pass over the whole buffer.
  static constexpr std::size_t kChunkBytes = 64 * 1024;

  Writer(std::size_t scratch, bool measuring) : measuring_(measuring) {
    buf_.resize(scratch);
    cur_ = buf_.data();
    end_ = cur_ + scratch;
  }

  template <typename T>
  void word(T v) {
    std::memcpy(claim(sizeof v), &v, sizeof v);
  }

  std::uint8_t* claim(std::size_t n) {
    if (room() < n) [[unlikely]] overflow(n);
    std::uint8_t* at = cur_;
    cur_ += n;
    return at;
  }

  [[nodiscard]] std::size_t room() const { return static_cast<std::size_t>(end_ - cur_); }
  [[nodiscard]] std::size_t used() const {
    return static_cast<std::size_t>(cur_ - buf_.data());
  }

  /// Make room for `n` more bytes. Returns false only when a measuring
  /// writer counted a run too long for its scratch: nothing to copy then.
  [[gnu::noinline]] bool overflow(std::size_t n) {
    const std::size_t at = used();
    if (measuring_) {
      measured_ += at;
      cur_ = buf_.data();
      if (n <= kScratchBytes) return true;
      measured_ += n;
      return false;
    }
    const std::size_t need = at + n;
    if (need > buf_.capacity()) {
      buf_.reserve(std::max({std::size_t{64}, 2 * buf_.capacity(), need}));
    }
    buf_.resize(std::min(buf_.capacity(), std::max(need, at + kChunkBytes)));
    cur_ = buf_.data() + at;
    end_ = buf_.data() + buf_.size();
    return true;
  }

  // [buf_.data(), cur_) is the stream; [cur_, end_) is zero-filled room
  // (buf_.size() runs ahead of the stream by up to one chunk), and
  // buf_.capacity() is the allocation.
  std::vector<std::uint8_t> buf_;
  std::uint8_t* cur_ = nullptr;
  std::uint8_t* end_ = nullptr;
  bool measuring_ = false;
  std::size_t measured_ = 0;  // bytes already cycled out of the scratch
};

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit Reader(std::span<const std::uint8_t> data) : Reader(data.data(), data.size()) {}

  std::uint8_t u8() {
    if (!take(1)) return 0;
    return data_[pos_++];
  }

  std::uint32_t u32() { return word<std::uint32_t>(); }
  std::uint64_t u64() { return word<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }
  bool boolean() { return u8() != 0; }

  void bytes(void* out, std::size_t n) {
    if (n == 0) return;  // out may be null (an empty vector's data())
    if (!take(n)) {
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  std::string str() {
    const std::uint64_t n = u64();
    if (!take(static_cast<std::size_t>(n))) return {};
    std::string s(reinterpret_cast<const char*>(data_ + pos_),
                  static_cast<std::size_t>(n));
    pos_ += static_cast<std::size_t>(n);
    return s;
  }

  /// Poison the stream: a shape/invariant mismatch was detected. All
  /// subsequent reads return zeros; the top-level caller rejects the load.
  void fail() { ok_ = false; }

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] bool at_end() const { return pos_ == size_; }
  [[nodiscard]] std::size_t pos() const { return pos_; }
  [[nodiscard]] std::size_t remaining() const { return size_ - pos_; }

 private:
  template <typename T>
  T word() {
    if (!take(sizeof(T))) return 0;
    T v;
    std::memcpy(&v, data_ + pos_, sizeof v);
    pos_ += sizeof v;
    return v;
  }

  bool take(std::size_t n) {
    if (!ok_ || size_ - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// FNV-1a over a byte range — the digest primitive every determinism check
/// in this repo uses (faultsim replay, bench_simcore matrix, snapshots).
[[nodiscard]] inline std::uint64_t fnv1a(const std::uint8_t* data, std::size_t size,
                                         std::uint64_t h = 0xcbf29ce484222325ull) {
  for (std::size_t i = 0; i < size; ++i) {
    h ^= data[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

[[nodiscard]] inline std::uint64_t fnv1a(std::span<const std::uint8_t> data,
                                         std::uint64_t h = 0xcbf29ce484222325ull) {
  return fnv1a(data.data(), data.size(), h);
}

/// Sequential reader over a whole regular file whose size is learned once
/// at open: every section is read straight into a buffer of its exact
/// length, and a length prefix that overruns the file poisons the reader
/// before anything is allocated for it. Like Reader, a poisoned reader
/// returns zeros and empty buffers.
class FileReader {
 public:
  explicit FileReader(const std::string& path);
  ~FileReader();
  FileReader(const FileReader&) = delete;
  FileReader& operator=(const FileReader&) = delete;

  [[nodiscard]] bool ok() const { return ok_; }
  [[nodiscard]] std::uint64_t remaining() const { return remaining_; }

  /// The next `n` bytes, or an empty buffer when fewer are left or the
  /// read comes up short.
  std::vector<std::uint8_t> take(std::uint64_t n);
  std::uint64_t u64();

 private:
  bool read(void* out, std::size_t n);

  std::FILE* f_ = nullptr;
  bool ok_ = false;
  std::uint64_t remaining_ = 0;
};

/// Write `parts` back to back as the whole contents of `path`.
[[nodiscard]] bool write_file(const std::string& path,
                              std::initializer_list<std::span<const std::uint8_t>> parts);

}  // namespace rps::ser
