// ser::Writer / ser::Reader lockdown (src/util/serialize.hpp).
//
// ReferenceWriter below is the original per-byte writer, kept verbatim as
// the model of the canonical encoding: every byte the word-wise Writer
// produces — growing, presized or measuring — must match it, and so must
// whole snapshot captures, which are assembled here the way the original
// capture did it (header, payload copied behind its size, FNV-1a trailer).
// The snapshot goldens pin the same stream on the paper geometry.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/flex_tlc_ftl.hpp"
#include "src/faultsim/harness.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::ser {
namespace {

class ReferenceWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }

  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }

  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const std::uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }

  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] const std::vector<std::uint8_t>& data() const { return buf_; }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Drive any writer through `count` random fields drawn from `seed`:
/// every field kind, byte runs from empty to several scratch buffers long.
template <typename W>
void random_fields(W& w, std::uint64_t seed, int count) {
  Rng rng(seed);
  std::vector<std::uint8_t> run;
  for (int i = 0; i < count; ++i) {
    switch (rng.next_below(8)) {
      case 0: w.u8(static_cast<std::uint8_t>(rng.next_u64())); break;
      case 1: w.u32(static_cast<std::uint32_t>(rng.next_u64())); break;
      case 2: w.u64(rng.next_u64()); break;
      case 3: w.i64(-static_cast<std::int64_t>(rng.next_below(1 << 30))); break;
      case 4: w.f64(rng.next_double()); break;
      case 5: w.boolean(rng.chance(0.5)); break;
      case 6: {
        const std::uint64_t n = rng.chance(0.2) ? 0 : rng.next_below(rng.chance(0.1) ? 20000 : 64);
        run.resize(n);
        for (std::uint8_t& b : run) b = static_cast<std::uint8_t>(rng.next_u64());
        w.bytes(run.data(), run.size());
        break;
      }
      default: w.str(std::string(rng.next_below(40), 'x')); break;
    }
  }
}

TEST(Serialize, RandomFieldsEncodeLikeTheReferenceWriter) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const int count = static_cast<int>(1 + seed * 37);
    ReferenceWriter ref;
    random_fields(ref, seed, count);

    Writer growing;
    random_fields(growing, seed, count);
    Writer measuring = Writer::measuring();
    random_fields(measuring, seed, count);
    Writer presized(ref.size());
    random_fields(presized, seed, count);

    EXPECT_EQ(measuring.size(), ref.size()) << "seed " << seed;
    EXPECT_EQ(growing.size(), ref.size()) << "seed " << seed;
    EXPECT_EQ(growing.take(), ref.data()) << "seed " << seed;
    const std::vector<std::uint8_t> exact = presized.take();
    EXPECT_EQ(exact, ref.data()) << "seed " << seed;
    EXPECT_EQ(exact.capacity(), exact.size()) << "seed " << seed;
  }
}

TEST(Serialize, ReaderDecodesWhatTheWriterEncoded) {
  Writer w;
  w.u8(0xab);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.i64(-42);
  w.f64(-0.125);
  w.boolean(true);
  w.str("flexFTL");
  const std::uint8_t run[3] = {7, 8, 9};
  w.bytes(run, sizeof run);
  const std::vector<std::uint8_t> bytes = w.take();

  Reader r(bytes);
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_TRUE(r.boolean());
  EXPECT_EQ(r.str(), "flexFTL");
  std::uint8_t back[3] = {};
  r.bytes(back, sizeof back);
  EXPECT_EQ(std::vector<std::uint8_t>(back, back + 3), std::vector<std::uint8_t>(run, run + 3));
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
}

TEST(Serialize, WordsAreLittleEndianOnTheWire) {
  Writer w;
  w.u32(0x04030201u);
  w.u64(0x0807060504030201ull);
  EXPECT_EQ(w.take(), (std::vector<std::uint8_t>{1, 2, 3, 4, 1, 2, 3, 4, 5, 6, 7, 8}));
}

// An empty PageData::bytes hands (nullptr, 0) to both sides on every
// snapshot; neither may pass the null pointer on to memcpy/memset.
TEST(Serialize, NullPointerWithZeroLengthIsANoOp) {
  Writer w;
  w.bytes(nullptr, 0);
  w.u8(5);
  w.bytes(nullptr, 0);
  Writer measuring = Writer::measuring();
  measuring.bytes(nullptr, 0);
  EXPECT_EQ(measuring.size(), 0u);
  const std::vector<std::uint8_t> bytes = w.take();
  ASSERT_EQ(bytes, std::vector<std::uint8_t>{5});

  Reader r(bytes);
  r.bytes(nullptr, 0);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.pos(), 0u);
  EXPECT_EQ(r.u8(), 5);
  r.bytes(nullptr, 0);  // at the end: still fine, nothing to take
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());

  Reader poisoned(bytes);
  poisoned.fail();
  poisoned.bytes(nullptr, 0);  // the zero-fill path with a null target
  EXPECT_FALSE(poisoned.ok());
}

TEST(Serialize, UnderflowPoisonsTheReader) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5, 6};
  Reader r(bytes);
  EXPECT_EQ(r.u32(), 0x04030201u);
  EXPECT_EQ(r.u64(), 0u);  // two bytes left: underflow
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.pos(), 4u);
  // Poisoned for good: even reads that would fit return zeros.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_EQ(r.str(), "");
  std::uint8_t out[4] = {9, 9, 9, 9};
  r.bytes(out, sizeof out);
  EXPECT_EQ(std::vector<std::uint8_t>(out, out + 4), std::vector<std::uint8_t>(4, 0));
  EXPECT_FALSE(r.ok());

  // A length prefix longer than the stream poisons instead of reading past it.
  Writer w;
  w.u64(1000);
  const std::vector<std::uint8_t> lying = w.take();
  Reader s(lying);
  EXPECT_EQ(s.str(), "");
  EXPECT_FALSE(s.ok());
}

TEST(Serialize, PatchOverwritesAPlaceholder) {
  Writer w;
  w.u8(1);
  w.u64(0);
  w.u32(7);
  w.patch_u64(1, 0x1122334455667788ull);
  ReferenceWriter ref;
  ref.u8(1);
  ref.u64(0x1122334455667788ull);
  ref.u32(7);
  EXPECT_EQ(w.take(), ref.data());
}

TEST(Serialize, FileReaderRejectsOverrunsWithoutAllocating) {
  EXPECT_FALSE(FileReader(testing::TempDir() + "rps_no_such_file.bin").ok());
  // A directory opens with fopen and reports a bogus size through ftell;
  // it must read as unreadable, not as a huge allocation.
  FileReader dir(testing::TempDir());
  EXPECT_FALSE(dir.ok());
  EXPECT_TRUE(dir.take(dir.remaining()).empty());
  EXPECT_FALSE(sim::Snapshot::load_file(testing::TempDir()).has_value());
  EXPECT_FALSE(faultsim::WarmStart::load_file(testing::TempDir()).has_value());

  const std::string path = testing::TempDir() + "rps_file_reader.bin";
  const std::vector<std::uint8_t> body = {1, 2, 3, 4, 5, 6, 7, 8, 9};
  ASSERT_TRUE(write_file(path, {std::span<const std::uint8_t>(body).first(4),
                                std::span<const std::uint8_t>(body).subspan(4)}));
  FileReader in(path);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.remaining(), body.size());
  EXPECT_EQ(in.u64(), 0x0807060504030201ull);
  EXPECT_TRUE(in.take(1ull << 62).empty());  // a corrupt length prefix
  EXPECT_FALSE(in.ok());
  EXPECT_EQ(in.u64(), 0u);
  std::remove(path.c_str());
}

// --- Whole captures against the reference framing ---------------------

void write_geometry(ReferenceWriter& w, const nand::Geometry& g) {
  for (const std::uint32_t v : {g.channels, g.chips_per_channel, g.planes_per_chip,
                                g.blocks_per_chip, g.wordlines_per_block,
                                g.page_size_bytes, g.spare_bytes}) {
    w.u32(v);
  }
}

void write_geometry(ReferenceWriter& w, const nand::TlcGeometry& g) {
  for (const std::uint32_t v : {g.channels, g.chips_per_channel, g.blocks_per_chip,
                                g.wordlines_per_block, g.page_size_bytes}) {
    w.u32(v);
  }
}

/// The original capture: header into one writer, payload into a second,
/// then size + copied payload + FNV-1a trailer appended to the first.
template <typename Ftl>
std::vector<std::uint8_t> reference_capture(const Ftl& ftl, std::uint8_t family) {
  ReferenceWriter w;
  w.u64(sim::Snapshot::kMagic);
  w.u32(sim::Snapshot::kVersion);
  w.u8(family);
  w.str(ftl.name());
  write_geometry(w, ftl.device().geometry());
  Writer payload;
  ftl.save_state(payload);
  const std::vector<std::uint8_t> body = payload.take();
  w.u64(body.size());
  w.bytes(body.data(), body.size());
  w.u64(fnv1a(body));
  return w.take();
}

void fill(ftl::FtlBase& ftl) {
  const Lpn span = ftl.exported_pages() * 6 / 10;
  for (Lpn lpn = 0; lpn < span; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  Rng rng(0xc0ffee);
  for (int i = 0; i < 300; ++i) {
    ASSERT_TRUE(ftl.write(rng.next_below(span), ftl.device().all_idle_at(), 0.5).is_ok());
  }
}

TEST(SerializeCapture, MlcCapturesMatchTheReferenceFraming) {
  for (const sim::FtlKind kind : {sim::FtlKind::kPage, sim::FtlKind::kParity,
                                  sim::FtlKind::kRtf, sim::FtlKind::kFlex,
                                  sim::FtlKind::kSlc}) {
    for (const std::uint32_t planes : {1u, 2u, 4u}) {
      ftl::FtlConfig config = ftl::FtlConfig::tiny();
      config.geometry.planes_per_chip = planes;
      std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, config);
      fill(*ftl);
      const sim::Snapshot snapshot = sim::Snapshot::capture(*ftl);
      const std::vector<std::uint8_t>& got = snapshot.bytes();
      EXPECT_EQ(got, reference_capture(*ftl, 0)) << sim::to_string(kind) << " planes " << planes;
      EXPECT_EQ(got.capacity(), got.size()) << sim::to_string(kind) << " planes " << planes;
    }
  }
}

TEST(SerializeCapture, TlcCaptureMatchesTheReferenceFraming) {
  core::FlexTlcFtl ftl(core::TlcFtlConfig::tiny());
  const Lpn span = ftl.exported_pages() * 6 / 10;
  for (Lpn lpn = 0; lpn < span; ++lpn) {
    ASSERT_TRUE(ftl.write(lpn, ftl.device().all_idle_at(), 0.5).is_ok());
  }
  const sim::Snapshot snapshot = sim::Snapshot::capture(ftl);
  EXPECT_EQ(snapshot.bytes(), reference_capture(ftl, 1));
  EXPECT_EQ(snapshot.bytes().capacity(), snapshot.bytes().size());
}

// The stream is exactly its frame: header, u64 size, that many payload
// bytes, u64 trailer — and the buffer holds nothing beyond it.
TEST(SerializeCapture, StreamIsExactlyItsFramedLength) {
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(sim::FtlKind::kFlex, ftl::FtlConfig::tiny());
  fill(*ftl);
  const sim::Snapshot snapshot = sim::Snapshot::capture(*ftl);
  const std::vector<std::uint8_t>& bytes = snapshot.bytes();

  Reader r(bytes);
  EXPECT_EQ(r.u64(), sim::Snapshot::kMagic);
  EXPECT_EQ(r.u32(), sim::Snapshot::kVersion);
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_EQ(r.str(), ftl->name());
  for (int i = 0; i < 7; ++i) (void)r.u32();
  const std::uint64_t payload = r.u64();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.pos() + payload + 8, bytes.size());
  EXPECT_EQ(bytes.capacity(), bytes.size());
  Reader trailer(bytes.data() + r.pos() + payload, 8);
  EXPECT_EQ(trailer.u64(), fnv1a(bytes.data() + r.pos(), payload));
}

// --- File round trips -------------------------------------------------

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_prefix(const std::string& path, const std::vector<std::uint8_t>& bytes,
                  std::size_t n) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()), static_cast<std::streamsize>(n));
}

TEST(SerializeFiles, WarmStartFileRoundTripsAndRejectsEveryTruncation) {
  const faultsim::FaultSimConfig config;
  const faultsim::WarmStart warm = faultsim::make_warm_start(config);
  const std::string path = testing::TempDir() + "rps_warm_truncated.bin";
  ASSERT_TRUE(warm.save_file(path));
  const std::vector<std::uint8_t> file = read_all(path);
  // Magic, snapshot size, snapshot, oracle size, oracle, digest.
  ASSERT_EQ(file.size(), 8 + 8 + warm.ftl.bytes().size() + 8 + warm.oracle.size() + 8);

  const std::optional<faultsim::WarmStart> loaded = faultsim::WarmStart::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->ftl.bytes(), warm.ftl.bytes());
  EXPECT_EQ(loaded->oracle, warm.oracle);
  EXPECT_EQ(loaded->digest(), warm.digest());

  // Cut inside every section: magic, sizes, snapshot, oracle, digest.
  const std::size_t snap_end = 16 + warm.ftl.bytes().size();
  for (const std::size_t cut :
       {std::size_t{0}, std::size_t{5}, std::size_t{12}, std::size_t{16}, snap_end / 2,
        snap_end + 4, snap_end + 8 + warm.oracle.size() / 2, file.size() - 1}) {
    write_prefix(path, file, cut);
    EXPECT_FALSE(faultsim::WarmStart::load_file(path).has_value()) << "cut at " << cut;
  }
  // A trailing byte is rejected too: the file must be exactly its frame.
  std::vector<std::uint8_t> longer = file;
  longer.push_back(0);
  write_prefix(path, longer, longer.size());
  EXPECT_FALSE(faultsim::WarmStart::load_file(path).has_value());
  std::remove(path.c_str());
}

TEST(SerializeFiles, SnapshotFileRejectsEveryTruncation) {
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(sim::FtlKind::kRtf, ftl::FtlConfig::tiny());
  fill(*ftl);
  const sim::Snapshot snapshot = sim::Snapshot::capture(*ftl);
  const std::string path = testing::TempDir() + "rps_snapshot_cuts.bin";
  ASSERT_TRUE(snapshot.save_file(path));
  ASSERT_EQ(read_all(path), snapshot.bytes());
  const std::optional<sim::Snapshot> loaded = sim::Snapshot::load_file(path);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->bytes(), snapshot.bytes());

  const std::size_t size = snapshot.bytes().size();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7}, size / 3, size - 8, size - 1}) {
    write_prefix(path, snapshot.bytes(), cut);
    EXPECT_FALSE(sim::Snapshot::load_file(path).has_value()) << "cut at " << cut;
  }
  EXPECT_FALSE(sim::Snapshot::load_file(path + ".missing").has_value());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rps::ser
