// The synthetic generators stand in for Sysbench/Filebench; these tests pin
// the Table 1 characteristics (read:write ratio, intensiveness buckets,
// idle structure) that the evaluation depends on.
#include "src/workload/generator.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>

namespace rps::workload {
namespace {

constexpr Lpn kWorkingSet = 1 << 16;

TEST(Generator, Deterministic) {
  const SyntheticConfig config = preset_config(Preset::kVarmail, kWorkingSet, 5000, 7);
  const Trace a = generate(config);
  const Trace b = generate(config);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.requests(), b.requests());
}

TEST(Generator, SeedChangesTrace) {
  const Trace a = generate(preset_config(Preset::kVarmail, kWorkingSet, 5000, 1));
  const Trace b = generate(preset_config(Preset::kVarmail, kWorkingSet, 5000, 2));
  EXPECT_NE(a.requests(), b.requests());
}

TEST(Generator, RespectsRequestCountAndBounds) {
  const Trace t = generate(preset_config(Preset::kOltp, kWorkingSet, 12'345, 3));
  EXPECT_EQ(t.size(), 12'345u);
  EXPECT_TRUE(t.is_sorted());
  for (const IoRequest& r : t.requests()) {
    EXPECT_GE(r.page_count, 1u);
    EXPECT_LE(r.lpn + r.page_count, kWorkingSet);
  }
}

TEST(Generator, SizesComeFromDistribution) {
  SyntheticConfig config = preset_config(Preset::kOltp, kWorkingSet, 20'000, 5);
  config.size_dist = {{1, 0.5}, {4, 0.5}};
  const Trace t = generate(config);
  std::uint64_t ones = 0;
  std::uint64_t fours = 0;
  for (const IoRequest& r : t.requests()) {
    ASSERT_TRUE(r.page_count == 1 || r.page_count == 4) << r.page_count;
    (r.page_count == 1 ? ones : fours) += 1;
  }
  EXPECT_NEAR(static_cast<double>(ones) / t.size(), 0.5, 0.05);
  EXPECT_GT(fours, 0u);
}

TEST(Generator, ZipfLocalityConcentratesWrites) {
  SyntheticConfig config = preset_config(Preset::kNtrx, kWorkingSet, 30'000, 9);
  config.zipf_theta = 0.95;
  const Trace t = generate(config);
  std::uint64_t hot = 0;
  std::uint64_t writes = 0;
  for (const IoRequest& r : t.requests()) {
    if (r.kind != IoKind::kWrite) continue;
    ++writes;
    if (r.lpn < kWorkingSet / 10) ++hot;
  }
  EXPECT_GT(static_cast<double>(hot) / static_cast<double>(writes), 0.5);
}

// Table 1's intensiveness labels, as TraceStats::intensiveness() spells them.
enum class Intensity : std::uint64_t { kModerate, kHigh, kVeryHigh };

const char* label(Intensity i) {
  switch (i) {
    case Intensity::kModerate: return "Moderate";
    case Intensity::kHigh: return "High";
    case Intensity::kVeryHigh: return "Very high";
  }
  return "";
}

// gtest names each case after the raw bytes of its parameter. Padding bytes
// or a pointer there would give each test run a different name, so every
// byte is an initialised member and no field holds an address.
struct PresetExpectation {
  Preset preset;
  std::uint32_t reserved = 0;
  double read_fraction = 0.0;
  Intensity intensiveness = Intensity::kModerate;
  bool large_idles = false;
  std::array<std::uint8_t, 7> reserved_tail{};
};
static_assert(sizeof(PresetExpectation) == 32, "no implicit padding");

class PresetCharacteristics : public ::testing::TestWithParam<PresetExpectation> {};

TEST_P(PresetCharacteristics, MatchesTable1) {
  const PresetExpectation& expect = GetParam();
  const Trace t = generate(preset_config(expect.preset, kWorkingSet, 60'000, 1));
  const TraceStats s = t.stats(/*idle_threshold_us=*/20'000);
  EXPECT_NEAR(s.read_fraction(), expect.read_fraction, 0.02)
      << to_string(expect.preset);
  EXPECT_STREQ(s.intensiveness().c_str(), label(expect.intensiveness))
      << to_string(expect.preset) << " iops=" << s.iops();
  if (expect.large_idles) {
    EXPECT_GT(s.idle_fraction, 0.3) << to_string(expect.preset);
  } else {
    EXPECT_LT(s.idle_fraction, 0.3) << to_string(expect.preset);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Table1, PresetCharacteristics,
    ::testing::Values(
        // Table 1: OLTP 7:3 very high, NTRX 3:7 very high, Webserver 4:1
        // moderate (large idles), Varmail 1:1 high, Fileserver 1:2 high.
        PresetExpectation{.preset = Preset::kOltp,
                          .read_fraction = 0.7,
                          .intensiveness = Intensity::kVeryHigh,
                          .large_idles = false},
        PresetExpectation{.preset = Preset::kNtrx,
                          .read_fraction = 0.3,
                          .intensiveness = Intensity::kVeryHigh,
                          .large_idles = false},
        PresetExpectation{.preset = Preset::kWebserver,
                          .read_fraction = 0.8,
                          .intensiveness = Intensity::kModerate,
                          .large_idles = true},
        PresetExpectation{.preset = Preset::kVarmail,
                          .read_fraction = 0.5,
                          .intensiveness = Intensity::kHigh,
                          .large_idles = true},
        PresetExpectation{.preset = Preset::kFileserver,
                          .read_fraction = 1.0 / 3.0,
                          .intensiveness = Intensity::kHigh,
                          .large_idles = true}),
    [](const auto& info) { return to_string(info.param.preset); });

TEST(SequentialFill, CoversWholeSpanOnce) {
  const Trace t = sequential_fill(100, 8);
  Lpn covered = 0;
  Lpn expected_next = 0;
  for (const IoRequest& r : t.requests()) {
    EXPECT_EQ(r.kind, IoKind::kWrite);
    EXPECT_EQ(r.lpn, expected_next);
    covered += r.page_count;
    expected_next = r.lpn + r.page_count;
  }
  EXPECT_EQ(covered, 100u);
  EXPECT_EQ(t.requests().back().page_count, 4u);  // 100 = 12*8 + 4
}

TEST(PresetNames, AllDistinct) {
  EXPECT_STREQ(to_string(Preset::kOltp), "OLTP");
  EXPECT_STREQ(to_string(Preset::kNtrx), "NTRX");
  EXPECT_STREQ(to_string(Preset::kWebserver), "Webserver");
  EXPECT_STREQ(to_string(Preset::kVarmail), "Varmail");
  EXPECT_STREQ(to_string(Preset::kFileserver), "Fileserver");
}

}  // namespace
}  // namespace rps::workload
