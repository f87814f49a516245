// Micro benchmarks (google-benchmark): the op-level costs of the simulator
// primitives — constraint checking, order generation, device operations,
// mapping updates, parity XOR and the interference Monte Carlo. These
// bound the simulation throughput (host-time per simulated I/O). The
// snapshot pair measures the fork cost: one capture of a preconditioned
// bench-geometry flexFTL, and one restore of it into a fresh instance.
#include <benchmark/benchmark.h>

#include "src/core/flex_ftl.hpp"
#include "src/ftl/page_ftl.hpp"
#include "src/nand/device.hpp"
#include "src/nand/program_order.hpp"
#include "src/reliability/interference.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "src/util/random.hpp"

using namespace rps;

namespace {

void BM_CheckProgramLegality(benchmark::State& state) {
  nand::BlockProgramState block(128);
  for (std::uint32_t wl = 0; wl < 64; ++wl) {
    block.mark_programmed({wl, nand::PageType::kLsb});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::check_program_legality(
        block, {64, nand::PageType::kLsb}, nand::SequenceKind::kRps));
  }
}
BENCHMARK(BM_CheckProgramLegality);

void BM_FpsOrderGeneration(benchmark::State& state) {
  const auto wordlines = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::fps_order(wordlines));
  }
}
BENCHMARK(BM_FpsOrderGeneration)->Arg(64)->Arg(128);

void BM_RandomRpsOrder(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::random_rps_order(64, rng));
  }
}
BENCHMARK(BM_RandomRpsOrder);

void BM_ExposureAnalysis(benchmark::State& state) {
  const nand::ProgramOrder order = nand::rps_full_order(128);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nand::analyze_exposure(order, 128));
  }
}
BENCHMARK(BM_ExposureAnalysis);

void BM_DeviceProgramEraseCycle(benchmark::State& state) {
  nand::NandDevice dev(nand::Geometry::tiny(), nand::TimingSpec::paper(),
                       nand::SequenceKind::kRps);
  const nand::ProgramOrder order =
      nand::rps_full_order(nand::Geometry::tiny().wordlines_per_block);
  Microseconds now = 0;
  for (auto _ : state) {
    for (const nand::PagePos pos : order) {
      benchmark::DoNotOptimize(dev.program({0, 0, pos}, {}, now));
    }
    benchmark::DoNotOptimize(dev.erase({0, 0}, now));
    now = dev.all_idle_at();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(order.size()));
}
BENCHMARK(BM_DeviceProgramEraseCycle);

void BM_PageDataXor(benchmark::State& state) {
  nand::PageData acc;
  acc.lpn = 0;
  nand::PageData page;
  page.lpn = 42;
  page.signature = 0x1234567890abcdefull;
  page.bytes.assign(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    acc.xor_with(page);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PageDataXor)->Arg(0)->Arg(4096);

void BM_PageFtlWrite(benchmark::State& state) {
  ftl::PageFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.next_below(n), 0, 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PageFtlWrite);

void BM_FlexFtlWrite(benchmark::State& state) {
  core::FlexFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.write(rng.next_below(n), 0, 0.5));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexFtlWrite);

void BM_FlexFtlRead(benchmark::State& state) {
  core::FlexFtl ftl(ftl::FtlConfig::tiny());
  const Lpn n = ftl.exported_pages();
  Rng rng(7);
  for (Lpn lpn = 0; lpn < n; ++lpn) {
    (void)ftl.write(lpn, 0, 0.5);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.read(rng.next_below(n), 0));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FlexFtlRead);

void BM_InterferenceBlock(benchmark::State& state) {
  Rng rng(3);
  reliability::InterferenceConfig config;
  config.cells_per_wordline = 256;
  const nand::ProgramOrder order = nand::rps_full_order(16);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        reliability::simulate_block(order, 16, config, rng));
  }
}
BENCHMARK(BM_InterferenceBlock);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfGenerator zipf(1 << 20, 0.85);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.sample(rng));
  }
}
BENCHMARK(BM_ZipfSample);

/// A bench-geometry flexFTL after Simulator::precondition(), built once
/// and shared by both snapshot benchmarks.
const ftl::FtlBase& preconditioned_flex() {
  static const std::unique_ptr<ftl::FtlBase> ftl = [] {
    const sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
    std::unique_ptr<ftl::FtlBase> f = sim::make_ftl(sim::FtlKind::kFlex, spec.ftl_config);
    sim::Simulator(*f, spec.sim).precondition();
    return f;
  }();
  return *ftl;
}

void BM_SnapshotCapture(benchmark::State& state) {
  const ftl::FtlBase& ftl = preconditioned_flex();
  std::size_t bytes = 0;
  for (auto _ : state) {
    const sim::Snapshot snapshot = sim::Snapshot::capture(ftl);
    bytes = snapshot.bytes().size();
    benchmark::DoNotOptimize(snapshot.bytes().data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * bytes));
}
BENCHMARK(BM_SnapshotCapture)->Unit(benchmark::kMillisecond);

void BM_SnapshotRestore(benchmark::State& state) {
  const sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  const sim::Snapshot snapshot = sim::Snapshot::capture(preconditioned_flex());
  for (auto _ : state) {
    state.PauseTiming();
    std::unique_ptr<ftl::FtlBase> target = sim::make_ftl(sim::FtlKind::kFlex, spec.ftl_config);
    state.ResumeTiming();
    const bool restored = snapshot.restore(*target);
    benchmark::DoNotOptimize(restored);
    benchmark::ClobberMemory();
    if (!restored) state.SkipWithError("restore rejected the snapshot");
    state.PauseTiming();
    target.reset();
    state.ResumeTiming();
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * snapshot.bytes().size()));
}
BENCHMARK(BM_SnapshotRestore)->Unit(benchmark::kMillisecond);

}  // namespace
