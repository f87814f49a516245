// The benchmark's workloads. Each takes its inputs from the seed alone,
// repeats its set-up and measured phase until the run's time is spent,
// checks the simulator's outputs and fills a Report.
#pragma once

#include <cstdint>
#include <string>

#include "measure.hpp"
#include "src/workload/generator.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// At least this many repetitions per run, however short --seconds is:
/// every reported host time is a median.
inline constexpr int kMinReps = 3;

/// fig8_ntrx / fig8_webserver: the four paper FTLs in a closed loop on
/// one Table 1 preset.
void run_fig8(const Options& options, rps::workload::Preset preset, Report& report);

/// tenant_flood: 1024 open-loop tenants on the multi-queue frontend.
void run_tenant_flood(const Options& options, Report& report);

}  // namespace perfbench
