// faultsim: deterministic power-loss crash-consistency driver.
//
// Modes:
//   faultsim --matrix [--seeds=16] [--densities=8,16,32] [--jobs=N] [--ftl=flex]
//       CI sweep: for each seed x crash-density cell, inject crashes at
//       evenly spaced op-completion boundaries, audit recovery with the
//       shadow oracle, and verify every crash replays bit-identically
//       from its reproducer line. Exit 1 and print each failure's
//       minimal one-line reproducer on stderr (first line of stderr is
//       machine-grabbable for a CI artifact).
//   faultsim --sweep --ftl=... --engine=... --seed=N [--points=16] [--jobs=N]
//       One sweep cell, verbose per-crash summary.
//   faultsim --ftl=... --seed=N --crash-us=T [...]
//       Replay a single reproducer line (the flags ARE the line printed
//       by a failing sweep). Exit 1 on violations.
//
// --trace=PATH (sweep and single-trial modes) writes a Chrome trace_event
// JSON of the run — open it in Perfetto / chrome://tracing. Tracing a
// sweep forces --jobs=1; each crash point records under its own process
// lane. Traces timestamp in simulated microseconds and are byte-identical
// across runs of the same flags.
//
// --metrics=PATH (sweep and single-trial modes) writes an
// obs::MetricsReport with the cause-tagged attribution breakdown and the
// wear-ledger digest. Single-trial mode reports the replayed trial
// itself; sweep mode reports the config's golden (no-crash) trial, which
// is deterministic and --jobs-invariant.
//
// Warm-start plumbing (results are bit-identical in all three modes):
//   --snapshot=PATH       run only the fill phase of the config, save the
//                         post-fill WarmStart (FTL + oracle) to PATH,
//                         print its digest, and exit.
//   --from-snapshot=PATH  fork every trial from a WarmStart saved by
//                         --snapshot instead of re-running the fill. The
//                         snapshot must match the config's --ftl and
//                         geometry flags; a mismatch exits 2.
//   --cold                re-run the fill phase in every trial (disables
//                         the internal warm start sweeps use by default);
//                         the slow path kept for differential testing.
#include <cstdio>
#include <string>
#include <vector>

#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"

namespace {

using namespace rps;
using namespace rps::faultsim;

void print_report(const CrashReport& r) {
  std::printf(
      "crash_us=%lld issued=%llu victims=%llu cancelled_w=%llu "
      "cancelled_r=%llu aborted=%llu\n",
      static_cast<long long>(r.crash_time_us),
      static_cast<unsigned long long>(r.requests_issued),
      static_cast<unsigned long long>(r.victims),
      static_cast<unsigned long long>(r.cancelled_write_ops),
      static_cast<unsigned long long>(r.cancelled_read_ops),
      static_cast<unsigned long long>(r.aborted_commands));
  std::printf(
      "recovery: supported=%d recovered=%llu lost=%llu discarded=%llu "
      "rolled_back=%llu parity_flush_interrupted=%llu time_us=%lld\n",
      r.recovery_supported ? 1 : 0,
      static_cast<unsigned long long>(r.recovery.pages_recovered),
      static_cast<unsigned long long>(r.recovery.pages_lost),
      static_cast<unsigned long long>(r.recovery.interrupted_writes_discarded),
      static_cast<unsigned long long>(r.recovery.relocations_rolled_back),
      static_cast<unsigned long long>(r.recovery.parity_flush_interrupted),
      static_cast<long long>(r.recovery.recovery_time_us));
  std::printf(
      "oracle: checked=%llu lost=%llu stale=%llu hazard_skipped=%llu "
      "unaccounted=%llu violations=%llu consistent=%d\n",
      static_cast<unsigned long long>(r.oracle.acked_lpns_checked),
      static_cast<unsigned long long>(r.oracle.lost),
      static_cast<unsigned long long>(r.oracle.stale),
      static_cast<unsigned long long>(r.oracle.overwrite_hazard_skipped),
      static_cast<unsigned long long>(r.unaccounted_loss),
      static_cast<unsigned long long>(r.violations), r.consistent ? 1 : 0);
  if (r.oracle.first_failed_lpn != kInvalidLpn) {
    std::printf("first_failed_lpn=%llu\n",
                static_cast<unsigned long long>(r.oracle.first_failed_lpn));
  }
}

int report_failures(const SweepResult& result) {
  for (const SweepFailure& f : result.failures) {
    std::fprintf(stderr, "%s\n", f.line.c_str());
    std::fprintf(stderr,
                 "  ^ %s: violations=%llu lost=%llu stale=%llu consistent=%d\n",
                 f.replay_mismatch ? "REPLAY MISMATCH" : "ORACLE VIOLATION",
                 static_cast<unsigned long long>(f.report.violations),
                 static_cast<unsigned long long>(f.report.oracle.lost),
                 static_cast<unsigned long long>(f.report.oracle.stale),
                 f.report.consistent ? 1 : 0);
  }
  return result.ok() ? 0 : 1;
}

/// One trial's metrics report: crash/oracle headline numbers, then the
/// attribution and wear sections collected by run_trial.
bool write_metrics(const std::string& path, const char* label,
                   const TrialResult& trial) {
  obs::MetricsReport report;
  report.begin(label);
  report.add_u64("requests_issued", trial.report.requests_issued);
  report.add_i64("crash_time_us", trial.report.crash_time_us);
  report.add_u64("victims", trial.report.victims);
  report.add_u64("violations", trial.report.violations);
  report.add_u64("boundaries", trial.boundaries.size());
  report.add_attribution(trial.attribution);
  report.add_wear(trial.wear);
  report.end();
  if (!report.write_file(path)) {
    std::fprintf(stderr, "failed to write metrics report at: %s\n", path.c_str());
    return false;
  }
  std::printf("metrics: %s\n", path.c_str());
  return true;
}

std::vector<std::uint64_t> parse_list(const std::string& value) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos < value.size()) {
    const std::size_t comma = value.find(',', pos);
    const std::string item =
        value.substr(pos, comma == std::string::npos ? comma : comma - pos);
    out.push_back(std::stoull(item));
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

int run_matrix(const FaultSimConfig& base, std::uint64_t seeds,
               const std::vector<std::uint64_t>& densities, std::uint32_t jobs,
               bool warm_start, const WarmStart* warm) {
  MatrixOptions options;
  options.seeds = seeds;
  options.densities = densities;
  options.jobs = jobs;
  options.sweep.warm_start = warm_start;
  // Cells fan out jobs-wide but come back in cell-enumeration order, so
  // the per-cell lines (and the totals) below are byte-identical to a
  // sequential run for any --jobs value.
  const std::vector<MatrixCell> matrix = sweep_matrix(base, options, warm);
  SweepResult total;
  std::uint64_t cells = 0;
  for (const MatrixCell& cell : matrix) {
    ++cells;
    total.crashes_injected += cell.result.crashes_injected;
    total.total_victims += cell.result.total_victims;
    total.total_pages_lost += cell.result.total_pages_lost;
    total.total_parity_recovered += cell.result.total_parity_recovered;
    total.replay_mismatches += cell.result.replay_mismatches;
    for (const SweepFailure& f : cell.result.failures) total.failures.push_back(f);
    std::printf("seed=%llu points=%llu: crashes=%llu victims=%llu "
                "recovered=%llu lost=%llu failures=%zu\n",
                static_cast<unsigned long long>(cell.seed),
                static_cast<unsigned long long>(cell.points),
                static_cast<unsigned long long>(cell.result.crashes_injected),
                static_cast<unsigned long long>(cell.result.total_victims),
                static_cast<unsigned long long>(cell.result.total_parity_recovered),
                static_cast<unsigned long long>(cell.result.total_pages_lost),
                cell.result.failures.size());
    std::fflush(stdout);
  }
  std::printf("matrix: cells=%llu crashes=%llu victims=%llu recovered=%llu "
              "lost=%llu replay_mismatches=%llu failures=%zu\n",
              static_cast<unsigned long long>(cells),
              static_cast<unsigned long long>(total.crashes_injected),
              static_cast<unsigned long long>(total.total_victims),
              static_cast<unsigned long long>(total.total_parity_recovered),
              static_cast<unsigned long long>(total.total_pages_lost),
              static_cast<unsigned long long>(total.replay_mismatches),
              total.failures.size());
  return report_failures(total);
}

}  // namespace

int main(int argc, char** argv) {
  bool matrix = false;
  bool do_sweep = false;
  std::uint64_t seeds = 16;
  std::vector<std::uint64_t> densities = {8, 16, 32};
  std::uint64_t points = 16;
  std::uint32_t jobs = 1;
  std::string trace_path;
  std::string metrics_path;
  std::string snapshot_path;
  std::string from_snapshot_path;
  bool cold = false;

  // Split driver flags from reproducer flags; the rest of the line is
  // parsed by the same parser the sweep's replay check uses.
  std::string repro_line = "faultsim";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--matrix") {
        matrix = true;
      } else if (arg == "--sweep") {
        do_sweep = true;
      } else if (arg.rfind("--seeds=", 0) == 0) {
        seeds = std::stoull(arg.substr(8));
      } else if (arg.rfind("--densities=", 0) == 0) {
        densities = parse_list(arg.substr(12));
      } else if (arg.rfind("--points=", 0) == 0) {
        points = std::stoull(arg.substr(9));
      } else if (arg.rfind("--jobs=", 0) == 0) {
        jobs = static_cast<std::uint32_t>(std::stoul(arg.substr(7)));
      } else if (arg.rfind("--trace=", 0) == 0) {
        trace_path = arg.substr(8);
      } else if (arg.rfind("--metrics=", 0) == 0) {
        metrics_path = arg.substr(10);
      } else if (arg.rfind("--snapshot=", 0) == 0) {
        snapshot_path = arg.substr(11);
      } else if (arg.rfind("--from-snapshot=", 0) == 0) {
        from_snapshot_path = arg.substr(16);
      } else if (arg == "--cold") {
        cold = true;
      } else {
        repro_line += ' ';
        repro_line += arg;
      }
    } catch (...) {
      std::fprintf(stderr, "malformed flag: %s\n", arg.c_str());
      return 2;
    }
  }

  const std::optional<FaultSimConfig> config = parse_reproducer(repro_line);
  if (!config) {
    std::fprintf(stderr, "unrecognized flags in: %s\n", repro_line.c_str());
    return 2;
  }

  if (!snapshot_path.empty()) {
    // Snapshot-only mode: run the fill phase, persist the fork point.
    const WarmStart warm = make_warm_start(*config);
    if (!warm.save_file(snapshot_path)) {
      std::fprintf(stderr, "failed to write snapshot: %s\n",
                   snapshot_path.c_str());
      return 2;
    }
    std::printf("snapshot: %s ftl=%s bytes=%zu digest=%016llx\n",
                snapshot_path.c_str(), warm.ftl.ftl_name().c_str(),
                warm.ftl.bytes().size() + warm.oracle.size(),
                static_cast<unsigned long long>(warm.digest()));
    return 0;
  }

  std::optional<WarmStart> loaded;
  if (!from_snapshot_path.empty()) {
    if (cold) {
      std::fprintf(stderr, "--from-snapshot and --cold are exclusive\n");
      return 2;
    }
    loaded = WarmStart::load_file(from_snapshot_path);
    if (!loaded) {
      std::fprintf(stderr, "failed to load snapshot: %s\n",
                   from_snapshot_path.c_str());
      return 2;
    }
    const std::string mismatch = warm_start_mismatch(*config, *loaded);
    if (!mismatch.empty()) {
      std::fprintf(stderr, "%s: %s\n", from_snapshot_path.c_str(), mismatch.c_str());
      return 2;
    }
    std::printf("from-snapshot: %s ftl=%s digest=%016llx\n",
                from_snapshot_path.c_str(), loaded->ftl.ftl_name().c_str(),
                static_cast<unsigned long long>(loaded->digest()));
  }
  const WarmStart* warm = loaded ? &*loaded : nullptr;

  if (matrix) return run_matrix(*config, seeds, densities, jobs, !cold, warm);

  obs::TraceSink sink;
  obs::TraceSink* const sink_ptr = trace_path.empty() ? nullptr : &sink;
  const auto write_trace = [&]() {
    if (sink_ptr == nullptr) return true;
    if (!sink.write_chrome_json(trace_path)) {
      std::fprintf(stderr, "failed to write trace: %s\n", trace_path.c_str());
      return false;
    }
    std::printf("trace: %s (%zu events)\n", trace_path.c_str(), sink.size());
    return true;
  };

  if (do_sweep) {
    SweepOptions options;
    options.crash_points = points;
    options.jobs = jobs;
    options.warm_start = !cold;
    const SweepResult result = sweep(*config, options, sink_ptr, warm);
    if (!write_trace()) return 2;
    if (!metrics_path.empty()) {
      // The sweep's attribution view: its golden (no-crash) trial — the
      // same run that defines the sweep's crash boundaries, so the report
      // is deterministic and independent of --jobs or crash density.
      FaultSimConfig golden = *config;
      golden.crash_time_us = kTimeNever;
      if (!write_metrics(metrics_path, "golden", run_trial(golden, nullptr, warm))) {
        return 2;
      }
    }
    std::printf("boundaries=%llu crashes=%llu victims=%llu recovered=%llu "
                "lost=%llu replay_mismatches=%llu failures=%zu\n",
                static_cast<unsigned long long>(result.golden_boundaries),
                static_cast<unsigned long long>(result.crashes_injected),
                static_cast<unsigned long long>(result.total_victims),
                static_cast<unsigned long long>(result.total_parity_recovered),
                static_cast<unsigned long long>(result.total_pages_lost),
                static_cast<unsigned long long>(result.replay_mismatches),
                result.failures.size());
    return report_failures(result);
  }

  // Single-trial replay (runs cold unless --from-snapshot is given).
  const TrialResult trial = run_trial(*config, sink_ptr, warm);
  if (!write_trace()) return 2;
  if (!metrics_path.empty() && !write_metrics(metrics_path, "trial", trial)) {
    return 2;
  }
  std::printf("%s\n", reproducer(*config).c_str());
  print_report(trial.report);
  return (trial.report.violations > 0 || !trial.report.consistent) ? 1 : 0;
}
