#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "src/controller/arbiter.hpp"
#include "src/controller/controller.hpp"
#include "src/faultsim/harness.hpp"
#include "src/faultsim/sweep.hpp"
#include "src/nand/device.hpp"
#include "src/nand/program_order.hpp"
#include "src/sim/runner.hpp"
#include "src/util/random.hpp"

namespace perfbench {

using namespace rps;

namespace {

/// Every per-layer metric, in print order, with its unit.
struct LayerSpec {
  const char* name;
  const char* unit;
};

const LayerSpec kLayerMetrics[] = {
    {"workload.gen_ns_per_req", "ns"},
    {"sim.precondition_s", "s"},
    {"sim.warm_up_s", "s"},
    {"sim.snapshot_capture_ms", "ms"},
    {"sim.snapshot_restore_ms", "ms"},
    {"sim.snapshot_mb", "MB"},
    {"sim.run_ns_per_page", "ns"},
    {"sim.host_loop_ns_per_page", "ns"},
    {"sim.p99_us", "sim_us"},
    {"controller.ns_per_page", "ns"},
    {"controller.arbiter_ns_per_admit", "ns"},
    {"host.frontend_ns_per_cmd", "ns"},
    {"host.idle_windows", "count"},
    {"host.failed_cmds", "count"},
    {"ftl.write_ns_per_page", "ns"},
    {"ftl.read_ns_per_page", "ns"},
    {"ftl.waf", "ratio"},
    {"ftl.gc_copies_per_host_page", "ratio"},
    {"ftl.erases", "count"},
    {"ftl.programs.host", "count"},
    {"ftl.programs.gc_copy", "count"},
    {"ftl.programs.parity", "count"},
    {"ftl.programs.backup", "count"},
    {"ftl.programs.wear_level", "count"},
    {"ftl.programs.scrub", "count"},
    {"ftl.check_consistency_ms", "ms"},
    {"ftl.rebuild_mapping_ms", "ms"},
    {"core.recover_ms", "ms"},
    {"nand.program_ns", "ns"},
    {"nand.read_ns", "ns"},
    {"nand.erase_ns", "ns"},
    {"nand.programs", "count"},
    {"nand.reads", "count"},
    {"nand.erases", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"obs.events", "count"},
    {"faultsim.warm_start_ms", "ms"},
    {"faultsim.trial_ms", "ms"},
    {"faultsim.replay_share", "ratio"},
    {"faultsim.crashes", "count"},
    {"faultsim.victims", "count"},
    {"util.parallel_speedup", "ratio"},
    {"bench.span_coverage", "ratio"},
    {"bench.span_overhead_frac", "ratio"},
};

/// NAND model cost per op on a separate one-chip device.
struct NandCosts {
  double program_ns = 0.0;
  double read_ns = 0.0;
  double erase_ns = 0.0;
  std::uint64_t ops = 0;
  bool ok = true;
};

/// Crash-consistency probe: faultsim warm start, single trials, and
/// sweep matrices over the four paper FTLs with replay verification on
/// and off at one worker and on at two workers.
struct FaultsimProbe {
  double warm_start_ms = 0.0;
  double trial_ms = 0.0;
  double replay_share = 0.0;
  double parallel_speedup = 0.0;
  std::uint64_t crashes = 0;
  std::uint64_t victims = 0;
  std::uint64_t failures = 0;
  std::uint64_t replay_mismatches = 0;
  bool jobs_invariant = true;
  std::uint64_t digest = 0;
};

}  // namespace

void LayerTable::emit(Report& report) const {
  std::string missing;
  for (const LayerSpec& spec : kLayerMetrics) {
    const auto it = values_.find(spec.name);
    if (it == values_.end()) {
      missing += missing.empty() ? spec.name : std::string(", ") + spec.name;
      report.add(spec.name, 0.0, spec.unit, "not exercised");
    } else {
      report.add(spec.name, it->second.first, spec.unit, it->second.second);
    }
  }
  if (!missing.empty()) {
    report.note("not exercised on this workload (printed as 0): " + missing);
  }
}

ReplayCost& ReplayCost::operator+=(const ReplayCost& other) {
  total_s += other.total_s;
  write_s += other.write_s;
  read_s += other.read_s;
  idle_s += other.idle_s;
  write_pages += other.write_pages;
  read_pages += other.read_pages;
  errors += other.errors;
  ops += other.ops;
  return *this;
}

std::string ops_text(const nand::OpCounters& ops) {
  return format("%llu programs, %llu reads, %llu erases",
                static_cast<unsigned long long>(ops.programs()),
                static_cast<unsigned long long>(ops.reads),
                static_cast<unsigned long long>(ops.erases));
}

ReplayCost replay_controller(ftl::FtlBase& ftl, const workload::Trace& trace,
                             std::uint32_t window, Microseconds idle_threshold_us) {
  ReplayCost cost;
  ctrl::Controller controller(ftl);
  std::uint32_t max_pages = 1;
  for (const workload::IoRequest& req : trace.requests()) {
    max_pages = std::max(max_pages, req.page_count);
  }
  controller.reserve_inflight(window, max_pages);
  std::vector<ctrl::CommandResult> done;
  done.reserve(window);
  const nand::OpCounters before = ftl.device().total_counters();
  Microseconds now = ftl.device().all_idle_at() + 10'000;
  std::uint32_t queued = 0;
  const auto drain = [&] {
    controller.drain();
    controller.take_all_results_into(done);
    for (const ctrl::CommandResult& r : done) {
      now = std::max(now, r.last_complete);
      cost.errors += r.read_errors + (r.ok ? 0 : 1);
    }
    queued = 0;
  };
  const std::vector<workload::IoRequest>& requests = trace.requests();
  const double start = wall_now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const workload::IoRequest& req = requests[i];
    const Microseconds gap = i == 0 ? 0 : req.arrival_us - requests[i - 1].arrival_us;
    if (gap > idle_threshold_us || queued == window) drain();
    if (gap > idle_threshold_us) {
      // The trace's idle gap, counted from the completion of all prior
      // work, goes to the FTL as an idle window (background GC).
      controller.on_idle(now, now + gap);
      now += gap;
    }
    ctrl::HostCommand cmd;
    cmd.kind = req.kind == workload::IoKind::kWrite ? ctrl::CmdKind::kWrite
                                                    : ctrl::CmdKind::kRead;
    cmd.lpn = req.lpn;
    cmd.page_count = req.page_count;
    cmd.issue = now;
    cmd.buffer_utilization = 0.5;
    (void)controller.submit(cmd);
    ++queued;
    (req.kind == workload::IoKind::kWrite ? cost.write_pages : cost.read_pages) +=
        req.page_count;
  }
  drain();
  cost.total_s = wall_now() - start;
  const nand::OpCounters after = ftl.device().total_counters();
#define PERFBENCH_DELTA(name) cost.ops.name = after.name - before.name;
  RPS_OP_COUNTER_FIELDS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  return cost;
}

ReplayCost replay_ftl(ftl::FtlBase& ftl, const workload::Trace& trace,
                      Microseconds idle_threshold_us) {
  ReplayCost cost;
  const nand::OpCounters before = ftl.device().total_counters();
  const Lpn exported = ftl.exported_pages();
  const std::vector<workload::IoRequest>& requests = trace.requests();
  const double start = wall_now();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const workload::IoRequest& req = requests[i];
    // Each request starts when the device has drained the previous one,
    // as the simulator's untimed warm-up path does.
    Microseconds now = ftl.device().all_idle_at();
    const Microseconds gap = i == 0 ? 0 : req.arrival_us - requests[i - 1].arrival_us;
    if (gap > idle_threshold_us) {
      const double t0 = wall_now();
      ftl.on_idle(now, now + gap);
      cost.idle_s += wall_now() - t0;
      now = std::max(now + gap, ftl.device().all_idle_at());
    }
    const bool write = req.kind == workload::IoKind::kWrite;
    for (std::uint32_t j = 0; j < req.page_count && req.lpn + j < exported; ++j) {
      const double t0 = wall_now();
      if (write) {
        const Result<ftl::HostOp> op = ftl.write(req.lpn + j, now, 0.5);
        cost.write_s += wall_now() - t0;
        ++cost.write_pages;
        if (!op.is_ok()) ++cost.errors;
      } else {
        const Result<ftl::HostOp> op = ftl.read(req.lpn + j, now);
        cost.read_s += wall_now() - t0;
        ++cost.read_pages;
        if (!op.is_ok()) ++cost.errors;
      }
    }
  }
  cost.total_s = wall_now() - start;
  const nand::OpCounters after = ftl.device().total_counters();
#define PERFBENCH_DELTA(name) cost.ops.name = after.name - before.name;
  RPS_OP_COUNTER_FIELDS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
  return cost;
}

void add_replay_layers(const char* outer, double outer_s, const nand::OpCounters& outer_ops,
                       const ReplayCost& controller, const ReplayCost& ftl,
                       std::uint64_t pages, const std::string& pages_base, LayerTable& table,
                       Report& report) {
  report.note(format("replays: %s %.3f s (%s); Controller %.3f s (%s); FtlBase %.3f s (%s)",
                     outer, outer_s, ops_text(outer_ops).c_str(), controller.total_s,
                     ops_text(controller.ops).c_str(), ftl.total_s, ops_text(ftl.ops).c_str()));
  report.check(controller.errors == 0 && ftl.errors == 0,
               "differential replays completed every page without an error");
  table.set("controller.ns_per_page",
            (controller.total_s - ftl.total_s) * 1e9 / static_cast<double>(pages),
            pages_base + ", Controller replay minus FtlBase replay");
  table.set("ftl.write_ns_per_page", ftl.write_s * 1e9 / static_cast<double>(ftl.write_pages),
            format("%llu FtlBase::write calls", static_cast<unsigned long long>(ftl.write_pages)));
  table.set("ftl.read_ns_per_page", ftl.read_s * 1e9 / static_cast<double>(ftl.read_pages),
            format("%llu FtlBase::read calls", static_cast<unsigned long long>(ftl.read_pages)));
}

namespace {

NandCosts probe_nand() {
  NandCosts costs;
  nand::Geometry g;
  g.channels = 1;
  g.chips_per_channel = 1;
  g.blocks_per_chip = 64;
  g.wordlines_per_block = 128;
  nand::NandDevice device(g, nand::TimingSpec::paper(), nand::SequenceKind::kFps);
  const nand::ProgramOrder order = nand::fps_order(g.wordlines_per_block);
  constexpr int kRounds = 8;
  double program_s = 0.0;
  double read_s = 0.0;
  double erase_s = 0.0;
  std::uint64_t programs = 0;
  std::uint64_t reads = 0;
  std::uint64_t erases = 0;
  Microseconds now = 0;
  for (int round = 0; round < kRounds; ++round) {
    double t0 = wall_now();
    for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
      for (const nand::PagePos& pos : order) {
        nand::PageData data;
        data.lpn = programs;
        data.signature = programs * 0x9e3779b97f4a7c15ull;
        const Result<nand::OpTiming> op =
            device.program(nand::PageAddress{0, b, pos}, std::move(data), now);
        costs.ok = costs.ok && op.is_ok();
        if (op.is_ok()) now = op.value().complete;
        ++programs;
      }
    }
    program_s += wall_now() - t0;
    t0 = wall_now();
    for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
      for (const nand::PagePos& pos : order) {
        const auto op = device.read(nand::PageAddress{0, b, pos}, now);
        costs.ok = costs.ok && op.is_ok();
        if (op.is_ok()) now = op.value().timing.complete;
        ++reads;
      }
    }
    read_s += wall_now() - t0;
    t0 = wall_now();
    for (std::uint32_t b = 0; b < g.blocks_per_chip; ++b) {
      const Result<nand::OpTiming> op = device.erase(nand::BlockAddress{0, b}, now);
      costs.ok = costs.ok && op.is_ok();
      if (op.is_ok()) now = op.value().complete;
      ++erases;
    }
    erase_s += wall_now() - t0;
  }
  costs.program_ns = program_s * 1e9 / static_cast<double>(programs);
  costs.read_ns = read_s * 1e9 / static_cast<double>(reads);
  costs.erase_ns = erase_s * 1e9 / static_cast<double>(erases);
  costs.ops = programs + reads + erases;
  return costs;
}

}  // namespace

double probe_arbiter_ns_per_admit(std::uint64_t seed, std::uint64_t* admits) {
  constexpr std::uint32_t kQueues = 1024;
  constexpr std::uint64_t kAdmits = 2'000'000;
  ctrl::ArbiterConfig config;
  config.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  config.quantum_pages = 1;
  ctrl::QueueArbiter arbiter(kQueues, config);
  const auto cost_of = [](std::uint32_t q) { return q + 1 == kQueues ? 8u : 1u; };
  // The random schedule is drawn up front so only the arbiter is timed:
  // after each admission a random queue turns eligible and the admitted
  // one stays backlogged half of the time (a busy victim, or the flood).
  Rng rng(seed);
  std::vector<std::uint32_t> wake(kAdmits);
  std::vector<std::uint8_t> stay(kAdmits);
  for (std::uint64_t i = 0; i < kAdmits; ++i) {
    wake[i] = static_cast<std::uint32_t>(rng.next_below(kQueues));
    stay[i] = rng.chance(0.5) ? 1 : 0;
  }
  for (std::uint32_t q = 0; q < kQueues; q += 4) arbiter.set_eligible(q, true, cost_of(q));
  arbiter.set_eligible(kQueues - 1, true, cost_of(kQueues - 1));
  std::uint64_t done = 0;
  const double start = wall_now();
  for (std::uint64_t i = 0; i < kAdmits; ++i) {
    arbiter.set_eligible(wake[i], true, cost_of(wake[i]));
    const std::optional<std::uint32_t> q = arbiter.admit();
    if (!q) continue;
    ++done;
    if (stay[i] == 0 && *q + 1 != kQueues) arbiter.set_eligible(*q, false);
  }
  const double elapsed = wall_now() - start;
  *admits = done;
  return done == 0 ? 0.0 : elapsed * 1e9 / static_cast<double>(done);
}

namespace {

std::uint64_t digest_matrix(const std::vector<faultsim::MatrixCell>& cells) {
  Digest d;
  for (const faultsim::MatrixCell& cell : cells) {
    d.mix(cell.seed);
    d.mix(cell.points);
    d.mix(cell.result.golden_boundaries);
    d.mix(cell.result.crashes_injected);
    d.mix(cell.result.total_victims);
    d.mix(cell.result.total_pages_lost);
    d.mix(cell.result.total_parity_recovered);
    d.mix(cell.result.replay_mismatches);
    d.mix(cell.result.failures.size());
    for (const faultsim::SweepFailure& f : cell.result.failures) {
      for (const char c : f.line) d.mix(static_cast<unsigned char>(c));
    }
  }
  return d.value();
}

FaultsimProbe probe_faultsim() {
  FaultsimProbe probe;
  faultsim::FaultSimConfig base;  // flexFTL on faultsim's own device
  constexpr int kSamples = 9;
  std::vector<double> warm_ms;
  faultsim::WarmStart warm;
  for (int i = 0; i < kSamples; ++i) {
    const double t0 = wall_now();
    warm = faultsim::make_warm_start(base);
    warm_ms.push_back((wall_now() - t0) * 1e3);
  }
  probe.warm_start_ms = median(warm_ms);
  std::vector<double> trial_ms;
  for (int i = 0; i < kSamples; ++i) {
    faultsim::FaultSimConfig config = base;
    config.seed = static_cast<std::uint64_t>(i + 1);
    const double t0 = wall_now();
    const faultsim::TrialResult trial = faultsim::run_trial(config, nullptr, &warm);
    trial_ms.push_back((wall_now() - t0) * 1e3);
    probe.failures += trial.report.violations;
  }
  probe.trial_ms = median(trial_ms);

  // Four seeds x densities 8/16/32 per paper FTL: the CI sweep matrix
  // cut to a quarter of its seeds.
  faultsim::MatrixOptions options;
  options.seeds = 4;
  double verify_1 = 0.0;
  double plain_1 = 0.0;
  double verify_2 = 0.0;
  Digest digest;
  for (const sim::FtlKind kind : sim::kAllFtls) {
    faultsim::FaultSimConfig config = base;
    config.kind = kind;
    options.sweep.verify_replay = true;
    options.jobs = 1;
    double t0 = wall_now();
    const std::vector<faultsim::MatrixCell> verified = faultsim::sweep_matrix(config, options);
    verify_1 += wall_now() - t0;
    options.jobs = 2;
    t0 = wall_now();
    const std::vector<faultsim::MatrixCell> parallel = faultsim::sweep_matrix(config, options);
    verify_2 += wall_now() - t0;
    options.sweep.verify_replay = false;
    options.jobs = 1;
    t0 = wall_now();
    (void)faultsim::sweep_matrix(config, options);
    plain_1 += wall_now() - t0;
    const std::uint64_t d = digest_matrix(verified);
    probe.jobs_invariant = probe.jobs_invariant && d == digest_matrix(parallel);
    digest.mix(d);
    for (const faultsim::MatrixCell& cell : verified) {
      probe.crashes += cell.result.crashes_injected;
      probe.victims += cell.result.total_victims;
      probe.failures += cell.result.failures.size();
      probe.replay_mismatches += cell.result.replay_mismatches;
    }
  }
  probe.replay_share = verify_1 <= 0.0 ? 0.0 : (verify_1 - plain_1) / verify_1;
  probe.parallel_speedup = verify_2 <= 0.0 ? 0.0 : verify_1 / verify_2;
  probe.digest = digest.value();
  return probe;
}

}  // namespace

/// Cut power once the device is idle, reboot through sim::crash_reboot
/// and time the reboot and the consistency check that follows.
void time_reboot(sim::FtlKind kind, ftl::FtlBase& ftl, double& reboot_ms,
                 double& check_ms, Report& report) {
  const Microseconds cut = ftl.device().all_idle_at();
  const std::vector<nand::PowerLossVictim> victims = ftl.device().inject_power_loss(cut);
  double t0 = wall_now();
  (void)sim::crash_reboot(kind, ftl, victims, cut);
  reboot_ms = (wall_now() - t0) * 1e3;
  t0 = wall_now();
  const bool consistent = ftl.check_consistency();
  check_ms = (wall_now() - t0) * 1e3;
  report.check(consistent, std::string(sim::to_string(kind)) + " consistent after reboot");
}

void add_span_check(const SpanLog& spans, const RepTimes& before, const RepTimes& traced,
                    const RepTimes& after, LayerTable& table, Report& report) {
  const double untraced_setup = 0.5 * (before.setup_s + after.setup_s);
  const double untraced_cpu = 0.5 * (before.cpu_s + after.cpu_s);
  const double untraced_wall = 0.5 * (before.wall_s + after.wall_s);
  const double coverage = spans.top_level_s() / (untraced_setup + untraced_cpu);
  const double overhead =
      (traced.setup_s + traced.wall_s) / (untraced_setup + untraced_wall) - 1.0;
  // Host noise between the two untraced neighbours widens the tolerance.
  const double noise =
      std::abs((before.setup_s + before.cpu_s) - (after.setup_s + after.cpu_s)) /
      (untraced_setup + untraced_cpu);
  const double gap = std::abs(coverage - 1.0);
  report.note(format("span coverage %.4f: |coverage - 1| = %.4f %s |overhead| %.4f + "
                     "untraced noise %.4f (untraced setup %.3f s + cpu %.3f s)",
                     coverage, gap, gap <= std::abs(overhead) + noise ? "<=" : "EXCEEDS",
                     std::abs(overhead), noise, untraced_setup, untraced_cpu));
  for (const SpanLog::Total& t : spans.totals()) {
    report.note(format("span %-28s calls=%-4llu total=%9.4f s self=%9.4f s%s", t.name.c_str(),
                       static_cast<unsigned long long>(t.calls), t.total_s, t.self_s,
                       t.top_level ? " (top level)" : ""));
  }
  table.set("bench.span_coverage", coverage,
            "top-level spans / mean untraced (setup_s + cpu_s)");
  table.set("bench.span_overhead_frac", overhead,
            "traced / mean untraced (setup_s + wall_s) - 1");
}

void add_cause_programs(const nand::AttributionCounters& attribution, const std::string& base,
                        LayerTable& table) {
  const std::pair<const char*, nand::WriteCause> causes[] = {
      {"ftl.programs.host", nand::WriteCause::kHost},
      {"ftl.programs.gc_copy", nand::WriteCause::kGcCopy},
      {"ftl.programs.parity", nand::WriteCause::kParity},
      {"ftl.programs.backup", nand::WriteCause::kBackup},
      {"ftl.programs.wear_level", nand::WriteCause::kWearLevel},
      {"ftl.programs.scrub", nand::WriteCause::kScrub}};
  for (const auto& [name, cause] : causes) {
    table.set(name, static_cast<double>(attribution.programs(cause)), base);
  }
}

void add_shared_probes(LayerTable& table, Report& report) {
  const NandCosts nand_costs = probe_nand();
  report.check(nand_costs.ok, "one-chip NAND device accepted every program/read/erase");
  const std::string nand_base =
      format("%llu ops on a separate 1-chip device",
             static_cast<unsigned long long>(nand_costs.ops));
  table.set("nand.program_ns", nand_costs.program_ns, nand_base);
  table.set("nand.read_ns", nand_costs.read_ns, nand_base);
  table.set("nand.erase_ns", nand_costs.erase_ns, nand_base);

  const FaultsimProbe fs = probe_faultsim();
  report.check(fs.failures == 0, "crash probe: zero oracle violations and sweep failures");
  report.check(fs.replay_mismatches == 0, "crash probe: zero replay mismatches");
  report.check(fs.jobs_invariant, "crash probe: sweep digest equal at 1 and 2 workers");
  report.note(format("crash probe digest: %016llx (%llu crashes)",
                     static_cast<unsigned long long>(fs.digest),
                     static_cast<unsigned long long>(fs.crashes)));
  const std::string matrix_base = "4 paper FTLs x seeds 1-4 x densities 8/16/32";
  table.set("faultsim.warm_start_ms", fs.warm_start_ms, "median of 9, flexFTL");
  table.set("faultsim.trial_ms", fs.trial_ms, "median of 9 golden flexFTL trials");
  table.set("faultsim.replay_share", fs.replay_share, matrix_base);
  table.set("faultsim.crashes", static_cast<double>(fs.crashes), matrix_base);
  table.set("faultsim.victims", static_cast<double>(fs.victims), matrix_base);
  table.set("util.parallel_speedup", fs.parallel_speedup,
            matrix_base + ", wall at 1 vs 2 workers");
}

}  // namespace perfbench
