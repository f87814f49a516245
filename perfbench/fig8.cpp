// fig8_ntrx / fig8_webserver: the paper's Fig. 8 experiment on one Table 1
// preset. Closed loop (queue depth 64), 300k requests, bench geometry
// (8 channels x 4 chips, 4 GB); pageFTL, parityFTL, rtfFTL and flexFTL in
// sequence, each preconditioned, captured, forked from its snapshot and
// warmed up exactly as sim::run_all_ftls does it.
#include <memory>
#include <vector>

#include "layers.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/runner.hpp"
#include "src/sim/simulator.hpp"
#include "src/sim/snapshot.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rps;

namespace {

constexpr std::size_t kFlex = 3;  // index of flexFTL in sim::kAllFtls
static_assert(sim::kAllFtls[kFlex] == sim::FtlKind::kFlex);
static_assert(sim::kAllFtls[1] == sim::FtlKind::kParity);
static_assert(sim::kAllFtls[2] == sim::FtlKind::kRtf);

/// The Fig. 8 bench configuration (bench/bench_fig8_common.hpp).
sim::ExperimentSpec fig8_spec(std::uint64_t seed) {
  sim::ExperimentSpec spec = sim::ExperimentSpec::bench_default();
  spec.requests = 300'000;
  spec.seed = seed;
  return spec;
}

/// One FTL forked from its preconditioned snapshot and warmed up: ready
/// to replay the measured trace.
struct Cell {
  std::unique_ptr<ftl::FtlBase> ftl;
  std::unique_ptr<sim::Simulator> sim;
  sim::Snapshot snapshot;
  workload::Trace warmup;
  workload::Trace trace;
};

Cell set_up(sim::FtlKind kind, workload::Preset preset, const sim::ExperimentSpec& spec,
            SpanLog* spans, bool& restored) {
  Cell cell;
  std::unique_ptr<ftl::FtlBase> fill;
  std::unique_ptr<sim::Simulator> filler;
  {
    SpanLog::Scope s(spans, "ftl.make");
    fill = sim::make_ftl(kind, spec.ftl_config);
  }
  {
    SpanLog::Scope s(spans, "sim.make_simulator");
    filler = std::make_unique<sim::Simulator>(*fill, spec.sim);
  }
  {
    SpanLog::Scope s(spans, "sim.precondition");
    filler->precondition();
  }
  {
    SpanLog::Scope s(spans, "sim.snapshot_capture");
    cell.snapshot = filler->checkpoint();
  }
  {
    SpanLog::Scope s(spans, "ftl.free");
    filler.reset();
    fill.reset();
  }
  {
    SpanLog::Scope s(spans, "ftl.make");
    cell.ftl = sim::make_ftl(kind, spec.ftl_config);
  }
  {
    SpanLog::Scope s(spans, "sim.make_simulator");
    cell.sim = std::make_unique<sim::Simulator>(*cell.ftl, spec.sim);
  }
  {
    SpanLog::Scope s(spans, "sim.snapshot_restore");
    restored = cell.sim->warm_start(cell.snapshot) && restored;
  }
  const Lpn working_set = static_cast<Lpn>(static_cast<double>(cell.ftl->exported_pages()) *
                                           spec.working_set_fraction);
  {
    SpanLog::Scope s(spans, "workload.generate");
    cell.warmup = workload::generate(workload::preset_config(
        preset, working_set, spec.requests / 2, spec.seed ^ 0x77777777ull));
    cell.trace = workload::generate(
        workload::preset_config(preset, working_set, spec.requests, spec.seed));
  }
  {
    SpanLog::Scope s(spans, "sim.warm_up");
    cell.sim->warm_up(cell.warmup);
  }
  return cell;
}

void mix_result(Digest& d, const sim::SimResult& r) {
  for (const std::uint64_t v :
       {r.requests, r.read_requests, r.write_requests, r.pages_read, r.pages_written,
        r.read_errors, static_cast<std::uint64_t>(r.makespan_us),
        static_cast<std::uint64_t>(r.busy_us), r.idle_windows,
        static_cast<std::uint64_t>(r.idle_time_us), r.erases}) {
    d.mix(v);
  }
#define PERFBENCH_MIX(name) d.mix(r.ops.name);
  RPS_OP_COUNTER_FIELDS(PERFBENCH_MIX)
#undef PERFBENCH_MIX
#define PERFBENCH_MIX(name) d.mix(r.ftl_stats.name);
  RPS_FTL_STAT_FIELDS(PERFBENCH_MIX)
#undef PERFBENCH_MIX
  for (std::size_t c = 0; c < nand::kNumWriteCauses; ++c) {
    d.mix(r.attribution.lsb_programs[c]);
    d.mix(r.attribution.msb_programs[c]);
    d.mix(r.attribution.erases[c]);
  }
  d.mix(r.attribution.meta_programs);
  for (const obs::LatencyHistogram* h : {&r.latency_hist_us, &r.write_bw_kbps}) {
    d.mix(h->count());
    d.mix(h->sum());
    d.mix(h->min());
    d.mix(h->max());
    d.mix(h->p50());
    d.mix(h->p99());
    d.mix(h->p999());
  }
}

struct Rep {
  RepTimes times;
  bool restored = true;
  std::vector<sim::SimResult> results;  // kAllFtls order
  std::vector<Cell> cells;              // snapshots and traces, traced run only
  std::uint64_t digest = 0;
};

Rep run_rep(workload::Preset preset, const sim::ExperimentSpec& spec, SpanLog* spans,
            bool keep_cells) {
  Rep rep;
  Digest digest;
  for (const sim::FtlKind kind : sim::kAllFtls) {
    const CorePin pin;
    const double t0 = wall_now();
    Cell cell = set_up(kind, preset, spec, spans, rep.restored);
    rep.times.setup_s += wall_now() - t0;
    const Stopwatch measured;
    sim::SimResult result;
    {
      SpanLog::Scope s(spans, "sim.run");
      result = cell.sim->run(cell.trace);
    }
    const Cost cost = measured.stop();
    rep.times.wall_s += cost.wall_s;
    rep.times.cpu_s += cost.cpu_s;
    mix_result(digest, result);
    rep.results.push_back(std::move(result));
    if (keep_cells) {
      cell.sim.reset();
      cell.ftl.reset();
      rep.cells.push_back(std::move(cell));
    }
  }
  rep.digest = digest.value();
  return rep;
}

std::uint64_t pages_of(const std::vector<sim::SimResult>& results) {
  std::uint64_t pages = 0;
  for (const sim::SimResult& r : results) pages += r.pages_read + r.pages_written;
  return pages;
}

/// Correctness of one repetition's results; also counts its operations.
void check_results(const Rep& rep, Report& report) {
  report.check(rep.restored, "every FTL forked from its snapshot");
  for (const sim::SimResult& r : rep.results) {
    report.count_attempted(r.requests);
    report.count_failed(r.read_errors);
    const nand::AttributionCounters& a = r.attribution;
    const bool programs_ok = a.total_lsb_programs() == r.ops.lsb_programs &&
                             a.total_msb_programs() == r.ops.msb_programs;
    const bool erases_ok = a.total_erases() == r.ops.erases && r.erases == r.ops.erases;
    report.check(programs_ok, r.ftl_name + ": per-cause programs sum to the device delta");
    report.check(erases_ok, r.ftl_name + ": per-cause erases sum to the device delta");
  }
  const sim::SimResult& flex = rep.results[kFlex];
  for (const std::size_t other : {std::size_t{1}, std::size_t{2}}) {
    const sim::SimResult& r = rep.results[other];
    report.check(flex.iops_busy() > r.iops_busy(),
                 format("flexFTL IOPS %.1f above %s %.1f", flex.iops_busy(),
                        r.ftl_name.c_str(), r.iops_busy()));
    report.check(flex.erases < r.erases,
                 format("flexFTL erases %llu below %s %llu",
                        static_cast<unsigned long long>(flex.erases), r.ftl_name.c_str(),
                        static_cast<unsigned long long>(r.erases)));
  }
}

void note_results(const std::string& name, const Options& options, const Rep& rep,
                  Report& report) {
  for (const sim::SimResult& r : rep.results) {
    report.note(format("%-9s iops_busy=%.1f erases=%llu p99_us=%.0f waf=%.4f read_errors=%llu",
                       r.ftl_name.c_str(), r.iops_busy(),
                       static_cast<unsigned long long>(r.erases), r.latency_us.percentile(99.0),
                       r.waf(), static_cast<unsigned long long>(r.read_errors)));
  }
  report.note(format("digest %s seed %llu: %016llx", name.c_str(),
                     static_cast<unsigned long long>(options.seed),
                     static_cast<unsigned long long>(rep.digest)));
}

void add_sim_metrics(const Rep& rep, double cpu_s, Report& report) {
  const sim::SimResult& flex = rep.results[kFlex];
  report.add("kops_per_cpu_s", static_cast<double>(pages_of(rep.results)) / cpu_s / 1e3,
             "kops/s", "host page ops of the 4 FTLs per measured CPU second");
  report.add("sim_iops", flex.iops_busy(), "req/sim_s", "flexFTL iops_busy, 300k requests");
}

void timed_run(const Options& options, workload::Preset preset, Report& report) {
  const sim::ExperimentSpec spec = fig8_spec(options.seed);
  // Only the first repetition's results are kept; later ones are checked
  // and dropped, so peak memory does not depend on the repetition count.
  const double start = wall_now();
  const Rep first = run_rep(preset, spec, nullptr, false);
  check_results(first, report);
  note_results(options.workload, options, first, report);
  const double cpu_s = measure_repetitions(
      options.seconds, kMinReps, start, first.times,
      [&] {
        const Rep rep = run_rep(preset, spec, nullptr, false);
        report.check(rep.digest == first.digest,
                     "every repetition reproduces the first one's digest");
        check_results(rep, report);
        return rep.times;
      },
      report);
  add_sim_metrics(first, cpu_s, report);
}

/// Fork `cell`'s FTL again from its snapshot and warm it up, for a
/// differential replay of the same measured trace.
std::unique_ptr<ftl::FtlBase> refork(sim::FtlKind kind, const Cell& cell,
                                     const sim::ExperimentSpec& spec, Report& report) {
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(kind, spec.ftl_config);
  sim::Simulator simulator(*ftl, spec.sim);
  report.check(simulator.warm_start(cell.snapshot), "differential replay forked its FTL");
  simulator.warm_up(cell.warmup);
  return ftl;
}

void traced_run(const Options& options, workload::Preset preset, Report& report) {
  const sim::ExperimentSpec spec = fig8_spec(options.seed);
  // A discarded warm-up repetition (first-touch page faults, allocator
  // growth), then untraced, traced, untraced: the traced repetition is
  // compared with the mean of its two untraced neighbours.
  (void)run_rep(preset, spec, nullptr, false);
  const Rep before = run_rep(preset, spec, nullptr, false);
  SpanLog spans;
  const Rep traced = run_rep(preset, spec, &spans, true);
  const Rep after = run_rep(preset, spec, nullptr, false);
  report.check(traced.digest == before.digest && after.digest == before.digest,
               "traced repetition reproduces the untraced digest and simulated metrics");
  for (const Rep* rep : {&before, &traced, &after}) check_results(*rep, report);
  note_results(options.workload, options, traced, report);

  LayerTable table;
  add_span_check(spans, before.times, traced.times, after.times, table, report);

  const std::uint64_t pages = pages_of(traced.results);
  const double gen_requests = 4.0 * 1.5 * static_cast<double>(spec.requests);
  const std::string per_page = format("%llu host pages, 4 FTLs", static_cast<unsigned long long>(pages));
  table.set("workload.gen_ns_per_req", spans.total("workload.generate").total_s * 1e9 / gen_requests,
            format("%.0f requests (warm-up + measured traces, 4 FTLs)", gen_requests));
  table.set("sim.precondition_s", spans.total("sim.precondition").total_s, "4 FTLs");
  table.set("sim.warm_up_s", spans.total("sim.warm_up").total_s, "4 FTLs");
  table.set("sim.snapshot_capture_ms", spans.total("sim.snapshot_capture").total_s * 1e3,
            "4 captures");
  table.set("sim.snapshot_restore_ms", spans.total("sim.snapshot_restore").total_s * 1e3,
            "4 restores");
  double snapshot_bytes = 0.0;
  for (const Cell& cell : traced.cells) snapshot_bytes += static_cast<double>(cell.snapshot.bytes().size());
  table.set("sim.snapshot_mb", snapshot_bytes / 1e6, "4 snapshots");

  nand::OpCounters ops;
  for (const sim::SimResult& r : traced.results) ops += r.ops;

  // Differential replay of every FTL's measured trace one layer deeper.
  ReplayCost controller_cost;
  ReplayCost ftl_cost;
  double recover_ms = 0.0, rebuild_ms = 0.0, flex_check_ms = 0.0, page_check_ms = 0.0;
  for (std::size_t f = 0; f < std::size(sim::kAllFtls); ++f) {
    const sim::FtlKind kind = sim::kAllFtls[f];
    {
      std::unique_ptr<ftl::FtlBase> ftl = refork(kind, traced.cells[f], spec, report);
      controller_cost += replay_controller(*ftl, traced.cells[f].trace, spec.sim.queue_depth,
                                           spec.sim.idle_threshold_us);
      if (kind == sim::FtlKind::kFlex) time_reboot(kind, *ftl, recover_ms, flex_check_ms, report);
    }
    {
      std::unique_ptr<ftl::FtlBase> ftl = refork(kind, traced.cells[f], spec, report);
      ftl_cost += replay_ftl(*ftl, traced.cells[f].trace, spec.sim.idle_threshold_us);
      if (kind == sim::FtlKind::kPage) time_reboot(kind, *ftl, rebuild_ms, page_check_ms, report);
    }
  }
  const double run_s = spans.total("sim.run").total_s;
  add_replay_layers("Simulator::run", run_s, ops, controller_cost, ftl_cost, pages, per_page,
                    table, report);
  const double ns = 1e9 / static_cast<double>(pages);
  table.set("sim.run_ns_per_page", run_s * ns, per_page);
  table.set("sim.host_loop_ns_per_page", (run_s - controller_cost.total_s) * ns,
            per_page + ", Simulator::run minus Controller replay");
  table.set("core.recover_ms", recover_ms, "one flexFTL reboot after its replay");
  table.set("ftl.rebuild_mapping_ms", rebuild_ms, "one pageFTL reboot after its replay");
  table.set("ftl.check_consistency_ms", 0.5 * (flex_check_ms + page_check_ms),
            "mean of the flexFTL and pageFTL checks");

  const sim::SimResult& flex = traced.results[kFlex];
  const std::string flex_base = "flexFTL measured run";
  table.set("ftl.waf", flex.waf(), flex_base);
  table.set("ftl.gc_copies_per_host_page",
            static_cast<double>(flex.ftl_stats.gc_copy_pages) /
                static_cast<double>(flex.pages_written),
            flex_base);
  table.set("ftl.erases", static_cast<double>(flex.erases), flex_base + " (Fig. 8b)");
  table.set("sim.p99_us", flex.latency_us.percentile(99.0), flex_base + ", 300k requests");
  add_cause_programs(flex.attribution, flex_base, table);
  table.set("nand.programs", static_cast<double>(ops.programs()), "4 FTLs' measured runs");
  table.set("nand.reads", static_cast<double>(ops.reads), "4 FTLs' measured runs");
  table.set("nand.erases", static_cast<double>(ops.erases), "4 FTLs' measured runs");

  // Observability cost: the same flexFTL experiment with and without a
  // TraceSink and a 1 ms StateSampler attached.
  {
    const sim::Snapshot& snapshot = traced.cells[kFlex].snapshot;
    double t0 = wall_now();
    const sim::SimResult plain = sim::run_experiment(sim::FtlKind::kFlex, preset, spec,
                                                     nullptr, nullptr, &snapshot);
    const double plain_s = wall_now() - t0;
    obs::TraceSink sink;
    obs::StateSampler sampler(1'000);
    t0 = wall_now();
    const sim::SimResult observed =
        sim::run_experiment(sim::FtlKind::kFlex, preset, spec, &sink, &sampler, &snapshot);
    const double observed_s = wall_now() - t0;
    Digest a, b, c;
    mix_result(a, plain);
    mix_result(b, observed);
    mix_result(c, flex);
    report.check(a.value() == b.value() && a.value() == c.value(),
                 "run_experiment with and without observers equals the measured flexFTL run");
    table.set("obs.trace_overhead_frac", observed_s / plain_s - 1.0,
              "flexFTL run_experiment with TraceSink + StateSampler vs without");
    table.set("obs.events", static_cast<double>(sink.size()), "flexFTL measured run");
  }

  add_shared_probes(table, report);
  table.emit(report);
}

}  // namespace

void run_fig8(const Options& options, workload::Preset preset, Report& report) {
  if (options.trace) {
    traced_run(options, preset, report);
  } else {
    timed_run(options, preset, report);
  }
}

}  // namespace perfbench
