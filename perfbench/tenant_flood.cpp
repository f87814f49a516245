// tenant_flood: 1024 tenants on host::MultiQueueFrontend, open loop in
// simulated time. 1023 Poisson victims issue single-page requests (20%
// reads); one tenant is an 8-page write flood that starts a third of the
// way into the victims' run. WDRR with a one-page quantum arbitrates a
// 10-page shared budget, on pageFTL. The device holds every page the run
// writes, so it never garbage-collects: the arbiter and the frontend's
// event loop do the work and the FTL does almost none. sim::Simulator is
// not involved. Latency counts from each request's scheduled arrival.
#include <memory>
#include <vector>

#include "layers.hpp"
#include "src/host/multi_queue.hpp"
#include "src/host/tenant.hpp"
#include "src/obs/sampler.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/runner.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace rps;

namespace {

constexpr std::uint32_t kTenants = 1024;
constexpr std::uint64_t kVictimRequests = 200;
/// Per-victim mean gap: 1023 victims together offer ~4 requests per
/// simulated ms, below what the 10-page budget lets the device serve.
constexpr Microseconds kVictimGapUs = 255'750;
constexpr std::uint64_t kFloodRequests = 24'000;
constexpr std::uint32_t kFloodPages = 8;
constexpr Microseconds kFloodGapUs = 100;

/// 8 channels x 4 chips x 128 blocks x 64 wordlines (128 pages) x 4 KB:
/// 524k physical pages against ~360k pages written, so no block is ever
/// erased.
ftl::FtlConfig flood_config() {
  ftl::FtlConfig config;
  config.geometry.channels = 8;
  config.geometry.chips_per_channel = 4;
  config.geometry.blocks_per_chip = 128;
  config.geometry.wordlines_per_block = 64;
  config.geometry.page_size_bytes = 4096;
  return config;
}

host::MultiQueueConfig frontend_config() {
  host::MultiQueueConfig config;
  config.arbiter.policy = ctrl::ArbPolicy::kWeightedDeficitRoundRobin;
  config.arbiter.quantum_pages = 1;
  config.shared_page_budget = 10;
  return config;
}

std::vector<host::TenantConfig> make_tenants() {
  std::vector<host::TenantConfig> tenants;
  for (std::uint32_t i = 0; i + 1 < kTenants; ++i) {
    host::TenantConfig t;
    t.id = i;
    t.read_fraction = 0.2;
    t.size_dist = {{1, 1.0}};
    t.mean_interarrival_us = kVictimGapUs;
    t.requests = kVictimRequests;
    tenants.push_back(t);
  }
  host::TenantConfig flood;
  flood.id = kTenants - 1;
  flood.read_fraction = 0.0;
  flood.size_dist = {{kFloodPages, 1.0}};
  flood.mean_interarrival_us = kFloodGapUs;
  flood.start_us = static_cast<Microseconds>(kVictimRequests) * kVictimGapUs / 3;
  flood.requests = kFloodRequests;
  tenants.push_back(flood);
  return tenants;
}

/// A device and a frontend with every tenant's trace queued.
struct Setup {
  std::unique_ptr<ftl::FtlBase> ftl;
  std::unique_ptr<host::MultiQueueFrontend> frontend;
  std::vector<std::uint64_t> trace_sizes;
};

Setup set_up(std::uint64_t seed, SpanLog* spans) {
  Setup s;
  {
    SpanLog::Scope scope(spans, "ftl.make");
    s.ftl = sim::make_ftl(sim::FtlKind::kPage, flood_config());
  }
  const std::vector<host::TenantConfig> tenants = make_tenants();
  std::vector<workload::Trace> traces;
  {
    SpanLog::Scope scope(spans, "workload.build_tenant_traces");
    traces = host::build_tenant_traces(tenants, s.ftl->exported_pages(), seed, 1);
  }
  {
    SpanLog::Scope scope(spans, "host.make_frontend");
    s.frontend = std::make_unique<host::MultiQueueFrontend>(*s.ftl, frontend_config());
  }
  {
    SpanLog::Scope scope(spans, "host.add_tenant");
    for (std::size_t i = 0; i < tenants.size(); ++i) {
      s.trace_sizes.push_back(traces[i].size());
      s.frontend->add_tenant(tenants[i], std::move(traces[i]));
    }
  }
  return s;
}

struct Rep {
  RepTimes times;
  host::MultiQueueResult result;
  std::vector<std::uint64_t> trace_sizes;
  std::uint64_t erases = 0;
  std::uint64_t generated = 0;  // requests in all tenant traces
  Setup setup;                  // kept by the traced repetition only
};

Rep run_rep(std::uint64_t seed, SpanLog* spans, bool keep) {
  const CorePin pin;
  Rep rep;
  const double t0 = wall_now();
  Setup s = set_up(seed, spans);
  rep.times.setup_s = wall_now() - t0;
  const Stopwatch measured;
  {
    SpanLog::Scope scope(spans, "host.frontend_run");
    rep.result = s.frontend->run();
  }
  const Cost cost = measured.stop();
  rep.times.wall_s = cost.wall_s;
  rep.times.cpu_s = cost.cpu_s;
  rep.trace_sizes = s.trace_sizes;
  rep.erases = s.ftl->device().total_erase_count();
  for (const std::uint64_t n : s.trace_sizes) rep.generated += n;
  if (keep) rep.setup = std::move(s);
  return rep;
}

std::uint64_t failed_cmds(const host::MultiQueueResult& result) {
  std::uint64_t failed = 0;
  for (const host::TenantResult& t : result.tenants) {
    failed += t.failed + t.aborted + t.read_errors;
  }
  return failed;
}

void check_rep(const Rep& rep, Report& report) {
  bool complete = rep.result.tenants.size() == kTenants;
  for (std::size_t i = 0; complete && i < rep.result.tenants.size(); ++i) {
    const host::TenantResult& t = rep.result.tenants[i];
    complete = t.completed == rep.trace_sizes[i] && t.submitted == t.completed;
  }
  report.check(complete, "every tenant completed its whole trace");
  const std::uint64_t failed = failed_cmds(rep.result);
  report.check(failed == 0, "zero failed, aborted or read-error commands");
  report.check(rep.erases == 0, "the device never erased a block");
  report.count_attempted(rep.generated);
  report.count_failed(failed);
}

std::uint64_t pages_of(const host::MultiQueueResult& result) {
  std::uint64_t pages = 0;
  for (const host::TenantResult& t : result.tenants) pages += t.pages;
  return pages;
}

std::uint64_t completed_of(const host::MultiQueueResult& result) {
  std::uint64_t completed = 0;
  for (const host::TenantResult& t : result.tenants) completed += t.completed;
  return completed;
}

double victim_p99_us(const host::MultiQueueResult& result) {
  obs::LatencyHistogram pooled;
  for (std::size_t i = 0; i + 1 < result.tenants.size(); ++i) {
    pooled.merge(result.tenants[i].latency_us);
  }
  return static_cast<double>(pooled.p99());
}

double sim_iops(const host::MultiQueueResult& result) {
  return static_cast<double>(completed_of(result)) * 1e6 /
         static_cast<double>(result.end_time_us);
}

void note_result(const Options& options, const Rep& rep, Report& report) {
  const host::TenantResult& flood = rep.result.tenants.back();
  report.note(format("%llu commands, %llu pages, end %.3f sim s, victim p99 %.0f us, "
                     "flood p99 %.0f us, idle windows %llu",
                     static_cast<unsigned long long>(completed_of(rep.result)),
                     static_cast<unsigned long long>(pages_of(rep.result)),
                     static_cast<double>(rep.result.end_time_us) / 1e6,
                     victim_p99_us(rep.result), static_cast<double>(flood.latency_us.p99()),
                     static_cast<unsigned long long>(rep.result.idle_windows)));
  report.note(format("digest tenant_flood seed %llu: %016llx",
                     static_cast<unsigned long long>(options.seed),
                     static_cast<unsigned long long>(rep.result.digest())));
}

void add_sim_metrics(const host::MultiQueueResult& result, double cpu_s, Report& report) {
  report.add("kops_per_cpu_s", static_cast<double>(pages_of(result)) / cpu_s / 1e3, "kops/s",
             "host page ops per measured CPU second");
  report.add("sim_iops", sim_iops(result), "req/sim_s",
             "completed commands per simulated second");
}

void timed_run(const Options& options, Report& report) {
  // Only the first repetition's result is kept; later ones are checked
  // and dropped, so peak memory does not depend on the repetition count.
  const double start = wall_now();
  const Rep first = run_rep(options.seed, nullptr, false);
  check_rep(first, report);
  note_result(options, first, report);
  const std::uint64_t digest = first.result.digest();
  const double cpu_s = measure_repetitions(
      options.seconds, kMinReps, start, first.times,
      [&] {
        const Rep rep = run_rep(options.seed, nullptr, false);
        report.check(rep.result.digest() == digest,
                     "every repetition reproduces the first one's digest");
        check_rep(rep, report);
        return rep.times;
      },
      report);
  add_sim_metrics(first.result, cpu_s, report);
}

void traced_run(const Options& options, Report& report) {
  // A discarded warm-up repetition (first-touch page faults, allocator
  // growth), then untraced, traced, untraced: the traced repetition is
  // compared with the mean of its two untraced neighbours.
  (void)run_rep(options.seed, nullptr, false);
  const Rep before = run_rep(options.seed, nullptr, false);
  SpanLog spans;
  const Rep traced = run_rep(options.seed, &spans, true);
  const Rep after = run_rep(options.seed, nullptr, false);
  const std::uint64_t digest = before.result.digest();
  report.check(traced.result.digest() == digest && after.result.digest() == digest,
               "traced repetition reproduces the untraced digest and simulated metrics");
  for (const Rep* rep : {&before, &traced, &after}) check_rep(*rep, report);
  note_result(options, traced, report);

  LayerTable table;
  add_span_check(spans, before.times, traced.times, after.times, table, report);

  const host::MultiQueueResult& result = traced.result;
  const std::uint64_t commands = completed_of(result);
  const std::uint64_t pages = pages_of(result);
  table.set("workload.gen_ns_per_req",
            spans.total("workload.build_tenant_traces").total_s * 1e9 /
                static_cast<double>(traced.generated),
            format("%llu requests, 1024 tenant traces",
                   static_cast<unsigned long long>(traced.generated)));

  // Differential replay: the merged trace through a bare Controller (a
  // window of 10 one-page commands, the frontend's page budget), then
  // page by page through FtlBase, each on a fresh device.
  workload::Trace merged;
  for (const workload::Trace& t : host::build_tenant_traces(
           make_tenants(), traced.setup.ftl->exported_pages(), options.seed, 1)) {
    for (const workload::IoRequest& r : t.requests()) merged.add(r);
  }
  merged.sort_by_arrival();
  const host::MultiQueueConfig config = frontend_config();
  ReplayCost controller_cost;
  ReplayCost ftl_cost;
  double rebuild_ms = 0.0, check_ms = 0.0;
  {
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(sim::FtlKind::kPage, flood_config());
    controller_cost = replay_controller(*ftl, merged, config.shared_page_budget,
                                        config.idle_threshold_us);
  }
  {
    std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(sim::FtlKind::kPage, flood_config());
    ftl_cost = replay_ftl(*ftl, merged, config.idle_threshold_us);
    time_reboot(sim::FtlKind::kPage, *ftl, rebuild_ms, check_ms, report);
  }
  const double run_s = spans.total("host.frontend_run").total_s;
  add_replay_layers("MultiQueueFrontend::run", run_s, traced.setup.ftl->device().total_counters(),
                    controller_cost, ftl_cost, pages,
                    format("%llu host pages", static_cast<unsigned long long>(pages)), table,
                    report);
  table.set("host.frontend_ns_per_cmd", (run_s - controller_cost.total_s) * 1e9 /
                                            static_cast<double>(commands),
            format("%llu commands, MultiQueueFrontend::run minus Controller replay",
                   static_cast<unsigned long long>(commands)));
  table.set("sim.p99_us", victim_p99_us(result), "1023 victims pooled, measured run");
  table.set("host.idle_windows", static_cast<double>(result.idle_windows), "measured run");
  table.set("host.failed_cmds", static_cast<double>(failed_cmds(result)),
            "failed + aborted + read-error commands, measured run");
  table.set("ftl.rebuild_mapping_ms", rebuild_ms, "one pageFTL reboot after its replay");
  table.set("ftl.check_consistency_ms", check_ms, "one pageFTL check after its reboot");

  std::uint64_t admits = 0;
  const double arbiter_ns = probe_arbiter_ns_per_admit(options.seed, &admits);
  table.set("controller.arbiter_ns_per_admit", arbiter_ns,
            format("%llu admissions, 1024 queues, WDRR", static_cast<unsigned long long>(admits)));

  // The traced repetition's device: fresh before the run, so its totals
  // are the measured run's.
  const ftl::FtlBase& ftl = *traced.setup.ftl;
  const nand::AttributionCounters& a = ftl.device().attribution();
  const std::uint64_t host_pages = ftl.stats().host_write_pages;
  const std::string run_base = "pageFTL measured run";
  table.set("ftl.waf", static_cast<double>(a.total_programs()) / static_cast<double>(host_pages),
            run_base);
  table.set("ftl.gc_copies_per_host_page",
            static_cast<double>(ftl.stats().gc_copy_pages) / static_cast<double>(host_pages),
            run_base);
  table.set("ftl.erases", static_cast<double>(a.total_erases()), run_base);
  add_cause_programs(a, run_base, table);
  const nand::OpCounters ops = ftl.device().total_counters();
  table.set("nand.programs", static_cast<double>(ops.programs()), run_base);
  table.set("nand.reads", static_cast<double>(ops.reads), run_base);
  table.set("nand.erases", static_cast<double>(ops.erases), run_base);

  // Observability cost: the same replay with and without a TraceSink and
  // a 1 ms StateSampler attached to the frontend.
  {
    Setup plain = set_up(options.seed, nullptr);
    double t0 = wall_now();
    const host::MultiQueueResult plain_result = plain.frontend->run();
    const double plain_s = wall_now() - t0;
    Setup observed = set_up(options.seed, nullptr);
    obs::TraceSink sink;
    obs::StateSampler sampler(1'000);
    observed.frontend->set_observability(&sink, &sampler);
    t0 = wall_now();
    const host::MultiQueueResult observed_result = observed.frontend->run();
    const double observed_s = wall_now() - t0;
    report.check(plain_result.digest() == digest && observed_result.digest() == digest,
                 "the frontend run with and without observers reproduces the digest");
    table.set("obs.trace_overhead_frac", observed_s / plain_s - 1.0,
              "MultiQueueFrontend::run with TraceSink + StateSampler vs without");
    table.set("obs.events", static_cast<double>(sink.size()), "measured run");
  }

  add_shared_probes(table, report);
  table.emit(report);
}

}  // namespace

void run_tenant_flood(const Options& options, Report& report) {
  if (options.trace) {
    traced_run(options, report);
  } else {
    timed_run(options, report);
  }
}

}  // namespace perfbench
