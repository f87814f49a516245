#include "src/faultsim/harness.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <stdexcept>

#include "src/controller/controller.hpp"
#include "src/host/multi_queue.hpp"
#include "src/obs/trace.hpp"
#include "src/util/random.hpp"
#include "src/util/serialize.hpp"

namespace rps::faultsim {

ftl::FtlConfig FaultSimConfig::small_config() {
  ftl::FtlConfig c = ftl::FtlConfig::tiny();
  // Keep the tiny 2-channel x 2-chip array (striping and per-chip queues
  // stay exercised) but deepen the blocks so a fast block holds enough LSB
  // pages for the parity-flush window to be hittable by a sweep.
  c.geometry.wordlines_per_block = 8;
  return c;
}

const char* to_string(sim::Engine engine) {
  switch (engine) {
    case sim::Engine::kController: return "controller";
    case sim::Engine::kLegacySync: return "legacy";
  }
  __builtin_unreachable();
}

std::optional<sim::FtlKind> ftl_kind_from(const std::string& name) {
  for (const sim::FtlKind kind :
       {sim::FtlKind::kPage, sim::FtlKind::kParity, sim::FtlKind::kRtf,
        sim::FtlKind::kFlex, sim::FtlKind::kSlc}) {
    if (name == sim::to_string(kind)) return kind;
  }
  return std::nullopt;
}

std::optional<sim::Engine> engine_from(const std::string& name) {
  if (name == "controller") return sim::Engine::kController;
  if (name == "legacy") return sim::Engine::kLegacySync;
  return std::nullopt;
}

namespace {

/// One generated host request of the main phase.
struct GenRequest {
  bool write = true;
  Lpn lpn = 0;
  std::uint32_t pages = 1;
  double utilization = 0.0;
  Microseconds arrival = 0;
};

/// The whole main-phase request stream, precomputed so both engines (and
/// every crash point) consume the identical seeded sequence.
std::vector<GenRequest> generate_workload(const FaultSimConfig& config,
                                          Lpn working_set, Microseconds start) {
  Rng rng(config.seed * 0x9e3779b97f4a7c15ull + 0x632be59bd9b4e019ull);
  std::vector<GenRequest> reqs;
  reqs.reserve(config.requests);
  Microseconds now = start;
  for (std::uint64_t i = 0; i < config.requests; ++i) {
    GenRequest r;
    now += static_cast<Microseconds>(rng.next_below(
        2 * static_cast<std::uint64_t>(config.mean_gap_us) + 1));
    r.arrival = now;
    r.pages = 1 + static_cast<std::uint32_t>(
                      rng.next_below(std::max<std::uint32_t>(1, config.max_pages_per_request)));
    r.pages = static_cast<std::uint32_t>(
        std::min<Lpn>(r.pages, working_set));
    r.lpn = rng.next_below(working_set - r.pages + 1);
    r.write = !rng.chance(config.read_fraction);
    // Alternate burst-like and lull-like buffer pressure so flexFTL's
    // policy serves both LSB and MSB phases (both crash hazards live).
    r.utilization = rng.chance(0.5) ? 0.95 : 0.02;
    reqs.push_back(r);
  }
  return reqs;
}

/// Tenant set for a multi-tenant trial: the seeded workload knobs mapped
/// onto per-tenant open-loop sources. Even ids arrive Poisson, odd ids
/// bursty on/off — the bursty OFF periods are what opens idle windows
/// (background GC/scrub) in the middle of a crash sweep. Interarrival
/// scales with the tenant count so the aggregate load matches the
/// single-stream trial's.
std::vector<host::TenantConfig> make_tenants(const FaultSimConfig& config,
                                             std::uint32_t tenants,
                                             Microseconds start) {
  workload::SizeDistribution dist{{1, 0.6}};
  if (config.max_pages_per_request >= 2) dist.push_back({2, 0.3});
  if (config.max_pages_per_request >= 4) dist.push_back({4, 0.1});
  std::vector<host::TenantConfig> out(tenants);
  for (std::uint32_t i = 0; i < tenants; ++i) {
    host::TenantConfig& t = out[i];
    t.id = i;
    t.arrival = (i % 2 == 0) ? workload::ArrivalProcess::kPoisson
                             : workload::ArrivalProcess::kBurstyOnOff;
    t.read_fraction = config.read_fraction;
    t.size_dist = dist;
    t.mean_interarrival_us = config.mean_gap_us * tenants;
    t.on_mean_us = 20 * config.mean_gap_us;
    t.off_mean_us = 50 * config.mean_gap_us;
    t.start_us = start;
    t.requests = std::max<std::uint64_t>(1, config.requests / tenants);
  }
  return out;
}

}  // namespace

std::uint64_t WarmStart::digest() const {
  std::uint64_t h = ser::fnv1a(ftl.bytes());
  return ser::fnv1a(oracle.data(), oracle.size(), h);
}

namespace {
constexpr std::uint64_t kWarmStartMagic = 0x314d524157535052ull;  // "RPSWARM1"
}  // namespace

bool WarmStart::save_file(const std::string& path) const {
  // Framing around the two sections, written straight from where they live.
  ser::Writer head;
  head.u64(kWarmStartMagic);
  head.u64(ftl.bytes().size());
  ser::Writer oracle_head;
  oracle_head.u64(oracle.size());
  ser::Writer tail;
  tail.u64(digest());
  return ser::write_file(path, {head.view(), ftl.bytes(), oracle_head.view(), oracle,
                                tail.view()});
}

std::optional<WarmStart> WarmStart::load_file(const std::string& path) {
  // Each section is read straight into its final buffer; the snapshot's
  // own checksum is verified by from_bytes, the whole file's by digest().
  ser::FileReader in(path);
  if (in.u64() != kWarmStartMagic) return std::nullopt;
  WarmStart warm;
  warm.ftl = sim::Snapshot::from_bytes(in.take(in.u64()));
  warm.oracle = in.take(in.u64());
  const std::uint64_t digest = in.u64();
  if (!in.ok() || in.remaining() != 0 || digest != warm.digest() || !warm.ftl.valid()) {
    return std::nullopt;
  }
  return warm;
}

namespace {

/// The seed-independent fill phase: one pass over the working set through
/// the synchronous path while the device is idle. Everything here is
/// durable long before any crash point (crash points come from main-phase
/// completions). Ends with the oracle's epoch mark — exactly the fork
/// point WarmStart captures.
void run_fill_phase(ftl::FtlBase& ftl, ShadowOracle& oracle, Lpn working_set) {
  for (Lpn lpn = 0; lpn < working_set; ++lpn) {
    const Result<ftl::HostOp> op = ftl.write(lpn, ftl.device().all_idle_at(), 0.5);
    if (op.is_ok()) oracle.ack_latest(lpn, op.value().complete);
  }
  oracle.mark_epoch();
}

Lpn fill_working_set(const ftl::FtlBase& ftl, const FaultSimConfig& config) {
  return std::max<Lpn>(
      1, static_cast<Lpn>(static_cast<double>(ftl.exported_pages()) *
                          config.working_set_fraction));
}

}  // namespace

WarmStart make_warm_start(const FaultSimConfig& config) {
  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(config.kind, config.ftl_config);
  ShadowOracle oracle;
  oracle.attach(*ftl);
  run_fill_phase(*ftl, oracle, fill_working_set(*ftl, config));
  oracle.detach();
  WarmStart warm;
  warm.ftl = sim::Snapshot::capture(*ftl);
  ser::Writer w;
  oracle.save(w);
  warm.oracle = w.take();
  return warm;
}

TrialResult run_trial(const FaultSimConfig& config, obs::TraceSink* sink,
                      const WarmStart* warm) {
  TrialResult out;
  CrashReport& report = out.report;
  report.crash_time_us = config.crash_time_us;
  const Microseconds crash = config.crash_time_us;

  std::unique_ptr<ftl::FtlBase> ftl = sim::make_ftl(config.kind, config.ftl_config);
  ShadowOracle oracle;
  oracle.attach(*ftl);

  const Lpn working_set = fill_working_set(*ftl, config);
  if (warm != nullptr) {
    // Fork from the shared post-fill snapshot instead of re-filling: the
    // restored device, mapping and oracle history are bit-identical to
    // what the fill loop below would produce.
    const bool restored = warm->ftl.restore(*ftl);
    assert(restored);
    (void)restored;
    ser::Reader r(warm->oracle);
    oracle.load(r);
    assert(r.ok() && r.at_end());
  } else {
    run_fill_phase(*ftl, oracle, working_set);
  }
  // Trace the main phase only: fill-phase writes are setup, not behaviour
  // under test.
  if (sink != nullptr) {
    sink->set_planes(ftl->device().geometry().planes_per_chip);
  }
  ftl->set_trace_sink(sink);

  const Microseconds start = ftl->device().all_idle_at() + 1'000;
  const std::vector<GenRequest> reqs = generate_workload(config, working_set, start);

  std::vector<nand::PowerLossVictim> victims;
  std::vector<Microseconds> completes;

  if (config.tenants > 1) {
    // Multi-tenant frontend path: per-tenant open-loop queues over
    // disjoint partitions of the (pre-filled) working set, arbitrated
    // admission, per-tenant write streams. A crash lands mid-arbitration.
    const auto tenant_count = static_cast<std::uint32_t>(
        std::min<Lpn>(config.tenants, working_set));
    host::MultiQueueConfig mq;
    mq.arbiter.policy = config.arb;
    mq.keep_op_log = true;
    host::MultiQueueFrontend frontend(*ftl, mq);
    for (const host::TenantConfig& t :
         make_tenants(config, tenant_count, start)) {
      frontend.add_tenant(
          t, host::tenant_trace(
                 t, host::tenant_partition(t.id, tenant_count, working_set),
                 config.seed));
    }
    frontend.set_observability(sink, nullptr);
    host::MultiQueueResult mres = frontend.run(crash);
    if (crash != kTimeNever) {
      report.crashed = true;
      ctrl::PowerLossOutcome outcome = frontend.power_loss(crash, mres);
      victims = std::move(outcome.victims);
      report.victims = victims.size();
      report.cancelled_write_ops = outcome.cancelled_write_ops;
      report.cancelled_read_ops = outcome.cancelled_read_ops;
      report.aborted_commands = outcome.aborted_commands;
    }
    for (const host::TenantResult& t : mres.tenants) {
      report.requests_issued += t.submitted;
    }
    oracle.finalize_from_op_log(frontend.controller().op_log());
    for (const ctrl::OpRecord& rec : frontend.controller().op_log()) {
      if (rec.ok && rec.complete < crash) completes.push_back(rec.complete);
    }
  } else if (config.engine == sim::Engine::kController) {
    ctrl::Controller controller(
        *ftl, ctrl::ControllerConfig{.stripe_writes = true, .keep_op_log = true});
    controller.set_observability(sink, nullptr);
    for (const GenRequest& r : reqs) {
      if (r.arrival >= crash) break;
      ctrl::HostCommand cmd;
      cmd.kind = r.write ? ctrl::CmdKind::kWrite : ctrl::CmdKind::kRead;
      cmd.lpn = r.lpn;
      cmd.page_count = r.pages;
      cmd.issue = r.arrival;
      cmd.buffer_utilization = r.utilization;
      controller.submit(cmd);
      controller.drain(r.arrival);
      ++report.requests_issued;
    }
    if (crash != kTimeNever) {
      report.crashed = true;
      ctrl::PowerLossOutcome outcome = controller.power_loss(crash);
      victims = std::move(outcome.victims);
      report.victims = victims.size();
      report.cancelled_write_ops = outcome.cancelled_write_ops;
      report.cancelled_read_ops = outcome.cancelled_read_ops;
      report.aborted_commands = outcome.aborted_commands;
    } else {
      controller.drain();
    }
    oracle.finalize_from_op_log(controller.op_log());
    for (const ctrl::OpRecord& rec : controller.op_log()) {
      if (rec.ok && rec.complete < crash) completes.push_back(rec.complete);
    }
  } else {
    for (const GenRequest& r : reqs) {
      if (r.arrival >= crash) break;
      for (std::uint32_t j = 0; j < r.pages; ++j) {
        if (r.write) {
          const Result<ftl::HostOp> op = ftl->write(r.lpn + j, r.arrival, r.utilization);
          if (op.is_ok()) {
            oracle.ack_latest(r.lpn + j, op.value().complete);
            if (op.value().complete < crash) completes.push_back(op.value().complete);
          }
        } else {
          const Result<ftl::HostOp> op = ftl->read(r.lpn + j, r.arrival);
          if (op.is_ok() && op.value().complete < crash) {
            completes.push_back(op.value().complete);
          }
        }
      }
      ++report.requests_issued;
    }
    if (crash != kTimeNever) {
      report.crashed = true;
      victims = ftl->device().inject_power_loss(crash);
      report.victims = victims.size();
    }
  }

  std::sort(completes.begin(), completes.end());
  completes.erase(std::unique(completes.begin(), completes.end()), completes.end());
  out.boundaries = std::move(completes);

  if (report.crashed && std::getenv("FAULTSIM_DEBUG") != nullptr) {
    for (const nand::PowerLossVictim& v : victims) {
      std::fprintf(stderr, "[victim] chip=%u block=%u wl=%u type=%s\n", v.chip,
                   v.block, v.pos.wordline,
                   v.pos.type == nand::PageType::kLsb ? "LSB" : "MSB");
    }
  }
  if (report.crashed && sink != nullptr) {
    sink->record(obs::EventKind::kPowerLossCut, 0, crash, -1, victims.size());
  }
  if (report.crashed) {
    // Reboot at the instant of the cut; recovery work is charged from
    // there (the device timelines were capped to the crash time).
    const sim::RebootOutcome reboot =
        sim::crash_reboot(config.kind, *ftl, victims, crash, sink);
    report.recovery_supported = reboot.recovery_supported;
    report.recovery = reboot.report;
  }

  const Microseconds check_at = std::max(ftl->device().all_idle_at(),
                                         report.crashed ? crash : Microseconds{0});
  report.oracle = oracle.check(*ftl, crash, check_at);
  report.unaccounted_loss = report.oracle.lost > report.recovery.pages_lost
                                ? report.oracle.lost - report.recovery.pages_lost
                                : 0;
  // Verdict: an FTL with a real recovery procedure must leave no stale
  // reads and no losses it did not explicitly report. FTLs without one
  // (recovery_supported == false) lose destroyed pages by design — the
  // oracle still counts them, but they are not violations.
  report.violations =
      report.recovery_supported ? report.oracle.stale + report.unaccounted_loss : 0;
  if (config.tenants > 1) {
    // Stream-tag audit: every readable mapped page must carry either tag
    // 0 (default stream, fill-phase data, or an OOB hint recovery could
    // not reconstruct) or the stream of its partition's owner. A nonzero
    // tag naming a different tenant means the frontend/allocator routed
    // one tenant's data through another's stream — a violation whether or
    // not the trial crashed.
    const auto tenant_count = static_cast<std::uint32_t>(
        std::min<Lpn>(config.tenants, working_set));
    for (Lpn lpn = 0; lpn < working_set; ++lpn) {
      const Result<nand::PageData> data = ftl->read_data(lpn, check_at);
      if (!data.is_ok()) continue;  // destroyed data: the oracle's department
      if ((data.value().spare & nand::kNonHostSpareFlag) != 0) continue;
      const std::uint32_t tag = nand::stream_of_spare(data.value().spare);
      if (tag == 0) continue;
      const std::uint32_t owner =
          host::tenant_of_lpn(lpn, tenant_count, working_set);
      if (tag != owner) ++report.stream_tag_mismatches;
    }
    report.violations += report.stream_tag_mismatches;
  }
  report.consistent = ftl->check_consistency();
  out.attribution = ftl->device().attribution();
  out.wear = obs::collect_wear(ftl->device());
  ftl->set_trace_sink(nullptr);
  oracle.detach();
  return out;
}

std::string reproducer(const FaultSimConfig& config) {
  std::ostringstream os;
  os << "faultsim --ftl=" << sim::to_string(config.kind)
     << " --engine=" << to_string(config.engine) << " --seed=" << config.seed
     << " --requests=" << config.requests
     << " --max-pages=" << config.max_pages_per_request
     << " --ws=" << config.working_set_fraction
     << " --reads=" << config.read_fraction << " --gap=" << config.mean_gap_us
     << " --crash-us=" << config.crash_time_us;
  // Non-default device topology / failure knobs only, so legacy
  // reproducer lines stay byte-identical.
  const nand::Geometry& g = config.ftl_config.geometry;
  const nand::Geometry& base = FaultSimConfig::small_config().geometry;
  if (g.channels != base.channels) os << " --channels=" << g.channels;
  if (g.chips_per_channel != base.chips_per_channel) {
    os << " --chips=" << g.chips_per_channel;
  }
  if (g.blocks_per_chip != base.blocks_per_chip) os << " --blocks=" << g.blocks_per_chip;
  if (g.wordlines_per_block != base.wordlines_per_block) {
    os << " --wordlines=" << g.wordlines_per_block;
  }
  if (g.planes_per_chip != 1) os << " --planes=" << g.planes_per_chip;
  if (config.ftl_config.bad_blocks.spare_blocks_per_unit != 0) {
    os << " --spares=" << config.ftl_config.bad_blocks.spare_blocks_per_unit;
  }
  if (config.ftl_config.bad_blocks.factory_bad_ppm != 0) {
    os << " --factory-ppm=" << config.ftl_config.bad_blocks.factory_bad_ppm;
  }
  if (config.ftl_config.bad_blocks.erase_endurance != 0) {
    os << " --endurance=" << config.ftl_config.bad_blocks.erase_endurance;
  }
  if (config.tenants != 1) os << " --tenants=" << config.tenants;
  if (config.arb != ctrl::ArbPolicy::kRoundRobin) {
    os << " --arb=" << ctrl::to_string(config.arb);
  }
  return os.str();
}

namespace {

/// A whole decimal token that fits u32; throws otherwise (no silent
/// truncation of "4294967297" to 1, no trailing garbage).
std::uint32_t parse_u32(const std::string& value) {
  std::size_t used = 0;
  const unsigned long long v = std::stoull(value, &used);
  if (used != value.size() || v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(value);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

std::optional<FaultSimConfig> parse_reproducer(const std::string& line) {
  FaultSimConfig config;
  std::istringstream is(line);
  std::string token;
  bool first = true;
  while (is >> token) {
    // The leading word of a reproducer line is the binary name.
    if (first && token.find("--") != 0) {
      first = false;
      continue;
    }
    first = false;
    const std::size_t eq = token.find('=');
    if (token.rfind("--", 0) != 0 || eq == std::string::npos) return std::nullopt;
    const std::string key = token.substr(2, eq - 2);
    const std::string value = token.substr(eq + 1);
    try {
      if (key == "ftl") {
        const auto kind = ftl_kind_from(value);
        if (!kind) return std::nullopt;
        config.kind = *kind;
      } else if (key == "engine") {
        const auto engine = engine_from(value);
        if (!engine) return std::nullopt;
        config.engine = *engine;
      } else if (key == "seed") {
        config.seed = std::stoull(value);
      } else if (key == "requests") {
        config.requests = std::stoull(value);
      } else if (key == "max-pages") {
        config.max_pages_per_request = static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "ws") {
        config.working_set_fraction = std::stod(value);
      } else if (key == "reads") {
        config.read_fraction = std::stod(value);
      } else if (key == "gap") {
        config.mean_gap_us = std::stoll(value);
      } else if (key == "crash-us") {
        config.crash_time_us = std::stoll(value);
      } else if (key == "channels") {
        config.ftl_config.geometry.channels = parse_u32(value);
      } else if (key == "chips") {
        config.ftl_config.geometry.chips_per_channel = parse_u32(value);
      } else if (key == "blocks") {
        config.ftl_config.geometry.blocks_per_chip = parse_u32(value);
      } else if (key == "wordlines") {
        config.ftl_config.geometry.wordlines_per_block = parse_u32(value);
      } else if (key == "planes") {
        config.ftl_config.geometry.planes_per_chip = parse_u32(value);
      } else if (key == "spares") {
        config.ftl_config.bad_blocks.spare_blocks_per_unit =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "factory-ppm") {
        config.ftl_config.bad_blocks.factory_bad_ppm =
            static_cast<std::uint32_t>(std::stoul(value));
      } else if (key == "endurance") {
        config.ftl_config.bad_blocks.erase_endurance = std::stoull(value);
      } else if (key == "tenants") {
        config.tenants = static_cast<std::uint32_t>(std::stoul(value));
        if (config.tenants == 0) return std::nullopt;
      } else if (key == "arb") {
        const auto policy = ctrl::arb_policy_from(value);
        if (!policy) return std::nullopt;
        config.arb = *policy;
      } else {
        return std::nullopt;
      }
    } catch (...) {
      return std::nullopt;
    }
  }
  if (!config.ftl_config.geometry.valid()) return std::nullopt;
  return config;
}

}  // namespace rps::faultsim
