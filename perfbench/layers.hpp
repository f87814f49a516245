// Per-layer measurements of the traced run.
//
// Layers nested inside one public call cannot be timed from outside it,
// so their self time comes from differential replay of the same trace
// through successively deeper public entry points:
//   Simulator::run  ⊃  Controller::submit/drain  ⊃  FtlBase::write/read
// and the NAND model's per-op cost from a separate one-chip device. The probes
// here are shared by every workload's traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "measure.hpp"
#include "src/ftl/ftl_base.hpp"
#include "src/nand/attribution.hpp"
#include "src/nand/chip.hpp"
#include "src/sim/runner.hpp"
#include "src/workload/trace.hpp"

namespace perfbench {

/// Measured per-layer values, keyed by metric name. emit() prints every
/// metric of the catalogue in layers.cpp: the traced run of every workload
/// prints all of them, and one a workload does not exercise prints 0 and
/// is named in the "not exercised" note.
class LayerTable {
 public:
  void set(const std::string& name, double value, const std::string& base) {
    values_[name] = {value, base};
  }
  void emit(Report& report) const;

 private:
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// Cost of one replay of a trace through a nested entry point.
struct ReplayCost {
  double total_s = 0.0;
  double write_s = 0.0;  // FtlBase::write calls only (replay_ftl)
  double read_s = 0.0;   // FtlBase::read calls only (replay_ftl)
  double idle_s = 0.0;   // FtlBase::on_idle calls only (replay_ftl)
  std::uint64_t write_pages = 0;
  std::uint64_t read_pages = 0;
  std::uint64_t errors = 0;  // read errors and failed writes
  rps::nand::OpCounters ops;  // device op delta of the replay

  ReplayCost& operator+=(const ReplayCost& other);
};

/// "N programs, N reads, N erases".
std::string ops_text(const rps::nand::OpCounters& ops);

/// Drive `trace` through a fresh Controller on `ftl` in closed-loop
/// windows of `window` commands (submit the window, drain, harvest). A
/// trace gap above `idle_threshold_us` ends the window and is handed to
/// the FTL as an idle window, as sim::Simulator does.
ReplayCost replay_controller(rps::ftl::FtlBase& ftl, const rps::workload::Trace& trace,
                             std::uint32_t window, rps::Microseconds idle_threshold_us);

/// Drive `trace` page by page through FtlBase::write / FtlBase::read,
/// timing each call, with the same idle windows (FtlBase::on_idle).
ReplayCost replay_ftl(rps::ftl::FtlBase& ftl, const rps::workload::Trace& trace,
                      rps::Microseconds idle_threshold_us);

/// From the two differential replays of a measured call `outer` (which
/// took `outer_s` and did `outer_ops`): controller.ns_per_page (controller
/// replay minus FtlBase replay over `pages` host pages, described by
/// `pages_base`), ftl.write_ns_per_page and ftl.read_ns_per_page, a note
/// comparing the three calls' NAND work, and the replays' error check.
void add_replay_layers(const char* outer, double outer_s, const rps::nand::OpCounters& outer_ops,
                       const ReplayCost& controller, const ReplayCost& ftl,
                       std::uint64_t pages, const std::string& pages_base, LayerTable& table,
                       Report& report);

/// Cut power once `ftl`'s device is idle, reboot it through
/// sim::crash_reboot and time the reboot and the consistency check after.
void time_reboot(rps::sim::FtlKind kind, rps::ftl::FtlBase& ftl, double& reboot_ms,
                 double& check_ms, Report& report);

/// QueueArbiter cost per admission: 1024 queues under WDRR with a
/// one-page quantum, single-page heads plus one eight-page queue.
double probe_arbiter_ns_per_admit(std::uint64_t seed, std::uint64_t* admits);

/// Compare the traced repetition with the mean of its two untraced
/// neighbours: bench.span_coverage (top-level spans over untraced
/// setup_s + cpu_s), bench.span_overhead_frac, a verdict note, and one
/// note per span name.
void add_span_check(const SpanLog& spans, const RepTimes& before, const RepTimes& traced,
                    const RepTimes& after, LayerTable& table, Report& report);

/// ftl.programs.<cause> for the six attributed program causes.
void add_cause_programs(const rps::nand::AttributionCounters& attribution,
                        const std::string& base, LayerTable& table);

/// Record the probes every traced run shares into `table` and their
/// correctness checks into `report`: NAND op costs on a separate one-chip
/// device, and the crash probe (faultsim warm start and single trials,
/// then sweep matrices over the four paper FTLs with replay verification
/// on and off at one worker and on at two workers).
void add_shared_probes(LayerTable& table, Report& report);

}  // namespace perfbench
