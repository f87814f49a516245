// perfbench: the simulator's benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Workloads: fig8_ntrx, fig8_webserver, tenant_flood (see README.md).
// --trace 0 repeats the workload for S seconds and prints the end-to-end
// metrics; --trace 1 runs the traced repetition and the layer probes and
// prints the per-layer metrics. The last line of stdout is the result
// JSON; lines before it start with '#'.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "measure.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload fig8_ntrx|fig8_webserver|"
               "tenant_flood --seed N --seconds S --trace 0|1\n",
               why);
  std::exit(2);
}

bool parse_u64(const std::string& text, std::uint64_t& out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) return false;
  if (text.size() > 19) return false;
  out = std::stoull(text);
  return true;
}

Options parse(int argc, char** argv) {
  Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    std::uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, n)) usage("--seed wants a non-negative integer");
      options.seed = n;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, n) || n == 0 || n > 3600) usage("--seconds wants 1..3600");
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace wants 0 or 1");
      options.trace = value == "1";
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return options;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  perfbench::Report report;
  report.note(perfbench::format("host: nproc=%ld cpu=\"%s\" compiler=\"gcc %s\" build=%s",
                                sysconf(_SC_NPROCESSORS_ONLN), cpu_model().c_str(),
                                __VERSION__, PERFBENCH_BUILD_TYPE));
  report.note(perfbench::format("run: workload=%s seed=%llu seconds=%.0f trace=%d",
                                options.workload.c_str(),
                                static_cast<unsigned long long>(options.seed), options.seconds,
                                options.trace ? 1 : 0));
  if (options.workload == "fig8_ntrx") {
    perfbench::run_fig8(options, rps::workload::Preset::kNtrx, report);
  } else if (options.workload == "fig8_webserver") {
    perfbench::run_fig8(options, rps::workload::Preset::kWebserver, report);
  } else if (options.workload == "tenant_flood") {
    perfbench::run_tenant_flood(options, report);
  } else {
    usage(("unknown workload " + options.workload).c_str());
  }
  return report.print();
}
