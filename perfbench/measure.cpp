#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <ctime>

namespace perfbench {

double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // ru_maxrss is KiB
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

CorePin::CorePin() {
  static unsigned turn = 0;
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  const int count = CPU_COUNT(&saved_);
  if (count < 2) return;
  int wanted = static_cast<int>(turn++ % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &saved_) || wanted-- > 0) continue;
    cpu_set_t one{};
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
    return;
  }
}

CorePin::~CorePin() {
  if (pinned_) sched_setaffinity(0, sizeof(saved_), &saved_);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log) {
  if (log_ == nullptr) return;
  index_ = log_->spans_.size();
  const std::size_t parent = log_->open_.empty() ? kNoParent : log_->open_.back();
  log_->spans_.push_back(Span{name, parent, 0.0, 0.0, 0.0});
  log_->open_.push_back(index_);
  log_->spans_[index_].start = wall_now();
}

SpanLog::Scope::~Scope() {
  if (log_ == nullptr) return;
  Span& span = log_->spans_[index_];
  span.end = wall_now();
  log_->open_.pop_back();
  if (span.parent != kNoParent) log_->spans_[span.parent].children += span.end - span.start;
}

std::vector<SpanLog::Total> SpanLog::totals() const {
  std::vector<Total> out;
  for (const Span& span : spans_) {
    auto it = std::find_if(out.begin(), out.end(),
                           [&](const Total& t) { return t.name == span.name; });
    if (it == out.end()) {
      out.push_back(Total{span.name, 0, 0.0, 0.0, span.parent == kNoParent});
      it = out.end() - 1;
    }
    ++it->calls;
    it->total_s += span.end - span.start;
    it->self_s += span.end - span.start - span.children;
  }
  return out;
}

SpanLog::Total SpanLog::total(const std::string& name) const {
  for (const Total& t : totals()) {
    if (t.name == name) return t;
  }
  return Total{name, 0, 0.0, 0.0, false};
}

double SpanLog::top_level_s() const {
  double sum = 0.0;
  for (const Span& span : spans_) {
    if (span.parent == kNoParent) sum += span.end - span.start;
  }
  return sum;
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
}

void Report::add(const std::string& name, double value, const std::string& unit,
                 const std::string& base) {
  metrics_.push_back(Metric{name, value, unit, base});
}

int Report::print() const {
  for (const std::string& line : notes_) std::printf("# %s\n", line.c_str());
  std::printf("# checks: %llu run, %zu failed\n",
              static_cast<unsigned long long>(checks_), failures_.size());
  for (const std::string& f : failures_) std::printf("# CHECK FAILED: %s\n", f.c_str());
  bool finite = true;
  for (const Metric& m : metrics_) {
    std::printf("# %-34s %18.6f %-10s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.base.c_str());
    finite = finite && std::isfinite(m.value);
  }
  if (!finite) std::printf("# CHECK FAILED: a metric is not a finite number\n");
  const bool ok = correct() && finite;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              ok ? "true" : "false", static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_));
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return ok ? 0 : 1;
}

double measure_repetitions(double seconds, int min_reps, double start, const RepTimes& first,
                           const std::function<RepTimes()>& next, Report& report) {
  std::vector<RepTimes> reps{first};
  while (reps.size() < static_cast<std::size_t>(min_reps) || wall_now() - start < seconds) {
    reps.push_back(next());
  }
  std::vector<double> setup, wall, cpu;
  for (std::size_t i = 0; i < reps.size(); ++i) {
    report.note(format("repetition %zu: setup %.4f s, wall %.4f s, cpu %.4f s", i + 1,
                       reps[i].setup_s, reps[i].wall_s, reps[i].cpu_s));
    setup.push_back(reps[i].setup_s);
    wall.push_back(reps[i].wall_s);
    cpu.push_back(reps[i].cpu_s);
  }
  const std::string base = format("median of %zu repetitions", reps.size());
  report.add("setup_s", median(setup), "s", base);
  report.add("wall_s", median(wall), "s", base);
  report.add("cpu_s", median(cpu), "s", base);
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "whole process");
  return median(cpu);
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list sized;
  va_copy(sized, args);
  const int length = std::vsnprintf(nullptr, 0, fmt, sized);
  va_end(sized);
  std::string out(length > 0 ? static_cast<std::size_t>(length) : 0, '\0');
  if (length > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
