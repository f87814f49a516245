// Host-time measurement, spans and the result report of the benchmark.
//
// Everything here is the benchmark's own: the simulator is never edited
// to be measured. Spans wrap calls into the simulator's public entry
// points from the outside, so a span's self time is the time of that
// call minus the spans opened inside it.
#pragma once

#include <sched.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock, seconds.
double wall_now();
/// CPU time of the whole process (all threads), seconds.
double cpu_now();
/// Peak resident set of the process so far, MB (10^6 bytes).
double peak_rss_mb();
/// Median of `v` (the mean of the middle two for an even count).
double median(std::vector<double> v);

/// What one measured phase cost: wall and process CPU seconds.
struct Cost {
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Times one phase; stop() returns the cost since construction.
class Stopwatch {
 public:
  Stopwatch() : wall_(wall_now()), cpu_(cpu_now()) {}
  [[nodiscard]] Cost stop() const { return {wall_now() - wall_, cpu_now() - cpu_}; }

 private:
  double wall_;
  double cpu_;
};

/// Pins the calling thread to one CPU of its affinity set, the next CPU
/// in turn at each construction, and restores the set when destroyed.
/// The host's cores slow down independently of each other (whatever
/// shares the physical core), so a run whose repetitions take turns on
/// every CPU reports a median that does not hang on one core's luck.
class CorePin {
 public:
  CorePin();
  ~CorePin();
  CorePin(const CorePin&) = delete;
  CorePin& operator=(const CorePin&) = delete;

 private:
  cpu_set_t saved_{};
  bool pinned_ = false;
};

/// Host time of one repetition: its set-up and its measured phase.
struct RepTimes {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// In-memory span recorder. Spans nest by open order; totals() folds them
/// per name with call counts, total and self time. A null log (the timed
/// run) makes every scope a no-op.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  struct Total {
    std::string name;
    std::uint64_t calls = 0;
    double total_s = 0.0;
    double self_s = 0.0;
    bool top_level = false;  // opened with no enclosing span
  };

  /// Per-name totals in first-seen order.
  [[nodiscard]] std::vector<Total> totals() const;
  /// Total of `name` (0 when never recorded).
  [[nodiscard]] Total total(const std::string& name) const;
  /// Sum of the spans opened with no enclosing span.
  [[nodiscard]] double top_level_s() const;

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);
  struct Span {
    const char* name;
    std::size_t parent;  // index of the enclosing span, or kNoParent
    double start;
    double end;
    double children;  // summed durations of direct child spans
  };
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

/// FNV-1a over 64-bit words (the style of the repository's digests).
class Digest {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (byte * 8)) & 0xff;
      h_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// One reported number. `base` names what it was measured over (the
/// count base of a per-layer ratio); it goes to the printed table only.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;
};

/// Everything a run prints: notes, correctness verdicts, the metric
/// table and, as the last line of stdout, the result JSON.
class Report {
 public:
  /// Record one correctness check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what);
  void note(const std::string& line) { notes_.push_back(line); }
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& base = "");
  void count_attempted(std::uint64_t n) { attempted_ += n; }
  void count_failed(std::uint64_t n) { failed_ += n; }

  [[nodiscard]] bool correct() const { return failures_.empty(); }

  /// Print everything; returns the process exit code (0 when correct).
  int print() const;

 private:
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
};

/// Repeat a workload until `seconds` have passed since `start`, and at
/// least `min_reps` times counting `first`; `next` runs and checks one
/// more repetition. Adds setup_s, wall_s, cpu_s (medians) and peak_rss_mb
/// to `report` and returns the median cpu_s.
double measure_repetitions(double seconds, int min_reps, double start, const RepTimes& first,
                           const std::function<RepTimes()>& next, Report& report);

/// Printf-style std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench
