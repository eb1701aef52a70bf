#pragma once

// Shared plumbing of the benchmark driver: clocks, resource usage,
// percentiles, the result report, and the output oracle (per-target PL
// transcripts that every measured run is compared against).

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

std::int64_t now_ns();
std::int64_t process_cpu_ns();
/// Peak resident set size of this process, in MB.
double peak_rss_mb();
/// Sleep until `deadline_ns`, spinning the last stretch for precision.
void sleep_until_ns(std::int64_t deadline_ns);

/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty input.
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// The quiet estimate over many short slices of one run. A shared host
/// alternates between quiet and contended stretches (a busy sibling
/// hyperthread slows this process by up to ~1.5x for a fraction of a second
/// to several seconds), so the median slice follows the neighbours. The
/// quietest slices follow the code: quiet() is the mean of the best quarter
/// of the slices (the lowest costs or latencies, the highest rates).
double quiet(std::vector<double> values, bool higher_is_better);
/// Indices of the lowest `share` of `keys` (at least one), lowest first.
std::vector<std::size_t> quietest(const std::vector<double>& keys, double share);

/// Log-bucketed histogram of non-negative values at ~2% resolution, with a
/// constant-time, allocation-free add() for the load generator's loop.
class LogHistogram {
 public:
  void add(double value);
  double quantile(double q) const;
  std::uint64_t count() const noexcept { return count_; }

 private:
  static constexpr int kPerE = 50;  ///< Buckets per factor e.
  static constexpr int kBuckets = 1000;
  std::vector<std::uint32_t> buckets_ = std::vector<std::uint32_t>(kBuckets, 0);
  std::uint64_t count_ = 0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";  ///< Where the traced run writes its spans.
};

/// Metrics, counters and provenance of one run, printed as one JSON object.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  /// A correctness problem: recorded, and the run is not correct.
  void problem(const std::string& what);

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when the run cannot be trusted as a measurement (the load
  /// generator fell behind its schedule). Distinct from incorrect output.
  bool valid = true;

  bool correct() const noexcept { return failed == 0 && problems_.empty(); }
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> problems_;
};

/// One Positioning Layer output as the transcript records it (position or
/// room plus accuracy / confidence / likelihood, workload-defined).
struct Output {
  double a = 0.0;
  double b = 0.0;
  double c = 0.0;
  double d = 0.0;

  friend bool operator==(const Output&, const Output&) = default;
};

/// The reference output stream of one target whose input is a repeated
/// cycle: the outputs of one cycle and, per input position, how many of
/// them exist once that input was processed.
struct CycleTranscript {
  std::vector<Output> outputs;
  std::vector<std::uint32_t> prefix;  ///< prefix[j]: outputs after input j.

  /// Outputs expected after `inputs` inputs of the repeated cycle.
  std::uint64_t expected_after(std::uint64_t inputs) const;

  /// Build from an inline run over two cycles; fails (empty optional
  /// semantics via `ok`) when the second cycle does not repeat the first.
  static CycleTranscript from_two_cycles(const std::vector<Output>& outputs,
                                         const std::vector<std::uint32_t>& after,
                                         std::size_t cycle_len, bool& ok);
};

/// Live comparison of one target's outputs against its transcript.
struct TranscriptCheck {
  const CycleTranscript* expect = nullptr;
  std::uint64_t seen = 0;
  std::uint64_t mismatches = 0;

  void check(const Output& out) {
    const auto& ex = expect->outputs;
    if (ex.empty() || !(out == ex[seen % ex.size()])) ++mismatches;
    ++seen;
  }
  /// Mismatches plus lost or duplicated outputs after `inputs` inputs.
  std::uint64_t failures(std::uint64_t inputs) const;
};

/// Build provenance of this binary (build type, compiler, flags).
void add_build_notes(Report& report);
/// True when this binary was compiled with optimisation.
bool optimised_build();

}  // namespace perfbench
