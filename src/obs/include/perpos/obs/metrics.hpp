#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

/// \file metrics.hpp
/// The observability substrate (perpos::obs): a registry of named,
/// labelled metrics — counters, gauges and fixed-bucket histograms — with
/// machine-readable exporters (Prometheus text exposition and JSON).
///
/// PerPos's thesis is that the internal positioning process should be
/// *inspectable*; this module is the runtime half of that promise. The
/// Process Structure Layer exposes structure (graph_dump), the registry
/// exposes behaviour: sample rates, rejection counts, hook costs and
/// on_input latencies.
///
/// Design points:
///  * Hot-path operations (Counter::inc, Histogram::observe) touch only
///    relaxed atomics — no locks, no allocation. The registry mutex is
///    taken only when a metric handle is first created or a snapshot is
///    taken.
///  * Handles returned by the registry are stable for the registry's
///    lifetime (metrics live in a deque), so callers cache raw pointers.
///  * Histograms use fixed upper-bound buckets (Prometheus style, +Inf
///    implicit) so observe() is a branchless-ish linear scan over a dozen
///    doubles — no per-sample allocation, bounded memory.

namespace perpos::obs {

/// Sorted (key, value) pairs identifying one time series of a metric.
using Labels = std::vector<std::pair<std::string, std::string>>;

/// Monotone event count.
class Counter {
 public:
  void inc(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-written instantaneous value.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  /// Atomic increment (negative `d` decrements) — used for values tracked
  /// from several threads at once, e.g. execution-engine queue depths.
  void add(double d) noexcept {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + d,
                                         std::memory_order_relaxed,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram; bucket i counts observations <= bounds[i], with
/// an implicit +Inf bucket at the end. Also tracks sum/min/max.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;

  /// observe(), additionally stamping `exemplar` onto the bucket the
  /// observation lands in. The per-bucket last exemplar links the
  /// distribution back to one concrete event: "a sample in the 2–5ms
  /// bucket? here is one that took that long" (the graph stamps
  /// pack_sample_exemplar() keys). Exemplar 0 records nothing beyond the
  /// observation.
  void observe_with_exemplar(double v, std::uint64_t exemplar) noexcept;

  /// Last exemplar recorded for bucket `i`, or 0.
  std::uint64_t exemplar(std::size_t i) const noexcept;

  const std::vector<double>& bounds() const noexcept { return bounds_; }
  std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const noexcept { return sum_.load(std::memory_order_relaxed); }

 private:
  friend class MetricsRegistry;
  std::size_t bucket_for(double v) const noexcept;
  std::vector<double> bounds_;
  std::deque<std::atomic<std::uint64_t>> buckets_;  // bounds_.size() + 1
  std::deque<std::atomic<std::uint64_t>> exemplars_;  // Parallel to buckets_.
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

/// Default latency buckets in microseconds: 0.5us .. ~8ms, log-spaced.
std::vector<double> default_latency_buckets_us();

/// A sample's identity, (producing component, logical time).
struct SampleKey {
  std::uint32_t producer = 0;
  std::uint64_t sequence = 0;
};

/// Bits of an exemplar holding the sequence; the rest hold producer + 1,
/// so every packed key is non-zero (0 means "no exemplar").
inline constexpr unsigned kExemplarSequenceBits = 40;

/// Pack a delivered sample's identity into a histogram exemplar — the key
/// of its kDeliver flight event. Exact for producers below 2^24 - 1 and
/// sequences below 2^40.
constexpr std::uint64_t pack_sample_exemplar(std::uint32_t producer,
                                             std::uint64_t sequence) noexcept {
  return ((static_cast<std::uint64_t>(producer) + 1)
          << kExemplarSequenceBits) |
         (sequence & ((std::uint64_t{1} << kExemplarSequenceBits) - 1));
}

/// Inverse of pack_sample_exemplar(); meaningless for exemplar 0.
constexpr SampleKey unpack_sample_exemplar(std::uint64_t exemplar) noexcept {
  return SampleKey{
      static_cast<std::uint32_t>((exemplar >> kExemplarSequenceBits) - 1),
      exemplar & ((std::uint64_t{1} << kExemplarSequenceBits) - 1)};
}

// --- Snapshots ---------------------------------------------------------------

struct CounterSnapshot {
  std::string name;
  Labels labels;
  std::uint64_t value = 0;
};

struct GaugeSnapshot {
  std::string name;
  Labels labels;
  double value = 0.0;
};

struct HistogramSnapshot {
  std::string name;
  Labels labels;
  std::vector<double> bounds;          ///< Upper bounds, +Inf implicit.
  std::vector<std::uint64_t> buckets;  ///< Per-bucket (non-cumulative).
  std::vector<std::uint64_t> exemplars;  ///< Per-bucket last (0 = none).
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;

  double mean() const noexcept {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }
  /// Bucket-interpolated quantile estimate, q in [0,1]. The error is
  /// bounded by the bucket width around the true value.
  double quantile(double q) const noexcept;
};

/// A point-in-time copy of every metric in a registry.
struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
  // The finders return pointers into this snapshot, so they only exist
  // on lvalues: a lookup into a temporary (`graph.metrics().find_...`)
  // would dangle and does not compile.

  /// First counter with this name (any labels), or nullptr.
  const CounterSnapshot* find_counter(std::string_view name) const& noexcept;
  /// Counter with this name and a label equal to (key, value), or nullptr.
  const CounterSnapshot* find_counter(std::string_view name,
                                      std::string_view key,
                                      std::string_view value) const& noexcept;
  const GaugeSnapshot* find_gauge(std::string_view name) const& noexcept;
  const GaugeSnapshot* find_gauge(std::string_view name, std::string_view key,
                                  std::string_view value) const& noexcept;
  const HistogramSnapshot* find_histogram(
      std::string_view name) const& noexcept;
  const HistogramSnapshot* find_histogram(std::string_view name,
                                          std::string_view key,
                                          std::string_view value)
      const& noexcept;

  const CounterSnapshot* find_counter(std::string_view) const&& = delete;
  const CounterSnapshot* find_counter(std::string_view, std::string_view,
                                      std::string_view) const&& = delete;
  const GaugeSnapshot* find_gauge(std::string_view) const&& = delete;
  const GaugeSnapshot* find_gauge(std::string_view, std::string_view,
                                  std::string_view) const&& = delete;
  const HistogramSnapshot* find_histogram(std::string_view) const&& = delete;
  const HistogramSnapshot* find_histogram(std::string_view, std::string_view,
                                          std::string_view) const&& = delete;
};

// --- Registry ----------------------------------------------------------------

/// Owner of all metrics of one observed subsystem (typically one
/// ProcessingGraph). Creation and snapshotting lock; increments do not.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Find-or-create. The returned pointer is valid for the registry's
  /// lifetime; repeated calls with the same (name, labels) return the same
  /// object.
  Counter* counter(const std::string& name, Labels labels = {});
  Gauge* gauge(const std::string& name, Labels labels = {});
  /// `upper_bounds` is only used on first creation; empty means
  /// default_latency_buckets_us().
  Histogram* histogram(const std::string& name, Labels labels = {},
                       std::vector<double> upper_bounds = {});

  MetricsSnapshot snapshot() const;

 private:
  struct Key {
    std::string name;
    Labels labels;
    bool operator<(const Key& o) const noexcept {
      if (name != o.name) return name < o.name;
      return labels < o.labels;
    }
  };

  mutable std::mutex mutex_;
  std::map<Key, Counter*> counter_index_;
  std::map<Key, Gauge*> gauge_index_;
  std::map<Key, Histogram*> histogram_index_;
  std::deque<Counter> counters_;
  std::deque<Gauge> gauges_;
  std::deque<Histogram> histograms_;
};

// --- Exporters ---------------------------------------------------------------

/// Prometheus text exposition format (counters get a _total-preserving
/// name as given; histograms expand to _bucket/_sum/_count series).
std::string to_prometheus_text(const MetricsSnapshot& snapshot);

/// JSON object: {"counters":[...],"gauges":[...],"histograms":[...]}.
std::string to_json(const MetricsSnapshot& snapshot);

/// Escape a string for embedding in a JSON or Prometheus label value.
std::string escape_json(std::string_view s);

// --- Configuration -----------------------------------------------------------

/// What an observed graph records. All knobs independent so the overhead
/// can be dialled: `metrics` alone costs a few relaxed atomic increments
/// per sample; `timing` adds two steady_clock reads per hook/on_input;
/// `latency` stamps wall-clock ingest time on root emissions and observes
/// end-to-end ingest→sink latency (with SLO deadline-miss counting when
/// latency_slo_us > 0), each observation's exemplar naming the delivered
/// sample; `recording` attaches a flight recorder ring of recent
/// structured events — every emit and deliver among them, which is the
/// graph's flow trace (FlightRecorder::dump_chrome_trace). Metrics and
/// recording keep the lean delivery path; timing and latency take the
/// instrumented one.
struct ObservabilityConfig {
  bool metrics = true;
  bool timing = true;
  bool latency = false;
  bool recording = false;
  double latency_slo_us = 0.0;        ///< 0 = no deadline accounting.
  std::size_t recorder_capacity = 1024;  ///< Flight events retained per lane.
};

}  // namespace perpos::obs
