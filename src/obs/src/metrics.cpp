#include "perpos/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace perpos::obs {

// --- Histogram ---------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.resize(bounds_.size() + 1);  // atomics value-initialize to 0
  exemplars_.resize(bounds_.size() + 1);
}

std::size_t Histogram::bucket_for(double v) const noexcept {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  return i;
}

void Histogram::observe_with_exemplar(double v,
                                      std::uint64_t exemplar) noexcept {
  if (exemplar != 0) {
    exemplars_[bucket_for(v)].store(exemplar, std::memory_order_relaxed);
  }
  observe(v);
}

std::uint64_t Histogram::exemplar(std::size_t i) const noexcept {
  return i < exemplars_.size()
             ? exemplars_[i].load(std::memory_order_relaxed)
             : 0;
}

void Histogram::observe(double v) noexcept {
  const std::size_t i = bucket_for(v);
  buckets_[i].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  // Relaxed CAS loops; the graph dispatch is single-threaded so these
  // almost never retry, but remain correct if observers run concurrently.
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + v,
                                     std::memory_order_relaxed)) {
  }
  if (count_.load(std::memory_order_relaxed) == 1) {
    min_.store(v, std::memory_order_relaxed);
    max_.store(v, std::memory_order_relaxed);
    return;
  }
  double lo = min_.load(std::memory_order_relaxed);
  while (v < lo &&
         !min_.compare_exchange_weak(lo, v, std::memory_order_relaxed)) {
  }
  double hi = max_.load(std::memory_order_relaxed);
  while (v > hi &&
         !max_.compare_exchange_weak(hi, v, std::memory_order_relaxed)) {
  }
}

std::vector<double> default_latency_buckets_us() {
  return {0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 4000, 8000};
}

// --- Snapshots ---------------------------------------------------------------

double HistogramSnapshot::quantile(double q) const noexcept {
  if (count == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const std::uint64_t next = cumulative + buckets[i];
    if (static_cast<double>(next) >= target && buckets[i] > 0) {
      // Interpolate within the bucket [lower, upper].
      const double lower = i == 0 ? std::min(min, bounds.empty() ? min : bounds[0])
                                  : bounds[i - 1];
      const double upper = i < bounds.size() ? bounds[i] : max;
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(buckets[i]);
      const double lo = std::max(lower, min);
      const double hi = std::min(std::max(upper, lo), max);
      return lo + frac * (hi - lo);
    }
    cumulative = next;
  }
  return max;
}

namespace {

template <typename Vec>
typename Vec::const_pointer find_by_name(const Vec& v, std::string_view name) {
  for (const auto& m : v) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

template <typename Vec>
typename Vec::const_pointer find_by_label(const Vec& v, std::string_view name,
                                          std::string_view key,
                                          std::string_view value) {
  for (const auto& m : v) {
    if (m.name != name) continue;
    for (const auto& [k, val] : m.labels) {
      if (k == key && val == value) return &m;
    }
  }
  return nullptr;
}

}  // namespace

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name) const& noexcept {
  return find_by_name(counters, name);
}

const CounterSnapshot* MetricsSnapshot::find_counter(
    std::string_view name, std::string_view key,
    std::string_view value) const& noexcept {
  return find_by_label(counters, name, key, value);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(
    std::string_view name) const& noexcept {
  return find_by_name(gauges, name);
}

const GaugeSnapshot* MetricsSnapshot::find_gauge(
    std::string_view name, std::string_view key,
    std::string_view value) const& noexcept {
  return find_by_label(gauges, name, key, value);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name) const& noexcept {
  return find_by_name(histograms, name);
}

const HistogramSnapshot* MetricsSnapshot::find_histogram(
    std::string_view name, std::string_view key,
    std::string_view value) const& noexcept {
  return find_by_label(histograms, name, key, value);
}

// --- Scrape-time collectors -------------------------------------------------

struct CollectorSet::State {
  struct Entry {
    std::uint64_t id = 0;
    Collector collect;
    /// Counter values at the last rebase(), by (name, labels).
    std::map<std::pair<std::string, Labels>, std::uint64_t> baseline;
  };
  std::mutex mutex;
  std::vector<Entry> entries;
  std::uint64_t next_id = 0;
};

CollectorSet::CollectorSet() : state_(std::make_shared<State>()) {}

CollectorHandle CollectorSet::add(Collector collector) {
  std::uint64_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(state_->mutex);
    id = state_->next_id++;
    state_->entries.push_back({id, std::move(collector), {}});
  }
  // The handle owns one Registration, whose destructor unregisters.
  struct Registration {
    std::weak_ptr<State> state;
    std::uint64_t id;
    ~Registration() {
      const std::shared_ptr<State> live = state.lock();
      if (live == nullptr) return;
      const std::lock_guard<std::mutex> lock(live->mutex);
      std::erase_if(live->entries,
                    [this](const State::Entry& e) { return e.id == id; });
    }
  };
  return std::make_shared<Registration>(state_, id);
}

void CollectorSet::collect(MetricsSnapshot& out) const {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  for (const State::Entry& entry : state_->entries) {
    const std::size_t first = out.counters.size();
    entry.collect(out);
    if (entry.baseline.empty()) continue;
    for (std::size_t i = first; i < out.counters.size(); ++i) {
      CounterSnapshot& c = out.counters[i];
      const auto it = entry.baseline.find({c.name, c.labels});
      if (it != entry.baseline.end()) c.value -= std::min(c.value, it->second);
    }
  }
}

void CollectorSet::rebase() {
  const std::lock_guard<std::mutex> lock(state_->mutex);
  for (State::Entry& entry : state_->entries) {
    MetricsSnapshot now;
    entry.collect(now);
    entry.baseline.clear();
    for (CounterSnapshot& c : now.counters) {
      entry.baseline[{std::move(c.name), std::move(c.labels)}] = c.value;
    }
  }
}

// --- Registry ----------------------------------------------------------------

MetricsRegistry::MetricsRegistry()
    : serial_([] {
        static std::atomic<std::uint64_t> next{1};
        return next.fetch_add(1, std::memory_order_relaxed);
      }()) {}

Counter* MetricsRegistry::counter(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::lock_guard<std::mutex> lock(mutex_);
  Key key{name, std::move(labels)};
  if (const auto it = counter_index_.find(key); it != counter_index_.end()) {
    return it->second;
  }
  counters_.emplace_back();
  Counter* c = &counters_.back();
  counter_index_.emplace(std::move(key), c);
  return c;
}

Gauge* MetricsRegistry::gauge(const std::string& name, Labels labels) {
  std::sort(labels.begin(), labels.end());
  const std::lock_guard<std::mutex> lock(mutex_);
  Key key{name, std::move(labels)};
  if (const auto it = gauge_index_.find(key); it != gauge_index_.end()) {
    return it->second;
  }
  gauges_.emplace_back();
  Gauge* g = &gauges_.back();
  gauge_index_.emplace(std::move(key), g);
  return g;
}

Histogram* MetricsRegistry::histogram(const std::string& name, Labels labels,
                                      std::vector<double> upper_bounds) {
  std::sort(labels.begin(), labels.end());
  const std::lock_guard<std::mutex> lock(mutex_);
  Key key{name, std::move(labels)};
  if (const auto it = histogram_index_.find(key);
      it != histogram_index_.end()) {
    return it->second;
  }
  if (upper_bounds.empty()) upper_bounds = default_latency_buckets_us();
  histograms_.emplace_back(std::move(upper_bounds));
  Histogram* h = &histograms_.back();
  histogram_index_.emplace(std::move(key), h);
  return h;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out = copy_metrics();
  collectors_.collect(out);
  return out;
}

MetricsSnapshot MetricsRegistry::copy_metrics() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  MetricsSnapshot out;
  out.counters.reserve(counter_index_.size());
  for (const auto& [key, c] : counter_index_) {
    out.counters.push_back(CounterSnapshot{key.name, key.labels, c->value()});
  }
  out.gauges.reserve(gauge_index_.size());
  for (const auto& [key, g] : gauge_index_) {
    out.gauges.push_back(GaugeSnapshot{key.name, key.labels, g->value()});
  }
  out.histograms.reserve(histogram_index_.size());
  for (const auto& [key, h] : histogram_index_) {
    HistogramSnapshot s;
    s.name = key.name;
    s.labels = key.labels;
    s.bounds = h->bounds_;
    s.buckets.reserve(h->buckets_.size());
    for (const auto& b : h->buckets_) {
      s.buckets.push_back(b.load(std::memory_order_relaxed));
    }
    s.exemplars.reserve(h->exemplars_.size());
    for (const auto& e : h->exemplars_) {
      s.exemplars.push_back(e.load(std::memory_order_relaxed));
    }
    s.count = h->count();
    s.sum = h->sum();
    s.min = h->min_.load(std::memory_order_relaxed);
    s.max = h->max_.load(std::memory_order_relaxed);
    out.histograms.push_back(std::move(s));
  }
  return out;
}

// --- Exporters ---------------------------------------------------------------

std::string escape_json(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string label_block(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += k + "=\"" + escape_json(v) + "\"";
  }
  out += "}";
  return out;
}

std::string labels_json(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ",";
    first = false;
    out += "\"" + escape_json(k) + "\":\"" + escape_json(v) + "\"";
  }
  return out + "}";
}

std::string fmt_double(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

/// `rows` grouped by family: the text format wants one # TYPE line per
/// name and every series of a family together, and a collector may append
/// series to a family the registry already exported. Families come in name
/// order, series in snapshot order.
template <typename Row>
std::vector<const Row*> by_family(const std::vector<Row>& rows) {
  std::vector<const Row*> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(&row);
  std::stable_sort(out.begin(), out.end(), [](const Row* a, const Row* b) {
    return a->name < b->name;
  });
  return out;
}

/// Writes the # TYPE line when `name` starts a new family.
void type_line(std::ostringstream& out, std::string& family,
               const std::string& name, const char* type) {
  if (name == family) return;
  family = name;
  out << "# TYPE " << name << " " << type << "\n";
}

}  // namespace

std::string to_prometheus_text(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  std::string family;
  for (const CounterSnapshot* c : by_family(snapshot.counters)) {
    type_line(out, family, c->name, "counter");
    out << c->name << label_block(c->labels) << " " << c->value << "\n";
  }
  family.clear();
  for (const GaugeSnapshot* g : by_family(snapshot.gauges)) {
    type_line(out, family, g->name, "gauge");
    out << g->name << label_block(g->labels) << " " << fmt_double(g->value)
        << "\n";
  }
  family.clear();
  for (const HistogramSnapshot* h : by_family(snapshot.histograms)) {
    type_line(out, family, h->name, "histogram");
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h->buckets.size(); ++i) {
      cumulative += h->buckets[i];
      Labels with_le = h->labels;
      with_le.emplace_back(
          "le", i < h->bounds.size() ? fmt_double(h->bounds[i]) : "+Inf");
      out << h->name << "_bucket" << label_block(with_le) << " "
          << cumulative << "\n";
    }
    out << h->name << "_sum" << label_block(h->labels) << " "
        << fmt_double(h->sum) << "\n";
    out << h->name << "_count" << label_block(h->labels) << " " << h->count
        << "\n";
  }
  return out.str();
}

std::string to_json(const MetricsSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"counters\":[";
  for (std::size_t i = 0; i < snapshot.counters.size(); ++i) {
    const auto& c = snapshot.counters[i];
    if (i) out << ",";
    out << "{\"name\":\"" << escape_json(c.name)
        << "\",\"labels\":" << labels_json(c.labels) << ",\"value\":" << c.value
        << "}";
  }
  out << "],\"gauges\":[";
  for (std::size_t i = 0; i < snapshot.gauges.size(); ++i) {
    const auto& g = snapshot.gauges[i];
    if (i) out << ",";
    out << "{\"name\":\"" << escape_json(g.name)
        << "\",\"labels\":" << labels_json(g.labels)
        << ",\"value\":" << fmt_double(g.value) << "}";
  }
  out << "],\"histograms\":[";
  for (std::size_t i = 0; i < snapshot.histograms.size(); ++i) {
    const auto& h = snapshot.histograms[i];
    if (i) out << ",";
    out << "{\"name\":\"" << escape_json(h.name)
        << "\",\"labels\":" << labels_json(h.labels) << ",\"bounds\":[";
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b) out << ",";
      out << fmt_double(h.bounds[b]);
    }
    out << "],\"buckets\":[";
    for (std::size_t b = 0; b < h.buckets.size(); ++b) {
      if (b) out << ",";
      out << h.buckets[b];
    }
    out << "]";
    bool any_exemplar = false;
    for (const std::uint64_t e : h.exemplars) any_exemplar |= e != 0;
    if (any_exemplar) {
      out << ",\"exemplars\":[";
      for (std::size_t b = 0; b < h.exemplars.size(); ++b) {
        if (b) out << ",";
        out << h.exemplars[b];
      }
      out << "]";
    }
    out << ",\"count\":" << h.count << ",\"sum\":" << fmt_double(h.sum)
        << ",\"min\":" << fmt_double(h.min) << ",\"max\":" << fmt_double(h.max)
        << ",\"p50\":" << fmt_double(h.quantile(0.50))
        << ",\"p95\":" << fmt_double(h.quantile(0.95)) << "}";
  }
  out << "]}";
  return out.str();
}

}  // namespace perpos::obs
