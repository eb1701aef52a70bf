#include "perpos/core/graph.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <map>
#include <mutex>
#include <stdexcept>

namespace perpos::core {

struct ProcessingGraph::Entry {
  // Dispatch-hot fields first: the accept check, provenance recording and
  // on_input call of a delivery touch only these.
  std::shared_ptr<ProcessingComponent> component;

  /// Input requirements compiled to interned origin symbols, cached at
  /// add() — the per-delivery accept check is two integer compares per
  /// requirement, and input_requirements() (which returns a fresh vector)
  /// is never called on the hot path. Components must keep their
  /// requirements stable while attached (see ProcessingComponent).
  struct CompiledRequirement {
    const TypeInfo* type = nullptr;
    OriginId origin = kComponentOrigin;
    bool any_type = false;
  };
  std::vector<CompiledRequirement> compiled_requirements;
  std::vector<ComponentId> consumers;
  std::vector<std::shared_ptr<ComponentFeature>> features;
  /// Cached `!output_capabilities().empty()` — only emit-capable
  /// components record pending inputs (pure sinks would accumulate them
  /// forever).
  bool records_provenance = false;
  bool live = false;

  /// Inputs accepted since the last emission, at most kMaxPendingInputs;
  /// becomes the provenance of the next emitted sample (Fig. 4 time
  /// ranges).
  std::vector<Sample> pending_inputs;
  /// The input currently being processed by on_input (nesting-safe via
  /// save/restore in invoke_on_input()); used as fallback provenance when a
  /// second emission happens after pending_inputs was consumed.
  const Sample* current_input = nullptr;
  std::uint64_t sequence = 0;  ///< Logical time of the output port.

  // The component's event counts: written only by the dispatching thread,
  // read by the metrics collector from any thread at scrape time.
  obs::Tally emitted;
  obs::Tally delivered;       ///< Accepted and past the consume hooks.
  obs::Tally rejected;        ///< Refused by the input requirements.
  obs::Tally produce_vetoed;  ///< Dropped by one of its produce hooks.
  obs::Tally consume_vetoed;  ///< Dropped by one of its consume hooks.
  obs::Tally evicted;         ///< Pending inputs evicted at the cap.

  std::vector<ComponentId> producers;
  /// component->kind(), cached at add() and replace(): the metrics label,
  /// which outlives the component's removal.
  std::string kind;
  /// Failure events reported against this component. Last, so the hot
  /// fields above keep their offsets; a read-modify-write because reports
  /// come from scheduler timers as well as from the dispatching lane.
  obs::Counter failures;
};

namespace {

double now_wall_us() noexcept {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// What() of the in-flight exception; only callable inside a catch block.
std::string current_exception_message() {
  try {
    throw;
  } catch (const std::exception& ex) {
    return ex.what();
  } catch (...) {
    return "unknown exception";
  }
}

/// An edge is realizable when some capability satisfies some requirement.
bool realizable(const std::vector<DataSpec>& caps,
                const std::vector<InputRequirement>& reqs) {
  for (const DataSpec& cap : caps) {
    for (const InputRequirement& r : reqs) {
      if (r.accepts(cap.type, cap.feature_tag)) return true;
    }
  }
  return false;
}

}  // namespace

/// enable_observability's state — the config, the registry and the flight
/// recorder `recording` owns — and the observer behind it. With `metrics`
/// on it registers one scrape-time collector that turns the graph's own
/// per-component counts into series and then runs the graph's metrics
/// sources (add_metrics_source); it never counts a dispatch event itself.
/// Its dispatch events are the hook / on_input wall-time histograms
/// (`timing`) and end-to-end latency (`latency`); their handles resolve on
/// first use, so the hot path never looks a metric up.
class ProcessingGraph::MetricsObserver final : public GraphObserver {
 public:
  explicit MetricsObserver(ProcessingGraph& graph) : graph_(graph) {}

  /// Adopt `cfg` and return the events it needs. Every cached handle is
  /// dropped: a new config can change which handles exist. Switching
  /// `metrics` on starts the counts from zero; switching it off drops them.
  unsigned configure(const obs::ObservabilityConfig& cfg) {
    config = cfg;
    components_.clear();
    features_.clear();
    if (!cfg.recording) {
      recorder.reset();
    } else if (!recorder) {
      recorder = std::make_unique<obs::FlightRecorder>(cfg.recorder_capacity);
      lane = recorder->add_lane("graph");
    }
    if (!cfg.metrics) {
      collector_.reset();
    } else if (!collector_) {
      start_counting();
    }
    return (cfg.latency ? kDispatch | kIngestTime : 0u) |
           (cfg.timing ? kTiming : 0u);
  }

  obs::ObservabilityConfig config;
  obs::MetricsRegistry registry;
  std::unique_ptr<obs::FlightRecorder> recorder;  ///< config.recording's.
  std::uint32_t lane = 0;

  void on_mutation(const GraphMutation& m) override {
    // A new implementation or feature set changes the labels: re-resolve.
    if (m.kind == GraphMutation::Kind::kReplace ||
        m.kind == GraphMutation::Kind::kFeatureDetach) {
      if (m.a < components_.size()) components_[m.a] = Handles{};
      features_.erase(features_.lower_bound({m.a, nullptr}),
                      features_.lower_bound({m.a + 1, nullptr}));
    }
    if (!collector_ || !m.structural()) return;
    const std::lock_guard<std::mutex> lock(census_mutex_);
    if (m.kind == GraphMutation::Kind::kAdd) track(m.a);
    if (m.kind == GraphMutation::Kind::kReplace) relabel(m.a);
    live_ = graph_.live_count_;
  }

  void on_deliver(const Sample& sample, ComponentId consumer) override {
    // End-to-end latency is observed when the sample arrives at a sink:
    // ingest→sink covers every upstream hop but not the sink's own
    // on_input (that is what on_input_us measures). The exemplar is the
    // delivered sample's identity — the key of its kDeliver flight event.
    if (sample.ingest_us == 0.0 ||
        !graph_.entries_[consumer]->consumers.empty()) {
      return;
    }
    const Handles& h = handles(consumer);
    const double e2e = now_wall_us() - sample.ingest_us;
    h.e2e_latency_us->observe_with_exemplar(
        e2e, obs::pack_sample_exemplar(sample.producer, sample.sequence));
    if (h.deadline_miss != nullptr && e2e > config.latency_slo_us) {
      h.deadline_miss->inc();
    }
  }

  void on_input_time(ComponentId consumer, double us) override {
    handles(consumer).on_input_us->observe(us);
  }

  void on_hook_time(ComponentId host, const ComponentFeature& feature,
                    bool produce, double us) override {
    auto [it, inserted] = features_.try_emplace({host, &feature});
    if (inserted) {
      const obs::Labels labels{{"component", std::to_string(host)},
                               {"kind", graph_.entries_[host]->kind},
                               {"feature", std::string(feature.name())}};
      it->second = {registry.histogram("perpos_feature_produce_us", labels),
                    registry.histogram("perpos_feature_consume_us", labels)};
    }
    (produce ? it->second.first : it->second.second)->observe(us);
  }

 private:
  /// A component's Entry counts, in kCountNames order.
  using Counts = std::array<std::uint64_t, 6>;
  static constexpr const char* kCountNames[6] = {
      "perpos_component_emitted_total",
      "perpos_component_delivered_total",
      "perpos_component_rejected_total",
      "perpos_component_produce_vetoed_total",
      "perpos_component_consume_vetoed_total",
      "perpos_provenance_evicted_total"};  // Only for components that evict.
  using Series = std::map<std::pair<ComponentId, std::string>, Counts>;

  /// `to` += `sign` * `e`'s counts, in wrapping unsigned arithmetic.
  static void add(Counts& to, const Entry& e, std::uint64_t sign) noexcept {
    const Counts n = {e.emitted.get(),        e.delivered.get(),
                      e.rejected.get(),       e.produce_vetoed.get(),
                      e.consume_vetoed.get(), e.evicted.get()};
    for (std::size_t i = 0; i < n.size(); ++i) to[i] += sign * n[i];
  }

  /// Count `id` from now on under its current kind.
  void track(ComponentId id) {
    const Entry& e = *graph_.entries_[id];
    tracked_.emplace_back(&e, e.kind);  // Ids arrive in order.
    add(offsets_[{id, e.kind}], e, -1);
  }

  /// After a replace(): a new kind ends the old kind's series and starts
  /// the new one from zero.
  void relabel(ComponentId id) {
    auto& [entry, kind] = tracked_[id];
    if (kind == entry->kind) return;
    add(offsets_[{id, kind}], *entry, 1);
    kind = entry->kind;
    add(offsets_[{id, kind}], *entry, -1);
  }

  void start_counting() {
    {
      const std::lock_guard<std::mutex> lock(census_mutex_);
      tracked_.clear();
      offsets_.clear();
      for (ComponentId id = 0; id < graph_.entries_.size(); ++id) track(id);
      revision_base_ = graph_.revision_.get();
      live_ = graph_.live_count_;
    }
    graph_.metrics_sources_.rebase();
    collector_ = registry.add_collector([this](obs::MetricsSnapshot& out) {
      collect(out);
      graph_.metrics_sources_.collect(out);
    });
  }

  /// Scrape time, any thread: one series per (component, kind) that
  /// counted anything, then the graph-wide totals.
  void collect(obs::MetricsSnapshot& out) {
    const std::lock_guard<std::mutex> lock(census_mutex_);
    Series series = offsets_;
    for (ComponentId id = 0; id < tracked_.size(); ++id) {
      add(series[{id, tracked_[id].second}], *tracked_[id].first, 1);
    }
    std::uint64_t delivered = 0;
    std::uint64_t rejected = 0;
    for (const auto& [key, n] : series) {
      delivered += n[1];  // kCountNames order.
      rejected += n[2];
      if (n == Counts{}) continue;
      const obs::Labels labels{{"component", std::to_string(key.first)},
                               {"kind", key.second}};
      for (std::size_t i = 0; i < n.size(); ++i) {
        if (i + 1 < n.size() || n[i] != 0) {
          out.counters.push_back({kCountNames[i], labels, n[i]});
        }
      }
    }
    out.counters.push_back({"perpos_graph_deliveries_total", {}, delivered});
    out.counters.push_back({"perpos_graph_rejections_total", {}, rejected});
    out.counters.push_back(
        {"perpos_graph_mutations_total", {},
         graph_.revision_.get() - revision_base_});
    out.gauges.push_back(
        {"perpos_graph_components", {}, static_cast<double>(live_)});
  }

  /// One component's histogram handles; all null until resolved.
  struct Handles {
    obs::Histogram* on_input_us = nullptr;
    obs::Histogram* e2e_latency_us = nullptr;
    obs::Counter* deadline_miss = nullptr;
  };

  Handles& handles(ComponentId id) {
    if (id >= components_.size()) components_.resize(id + 1);
    Handles& h = components_[id];
    // Called only with timing or latency on, so one of them resolves.
    if (h.on_input_us != nullptr || h.e2e_latency_us != nullptr) return h;
    const obs::Labels labels{{"component", std::to_string(id)},
                             {"kind", graph_.entries_[id]->kind}};
    // Histograms only for the knobs that observe them, so exports carry no
    // empty series.
    if (config.timing) {
      h.on_input_us =
          registry.histogram("perpos_component_on_input_us", labels);
    }
    if (config.latency) {
      h.e2e_latency_us = registry.histogram("perpos_e2e_latency_us", labels);
      if (config.latency_slo_us > 0.0) {
        h.deadline_miss =
            registry.counter("perpos_e2e_deadline_miss_total", labels);
      }
    }
    return h;
  }

  ProcessingGraph& graph_;
  std::vector<Handles> components_;  ///< By component id.
  /// Per-feature hook histograms (produce, consume), by (host, feature).
  std::map<std::pair<ComponentId, const ComponentFeature*>,
           std::pair<obs::Histogram*, obs::Histogram*>>
      features_;

  /// Guards what the collector reads besides the Tallies: written on the
  /// graph's thread at mutations, read by a scrape on any thread.
  std::mutex census_mutex_;
  /// By component id: its entry and the kind its counts go to.
  std::vector<std::pair<const Entry*, std::string>> tracked_;
  /// Per series, the counts at the end of each of its stretches less those
  /// at their start; a tracked stretch ends at scrape time.
  Series offsets_;
  std::uint64_t revision_base_ = 0;  ///< The graph's revision at the start.
  std::size_t live_ = 0;
  /// Released first (declared last), so no scrape outlives the census.
  obs::MetricsRegistry::CollectorHandle collector_;
};

/// Feeds the graph's flight events — emit, deliver, mutation, on_input
/// failure, provenance eviction — into one recorder ring: the one
/// set_flight_recorder attached, else the one `recording` owns.
class ProcessingGraph::FlightFeed final : public GraphObserver {
 public:
  obs::FlightRecorder* recorder = nullptr;
  std::uint32_t lane = 0;
  std::uint32_t tag = 0;
  bool external = false;  ///< Attached by set_flight_recorder.

  void record(obs::FlightEventType type, std::uint32_t component,
              std::uint64_t a = 0, std::uint64_t b = 0,
              std::string_view detail = {}) noexcept {
    obs::FlightEvent event{
        .a = a, .b = b, .graph = tag, .component = component, .type = type};
    if (!detail.empty()) event.set_detail(detail);
    recorder->record(lane, event);
  }

  void on_mutation(const GraphMutation& m) override {
    if (!m.structural()) return;
    record(obs::FlightEventType::kMutation, m.a,
           static_cast<std::uint64_t>(m.kind), m.b);
  }
  void on_emit(const Sample& sample) override {
    record(obs::FlightEventType::kEmit, sample.producer, sample.sequence);
  }
  void on_deliver(const Sample& sample, ComponentId consumer) override {
    record(obs::FlightEventType::kDeliver, consumer, sample.producer,
           sample.sequence);
  }
  void on_input_failed(ComponentId consumer, ComponentId producer,
                       std::uint64_t sequence, std::string_view what) override {
    record(obs::FlightEventType::kTaskFailed, consumer, producer, sequence,
           what);
  }
  void on_evict(ComponentId consumer, std::size_t evicted) override {
    record(obs::FlightEventType::kMark, consumer, evicted, 0,
           "provenance.evict");
  }
};

// Out of line: the walk stays off the dispatch fast path's code.
template <typename Call>
[[gnu::noinline]] void ProcessingGraph::notify(unsigned events,
                                               const Call& call) {
  // Walk by index up to the count captured at entry: observers may add
  // observers (not called for this event — the vector may reallocate, so
  // no iterator survives) or remove them (tombstoned by remove_observer,
  // skipped here).
  struct Level {
    ProcessingGraph& g;
    explicit Level(ProcessingGraph& graph) : g(graph) { ++g.notify_depth_; }
    ~Level() {
      if (--g.notify_depth_ == 0 && g.observers_tombstoned_) {
        g.compact_observers();
      }
    }
  } level(*this);
  const std::size_t count = observers_.size();
  for (std::size_t i = 0; i < count; ++i) {
    const ObserverSlot slot = observers_[i];
    if (slot.observer != nullptr && (slot.events & events) == events) {
      call(*slot.observer);
    }
  }
}

template <typename Call>
void ProcessingGraph::observe(const Call& call) {
  if ((observed_ & GraphObserver::kDispatch) != 0) {
    notify(GraphObserver::kDispatch, call);
  }
}

void ProcessingGraph::add_observer(GraphObserver& observer, unsigned events) {
  if (has_observer(observer)) {
    throw std::invalid_argument("add_observer: already registered");
  }
  observers_.push_back(ObserverSlot{&observer, events});
  observed_ |= events;
}

void ProcessingGraph::remove_observer(GraphObserver& observer) noexcept {
  for (ObserverSlot& slot : observers_) {
    if (slot.observer == &observer) slot.observer = nullptr;
  }
  observers_tombstoned_ = true;
  if (notify_depth_ == 0) compact_observers();
}

bool ProcessingGraph::has_observer(
    const GraphObserver& observer) const noexcept {
  return std::any_of(
      observers_.begin(), observers_.end(),
      [&](const ObserverSlot& s) { return s.observer == &observer; });
}

void ProcessingGraph::compact_observers() noexcept {
  std::erase_if(observers_,
                [](const ObserverSlot& s) { return s.observer == nullptr; });
  observers_tombstoned_ = false;
  observed_ = GraphObserver::kMutations;
  for (const ObserverSlot& slot : observers_) observed_ |= slot.events;
}

void ProcessingGraph::notify_mutation(const GraphMutation& mutation) {
  notify(GraphObserver::kMutations,
         [&](GraphObserver& o) { o.on_mutation(mutation); });
}

ProcessingGraph::ProcessingGraph(const sim::Clock* clock)
    : pool_(new ProvenancePool), clock_(clock) {}

ProcessingGraph::~ProcessingGraph() {
  // Graph teardown: give every live component a chance to flush buffered
  // data while all entries (and thus all consumers) are still intact.
  // Destructors must not throw, so teardown failures are swallowed.
  for (const auto& e : entries_) {
    if (e == nullptr || !e->live) continue;
    try {
      e->component->on_teardown();
    } catch (...) {
    }
  }
}

void ProcessingGraph::enable_observability(obs::ObservabilityConfig config) {
  check_not_dispatching("enable_observability");
  if (metrics_) {
    remove_observer(*metrics_);
  } else {
    metrics_ = std::make_unique<MetricsObserver>(*this);
  }
  // Metrics accumulated so far stay in the registry.
  add_observer(*metrics_, metrics_->configure(config));
  if (!flight_ || !flight_->external) set_flight_recorder(nullptr, 0);
}

void ProcessingGraph::disable_observability() {
  check_not_dispatching("disable_observability");
  if (!metrics_) return;
  remove_observer(*metrics_);
  const std::unique_ptr<MetricsObserver> dropped = std::move(metrics_);
  if (!flight_->external) set_flight_recorder(nullptr, 0);
}

void ProcessingGraph::set_flight_recorder(obs::FlightRecorder* recorder,
                                          std::uint32_t lane,
                                          std::uint32_t graph_tag) noexcept {
  if (!flight_) flight_ = std::make_unique<FlightFeed>();
  flight_->external = recorder != nullptr;
  if (recorder != nullptr) {
    flight_->tag = graph_tag;
  } else if (metrics_) {  // Revert to the recorder `recording` owns.
    recorder = metrics_->recorder.get();
    lane = metrics_->lane;
  }
  if (recorder == nullptr) {
    remove_observer(*flight_);
  } else if (flight_->recorder == nullptr) {
    add_observer(*flight_, GraphObserver::kDispatch);
  }
  flight_->recorder = recorder;
  flight_->lane = lane;
}

obs::FlightRecorder* ProcessingGraph::flight_recorder() const noexcept {
  return flight_ ? flight_->recorder : nullptr;
}

void ProcessingGraph::record_event(obs::FlightEventType type,
                                   std::uint32_t component, std::uint64_t a,
                                   std::uint64_t b,
                                   std::string_view detail) noexcept {
  if (flight_ && flight_->recorder != nullptr) {
    flight_->record(type, component, a, b, detail);
  }
}

bool ProcessingGraph::observability_enabled() const noexcept {
  return metrics_ != nullptr;
}

const obs::ObservabilityConfig* ProcessingGraph::observability_config()
    const noexcept {
  return metrics_ ? &metrics_->config : nullptr;
}

obs::MetricsRegistry* ProcessingGraph::metrics_registry() const noexcept {
  return metrics_ ? &metrics_->registry : nullptr;
}

std::uint64_t ProcessingGraph::deliveries() const noexcept {
  std::uint64_t n = 0;
  for (const auto& e : entries_) n += e->delivered.get();
  return n;
}

std::uint64_t ProcessingGraph::emitted(ComponentId id) const {
  return entry(id).emitted.get();
}

std::uint64_t ProcessingGraph::failures(ComponentId id) const {
  return entry(id).failures.value();
}

void ProcessingGraph::count_failure(ComponentId id) noexcept {
  if (id < entries_.size()) entries_[id]->failures.inc();
}

obs::CollectorHandle ProcessingGraph::add_metrics_source(
    obs::Collector source) {
  return metrics_sources_.add(std::move(source));
}

obs::MetricsSnapshot ProcessingGraph::metrics() const {
  return metrics_ ? metrics_->registry.snapshot() : obs::MetricsSnapshot{};
}

ProcessingGraph::Entry& ProcessingGraph::entry(ComponentId id) {
  if (!has(id)) throw std::invalid_argument("unknown component id");
  return *entries_[id];
}

const ProcessingGraph::Entry& ProcessingGraph::entry(ComponentId id) const {
  if (!has(id)) throw std::invalid_argument("unknown component id");
  return *entries_[id];
}

bool ProcessingGraph::has(ComponentId id) const noexcept {
  return id < entries_.size() && entries_[id] != nullptr &&
         entries_[id]->live;
}

void ProcessingGraph::check_not_dispatching(const char* op) const {
  if (dispatching_) {
    throw std::logic_error(std::string("ProcessingGraph::") + op +
                           ": structural mutation during dispatch");
  }
}

ComponentId ProcessingGraph::add(
    std::shared_ptr<ProcessingComponent> component) {
  check_not_dispatching("add");
  if (!component) throw std::invalid_argument("null component");
  if (component->context().attached()) {
    throw std::invalid_argument("component already attached to a graph");
  }
  const auto id = static_cast<ComponentId>(entries_.size());
  auto e = std::make_unique<Entry>();
  e->component = std::move(component);
  e->kind = std::string(e->component->kind());
  e->live = true;
  e->component->context_ = ComponentContext(this, id);
  // Compile the hot-path caches once. Requirements and capabilities must
  // stay stable while the component is attached (they already had to be:
  // connect() realizability is judged against them).
  for (const InputRequirement& r : e->component->input_requirements()) {
    e->compiled_requirements.push_back(Entry::CompiledRequirement{
        r.type, intern_origin(r.feature_tag), r.any_type});
  }
  e->records_provenance = !e->component->output_capabilities().empty();
  entries_.push_back(std::move(e));
  ++live_count_;
  revision_.add();
  notify_mutation(GraphMutation{GraphMutation::Kind::kAdd, id});
  return id;
}

void ProcessingGraph::remove(ComponentId id) {
  check_not_dispatching("remove");
  // Teardown hook before any edge is cut: a component flushing buffered
  // data here still reaches its consumers.
  entry(id).component->on_teardown();
  Entry& e = entry(id);
  for (ComponentId c : e.consumers) std::erase(entries_[c]->producers, id);
  for (ComponentId p : e.producers) std::erase(entries_[p]->consumers, id);
  e.component->context_ = ComponentContext();
  for (auto& f : e.features) f->context_ = FeatureContext();
  e.live = false;
  e.component.reset();
  e.features.clear();
  --live_count_;
  revision_.add();
  notify_mutation(GraphMutation{GraphMutation::Kind::kRemove, id});
}

bool ProcessingGraph::would_cycle(ComponentId producer,
                                  ComponentId consumer) const {
  // Adding producer->consumer creates a cycle iff producer is reachable
  // from consumer.
  std::vector<ComponentId> stack{consumer};
  std::vector<bool> seen(entries_.size(), false);
  while (!stack.empty()) {
    const ComponentId n = stack.back();
    stack.pop_back();
    if (n == producer) return true;
    if (seen[n]) continue;
    seen[n] = true;
    for (ComponentId next : entries_[n]->consumers) stack.push_back(next);
  }
  return false;
}

void ProcessingGraph::connect(ComponentId producer, ComponentId consumer) {
  check_not_dispatching("connect");
  Entry& p = entry(producer);
  Entry& c = entry(consumer);
  if (producer == consumer) {
    throw std::invalid_argument("connect: self-loop");
  }
  if (std::find(p.consumers.begin(), p.consumers.end(), consumer) !=
      p.consumers.end()) {
    throw std::invalid_argument("connect: edge already exists");
  }
  // Realizability: at least one capability of the producer must satisfy a
  // requirement of the consumer (paper Sec. 2.1).
  if (!realizable(capabilities(producer), c.component->input_requirements())) {
    throw std::invalid_argument(
        "connect: no capability of '" + std::string(p.component->kind()) +
        "' satisfies a requirement of '" + std::string(c.component->kind()) +
        "'");
  }
  if (would_cycle(producer, consumer)) {
    throw std::invalid_argument("connect: edge would create a cycle");
  }
  p.consumers.push_back(consumer);
  c.producers.push_back(producer);
  revision_.add();
  notify_mutation(
      GraphMutation{GraphMutation::Kind::kConnect, producer, consumer});
}

void ProcessingGraph::disconnect(ComponentId producer, ComponentId consumer) {
  check_not_dispatching("disconnect");
  Entry& p = entry(producer);
  Entry& c = entry(consumer);
  const auto it = std::find(p.consumers.begin(), p.consumers.end(), consumer);
  if (it == p.consumers.end()) {
    throw std::invalid_argument("disconnect: edge does not exist");
  }
  p.consumers.erase(it);
  std::erase(c.producers, producer);
  revision_.add();
  notify_mutation(
      GraphMutation{GraphMutation::Kind::kDisconnect, producer, consumer});
}

void ProcessingGraph::insert_between(ComponentId node, ComponentId producer,
                                     ComponentId consumer) {
  check_not_dispatching("insert_between");
  // Validate the edge exists before mutating anything.
  const Entry& p = entry(producer);
  if (std::find(p.consumers.begin(), p.consumers.end(), consumer) ==
      p.consumers.end()) {
    throw std::invalid_argument("insert_between: edge does not exist");
  }
  disconnect(producer, consumer);
  try {
    connect(producer, node);
    connect(node, consumer);
  } catch (...) {
    // Restore the original edge on failure so the graph is unchanged.
    if (std::find(entry(producer).consumers.begin(),
                  entry(producer).consumers.end(),
                  node) != entry(producer).consumers.end()) {
      disconnect(producer, node);
    }
    connect(producer, consumer);
    throw;
  }
}

void ProcessingGraph::replace(ComponentId id,
                              std::shared_ptr<ProcessingComponent> successor,
                              ReplaceHandoff policy) {
  check_not_dispatching("replace");
  Entry& e = entry(id);
  if (!successor) throw std::invalid_argument("replace: null successor");
  if (successor->context().attached()) {
    throw std::invalid_argument(
        "replace: successor already attached to a graph");
  }
  // Validate every existing edge against the successor before anything
  // mutates. Inbound: some capability of each producer must satisfy a
  // requirement of the successor. Outbound: the successor's capabilities
  // (plus those added by the features, which stay attached) must satisfy a
  // requirement of each consumer. Same realizability rule as connect().
  const auto sreqs = successor->input_requirements();
  for (ComponentId p : e.producers) {
    if (!realizable(capabilities(p), sreqs)) {
      throw std::invalid_argument(
          "replace: no capability of '" +
          std::string(entries_[p]->component->kind()) +
          "' satisfies a requirement of successor '" +
          std::string(successor->kind()) + "'");
    }
  }
  std::vector<DataSpec> out_caps = successor->output_capabilities();
  for (const auto& f : e.features) {
    for (const TypeInfo* t : f->added_types()) {
      out_caps.push_back(DataSpec{t, std::string(f->name())});
    }
  }
  for (ComponentId c : e.consumers) {
    if (!realizable(out_caps, entries_[c]->component->input_requirements())) {
      throw std::invalid_argument(
          "replace: no capability of successor '" +
          std::string(successor->kind()) + "' satisfies a requirement of '" +
          std::string(entries_[c]->component->kind()) + "'");
    }
  }

  // State migration before any wiring changes. The teardown flush runs
  // with the victim's edges intact, so buffered data still reaches its
  // consumers; the blob is serialized *after* the flush, so a later
  // restore cannot re-materialize samples that already went downstream. A
  // throwing serialize/restore aborts here — predecessor still installed.
  if (policy != ReplaceHandoff::kNone) {
    e.component->on_teardown();
    if (policy == ReplaceHandoff::kFull) {
      successor->restore_state(e.component->serialize_state());
    }
  }

  auto old = std::move(e.component);
  e.component = std::move(successor);
  e.kind = std::string(e.component->kind());
  e.component->context_ = ComponentContext(this, id);
  old->context_ = ComponentContext();
  // Recompile the hot-path caches against the successor (observers
  // re-label on kReplace). Logical time (sequence), the event counts,
  // pending provenance and the features carry over — that continuity is
  // what makes a live cutover free of duplicated or dropped logical-time
  // slots.
  e.compiled_requirements.clear();
  for (const InputRequirement& r : e.component->input_requirements()) {
    e.compiled_requirements.push_back(Entry::CompiledRequirement{
        r.type, intern_origin(r.feature_tag), r.any_type});
  }
  e.records_provenance = !e.component->output_capabilities().empty();
  e.current_input = nullptr;
  revision_.add();
  notify_mutation(GraphMutation{GraphMutation::Kind::kReplace, id});
}

void ProcessingGraph::attach_feature(
    ComponentId host, std::shared_ptr<ComponentFeature> feature) {
  // Dispatch walks the hook chains by reference; a mid-dispatch attach
  // would invalidate the walk.
  check_not_dispatching("attach_feature");
  Entry& e = entry(host);
  if (!feature) throw std::invalid_argument("null feature");
  const std::string name(feature->name());
  if (get_feature(host, name) != nullptr) {
    throw std::invalid_argument("feature '" + name + "' already attached");
  }
  for (const std::string& dep : feature->required_features()) {
    if (get_feature(host, dep) == nullptr) {
      throw std::invalid_argument("feature '" + name +
                                  "' requires missing feature '" + dep + "'");
    }
  }
  feature->context_ = FeatureContext(this, host, name);
  e.features.push_back(std::move(feature));
  notify_mutation(GraphMutation{GraphMutation::Kind::kFeatureAttach, host});
}

void ProcessingGraph::detach_feature(ComponentId host, std::string_view name) {
  check_not_dispatching("detach_feature");
  Entry& e = entry(host);
  const auto it = std::find_if(
      e.features.begin(), e.features.end(),
      [&](const std::shared_ptr<ComponentFeature>& f) {
        return f->name() == name;
      });
  if (it == e.features.end()) {
    throw std::invalid_argument("feature '" + std::string(name) +
                                "' not attached");
  }
  (*it)->context_ = FeatureContext();
  e.features.erase(it);
  notify_mutation(GraphMutation{GraphMutation::Kind::kFeatureDetach, host});
}

ComponentFeature* ProcessingGraph::get_feature(ComponentId host,
                                               std::string_view name) const {
  for (const auto& f : features_of(host)) {
    if (f->name() == name) return f.get();
  }
  return nullptr;
}

const std::vector<std::shared_ptr<ComponentFeature>>&
ProcessingGraph::features_of(ComponentId host) const {
  return entry(host).features;
}

std::vector<ComponentId> ProcessingGraph::components() const {
  std::vector<ComponentId> out;
  out.reserve(live_count_);
  for (ComponentId id = 0; id < entries_.size(); ++id) {
    if (has(id)) out.push_back(id);
  }
  return out;
}

ComponentInfo ProcessingGraph::info(ComponentId id) const {
  const Entry& e = entry(id);
  ComponentInfo out;
  out.id = id;
  out.kind = e.kind;
  out.producers = e.producers;
  out.consumers = e.consumers;
  for (const auto& f : e.features) out.feature_names.emplace_back(f->name());
  out.capabilities = capabilities(id);
  out.emitted = e.emitted.get();
  return out;
}

ProcessingComponent& ProcessingGraph::component(ComponentId id) const {
  return *entry(id).component;
}

std::shared_ptr<ProcessingComponent> ProcessingGraph::component_ptr(
    ComponentId id) const {
  return entry(id).component;
}

std::vector<ComponentId> ProcessingGraph::sources() const {
  std::vector<ComponentId> out;
  for (ComponentId id : components()) {
    if (entry(id).producers.empty()) out.push_back(id);
  }
  return out;
}

std::vector<ComponentId> ProcessingGraph::sinks() const {
  std::vector<ComponentId> out;
  for (ComponentId id : components()) {
    if (entry(id).consumers.empty()) out.push_back(id);
  }
  return out;
}

std::vector<DataSpec> ProcessingGraph::capabilities(ComponentId id) const {
  const Entry& e = entry(id);
  std::vector<DataSpec> out = e.component->output_capabilities();
  for (const auto& f : e.features) {
    for (const TypeInfo* t : f->added_types()) {
      out.push_back(DataSpec{t, std::string(f->name())});
    }
  }
  return out;
}

void ProcessingGraph::stamp_provenance(Entry& e, Sample& sample) {
  // Provenance: everything consumed since the previous emission; when that
  // was already claimed by an earlier emission in the same on_input call,
  // fall back to the input being processed right now. acquire() leaves a
  // recycled buffer's capacity behind for the next accumulation round.
  if (e.pending_inputs.empty()) {
    if (e.current_input == nullptr) return;
    e.pending_inputs.push_back(*e.current_input);
  }
  // One pass stamps the inputs' logical-time range and the oldest ingest
  // time, so end-to-end latency follows the slowest contributing input.
  sample.cached_seq_min = sample.cached_seq_max =
      e.pending_inputs.front().sequence;
  for (const Sample& in : e.pending_inputs) {
    sample.cached_seq_min = std::min(sample.cached_seq_min, in.sequence);
    sample.cached_seq_max = std::max(sample.cached_seq_max, in.sequence);
    if (in.ingest_us != 0.0 &&
        (sample.ingest_us == 0.0 || in.ingest_us < sample.ingest_us)) {
      sample.ingest_us = in.ingest_us;
    }
  }
  sample.inputs = pool_->acquire(e.pending_inputs);
  for (std::size_t n = pool_->take_skipped(); n != 0; --n) {
    observe([](GraphObserver& o) { o.on_pool_double_release(); });
  }
}

void ProcessingGraph::enqueue_deliveries(Sample&& sample, const Entry& e) {
  const std::vector<ComponentId>& consumers = e.consumers;
  if (consumers.empty()) return;
  // Insert this emission's delivery block at the current frame base. Blocks
  // of later emissions within the same on_input (or hook) frame land below
  // earlier ones, and within a block consumers are laid out in reverse, so
  // the LIFO drain visits everything in exactly the order the old recursive
  // dispatcher did: emissions in emit order, each fully propagated through
  // its consumer subtree before the next, consumers in connection order.
  const auto base = dispatch_stack_.begin() +
                    static_cast<std::ptrdiff_t>(current_frame_base_);
  if (consumers.size() == 1) {
    dispatch_stack_.insert(base, PendingDelivery{std::move(sample),
                                                 consumers.front()});
    return;
  }
  const std::size_t n = consumers.size();
  PendingDelivery* block =
      &*dispatch_stack_.insert(base, n, PendingDelivery{});
  for (std::size_t i = 0; i + 1 < n; ++i) {
    block[i] = PendingDelivery{sample, consumers[n - 1 - i]};
  }
  block[n - 1] = PendingDelivery{std::move(sample), consumers.front()};
}

void ProcessingGraph::drain_dispatch_stack() {
  dispatching_ = true;
  drain_cascade_ = 0;
  try {
    while (!dispatch_stack_.empty()) {
      deliver(*entries_[dispatch_stack_.back().consumer]);
    }
  } catch (...) {
    // Mirror the old recursive unwinding: abandoned sibling deliveries are
    // dropped and the graph is dispatchable again.
    dispatch_stack_.clear();
    current_frame_base_ = 0;
    dispatching_ = false;
    throw;
  }
  current_frame_base_ = 0;
  dispatching_ = false;
}

namespace {

/// Accept check against the compiled requirements: two integer compares
/// per requirement, no vector materialization, no string compare.
template <typename Requirements>
bool accepts(const Requirements& reqs, const Sample& sample) noexcept {
  const TypeInfo* const type = sample.payload.type();
  for (const auto& r : reqs) {
    if (r.origin == sample.origin && (r.any_type || r.type == type)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const Sample& ProcessingGraph::keep_pending(Entry& c, ComponentId consumer,
                                           Sample& sample, bool move) {
  if (c.pending_inputs.size() == kMaxPendingInputs) {
    // A component dropping its inputs evicts the oldest half: amortised
    // O(1), and the push_back below then cannot reallocate.
    constexpr std::size_t kEvicted = kMaxPendingInputs / 2;
    c.pending_inputs.erase(c.pending_inputs.begin(),
                           c.pending_inputs.begin() + kEvicted);
    c.evicted.add(kEvicted);
    observe([&](GraphObserver& o) { o.on_evict(consumer, kEvicted); });
  }
  if (!move) {
    c.pending_inputs.push_back(sample);
    return sample;
  }
  // Moved in, the stored element is what on_input sees. The reference
  // stays valid across a nested emission claiming the pending batch:
  // vector::swap exchanges storage without moving elements, and the
  // claimed buffer outlives this delivery on the dispatch stack (see
  // deliver()). No reallocation can invalidate it either —
  // further push_backs to this component's pending require another
  // delivery to it, and deliveries only start from the drain loop, never
  // inside on_input.
  c.pending_inputs.push_back(std::move(sample));
  return c.pending_inputs.back();
}

void ProcessingGraph::invoke_on_input(Entry& c, ComponentId consumer,
                                      const Sample& input,
                                      std::size_t saved_frame_base) {
  // While on_input runs, pull the likely next hop into cache: a relay's
  // emission immediately dispatches to its first consumer.
  if (!c.consumers.empty()) {
    __builtin_prefetch(entries_[c.consumers.front()].get(), 1, 3);
  }
  const ComponentId producer = input.producer;
  const std::uint64_t sequence = input.sequence;
  const Sample* saved = c.current_input;
  c.current_input = &input;
  const bool timed = (observed_ & GraphObserver::kTiming) != 0;
  const double t0 = timed ? now_wall_us() : 0.0;
  try {
    c.component->on_input(input);
  } catch (...) {
    c.current_input = saved;
    current_frame_base_ = saved_frame_base;
    if ((observed_ & GraphObserver::kDispatch) != 0) {
      const std::string what = current_exception_message();
      notify(GraphObserver::kDispatch, [&](GraphObserver& o) {
        o.on_input_failed(consumer, producer, sequence, what);
      });
    }
    throw;
  }
  c.current_input = saved;
  current_frame_base_ = saved_frame_base;
  if (timed) {
    const double us = now_wall_us() - t0;
    notify(GraphObserver::kTiming,
           [&](GraphObserver& o) { o.on_input_time(consumer, us); });
  }
}

void ProcessingGraph::deliver(Entry& c) {
  PendingDelivery& top = dispatch_stack_.back();
  const ComponentId consumer = top.consumer;
  if (!accepts(c.compiled_requirements, top.sample)) {
    c.rejected.add();
    dispatch_stack_.pop_back();
    return;
  }
  const std::uint64_t cascade = ++drain_cascade_;
  if ((observed_ & GraphObserver::kAccept) != 0) {
    notify(GraphObserver::kAccept, [&](GraphObserver& o) {
      o.on_accept(top.sample, consumer, dispatch_stack_.size() - 1, cascade);
    });
  }
  // One dispatch frame covers everything this delivery triggers: emissions
  // made by consume hooks and by on_input both insert their delivery
  // blocks at the stack size below this delivery, so they drain right
  // after it — before any previously-pending delivery (e.g. to the
  // emitter's other consumers). Consume-hook emissions enqueue first and
  // therefore pop first (later blocks at the same base land below earlier
  // ones), then on_input emissions, each in emit order — the relative
  // order the old recursive dispatcher produced, which ran hook emissions
  // before on_input even started.
  const std::size_t saved_frame_base = current_frame_base_;

  if (c.features.empty()) {
    // No consume hooks: nothing can touch the stack before on_input, so
    // the slot is consumed in place — moved into the pending inputs, or
    // into a local when the pending inputs cannot own it.
    c.delivered.add();
    observe([&](GraphObserver& o) { o.on_deliver(top.sample, consumer); });
    // The input may move into the pending inputs only while every emission
    // of on_input stays queued, keeping the claimed batch referenced until
    // on_input returns. An emission with no consumer dies at once (so does
    // one a produce hook vetoes), and the next emission's acquire() may
    // then reuse — and clear — the buffer holding on_input's input. The
    // topology and the hook chains cannot change mid-dispatch.
    if (c.records_provenance && !c.consumers.empty()) {
      const Sample& input = keep_pending(c, consumer, top.sample, true);
      dispatch_stack_.pop_back();
      current_frame_base_ = dispatch_stack_.size();
      invoke_on_input(c, consumer, input, saved_frame_base);
      return;
    }
    Sample input = std::move(top.sample);
    dispatch_stack_.pop_back();
    if (c.records_provenance) keep_pending(c, consumer, input, false);
    current_frame_base_ = dispatch_stack_.size();
    invoke_on_input(c, consumer, input, saved_frame_base);
    return;
  }

  // Consume hooks may emit onto the stack: pop the slot first. The sample
  // is owned by this delivery (the emitter queued one copy per consumer),
  // so hooks mutate it in place — no defensive copy.
  Sample sample = std::move(top.sample);
  dispatch_stack_.pop_back();
  current_frame_base_ = dispatch_stack_.size();
  if (!run_hooks(c, consumer, sample, /*produce=*/false)) {
    // Emissions already made by earlier hooks stay queued (the recursive
    // dispatcher had delivered them before the veto, too).
    current_frame_base_ = saved_frame_base;
    return;
  }
  c.delivered.add();
  observe([&](GraphObserver& o) { o.on_deliver(sample, consumer); });
  // Pending gets a copy: a hooked consumer's input stays this delivery's.
  if (c.records_provenance) keep_pending(c, consumer, sample, false);
  invoke_on_input(c, consumer, sample, saved_frame_base);
}

bool ProcessingGraph::run_hooks(Entry& e, ComponentId host, Sample& sample,
                                bool produce) {
  const bool timed = (observed_ & GraphObserver::kTiming) != 0;
  const TypeInfo* original_type = sample.payload.type();
  for (const auto& f : e.features) {
    const double t0 = timed ? now_wall_us() : 0.0;
    const bool keep = produce ? f->produce(sample) : f->consume(sample);
    if (timed) {
      const double us = now_wall_us() - t0;
      notify(GraphObserver::kTiming, [&](GraphObserver& o) {
        o.on_hook_time(host, *f, produce, us);
      });
    }
    if (!keep) {
      (produce ? e.produce_vetoed : e.consume_vetoed).add();
      return false;
    }
    if (sample.payload.type() != original_type) {
      throw std::logic_error("feature '" + std::string(f->name()) +
                             "' changed the data type in " +
                             (produce ? "produce()" : "consume()"));
    }
  }
  return true;
}

bool ProcessingGraph::stamp_emission(Entry& e, ComponentId producer,
                                     Sample& sample, Payload&& payload,
                                     OriginId origin) {
  sample.payload = std::move(payload);
  sample.timestamp = clock_ != nullptr ? clock_->now() : sim::SimTime::zero();
  sample.producer = producer;
  sample.sequence = ++e.sequence;
  sample.origin = origin;
  stamp_provenance(e, sample);
  // A root emission (no inherited ingest stamp) marks the moment its data
  // entered the graph; latency observers subtract this at sinks.
  if ((observed_ & GraphObserver::kIngestTime) != 0 &&
      sample.ingest_us == 0.0) {
    sample.ingest_us = now_wall_us();
  }

  if (!e.features.empty() && !run_hooks(e, producer, sample, true)) {
    return false;
  }
  e.emitted.add();
  observe([&](GraphObserver& o) { o.on_emit(sample); });
  return true;
}

void ProcessingGraph::emit_from(ComponentId producer, Payload payload,
                                OriginId origin) {
  Entry& e = entry(producer);
  if (e.features.empty() && e.consumers.size() == 1 &&
      current_frame_base_ == dispatch_stack_.size()) {
    // A featureless single-consumer emission opening its frame (every hop
    // of a straight pipeline) builds the sample directly in its
    // dispatch-stack slot. No produce hook can veto or emit while the slot
    // reference is live.
    PendingDelivery& slot = dispatch_stack_.emplace_back();
    slot.consumer = e.consumers.front();
    try {
      stamp_emission(e, producer, slot.sample, std::move(payload), origin);
    } catch (...) {
      dispatch_stack_.pop_back();
      throw;
    }
  } else {
    Sample sample;
    if (stamp_emission(e, producer, sample, std::move(payload), origin)) {
      enqueue_deliveries(std::move(sample), e);
    }
  }
  if (!dispatching_) drain_dispatch_stack();
}

}  // namespace perpos::core
