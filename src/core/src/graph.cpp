#include "perpos/core/graph.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <stdexcept>
#include <unordered_map>

// TSan cannot see the happens-before edge implied by a shared_ptr use_count
// observed at 1 plus the acquire fence the arena pairs with it, so buffer
// reuse in the provenance arena is compiled out under TSan: every buffer is
// freshly allocated and freed through the default deleter.
#if defined(__SANITIZE_THREAD__)
#define PERPOS_NO_ARENA_REUSE 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define PERPOS_NO_ARENA_REUSE 1
#endif
#endif
#ifndef PERPOS_NO_ARENA_REUSE
#define PERPOS_NO_ARENA_REUSE 0
#endif

namespace perpos::core {

/// Cached metric handles of one component; filled lazily after
/// enable_observability so the hot path never does a registry lookup.
struct ComponentMetricHandles {
  obs::Counter* emitted = nullptr;
  obs::Counter* delivered = nullptr;
  obs::Counter* rejected = nullptr;
  obs::Counter* produce_vetoed = nullptr;
  obs::Counter* consume_vetoed = nullptr;
  obs::Histogram* on_input_us = nullptr;
  /// End-to-end ingest→sink latency; created only for sinks with the
  /// latency knob on (see deliver()).
  obs::Histogram* e2e_latency_us = nullptr;
  obs::Counter* deadline_miss = nullptr;
};

/// Recycles the vector<Sample> buffers behind Sample::inputs, so the steady
/// state allocates neither a buffer nor a shared_ptr control block per
/// emission. Buffers are shared, and reused when their use_count drops
/// back to 1 (only the arena holds them). They are ordinary make_shared
/// allocations, so buffers still referenced by application-retained
/// samples simply outlive the arena (and the graph) through shared
/// ownership. Touched only from the dispatch thread; releases from other
/// lanes just decrement the atomic count.
///
/// Free slots are discovered deterministically, because provenance chains
/// die one level at a time and a blind ring scan almost never lands on the
/// one slot that just became free:
///  * harvest(): when a delivered sample is about to be destroyed and holds
///    the last non-arena reference to its buffer (the sink-side head of a
///    dying chain),
///  * per-component watch slots: when the dying sample's buffer is still
///    referenced from outside (a sink retained the sample), the component
///    remembers the slot and re-checks it right after its next on_input —
///    the moment a latest-value sink replaces its stored sample and the
///    previous chain head actually becomes free,
///  * the cascade in acquire(): clearing a reused buffer destroys its
///    samples, which releases the chain level below it.
/// A bounded ring scan remains as a fallback for references that die out
/// of band (multi-sample retention, rejected fan-out copies).
struct ProcessingGraph::ProvenanceArena {
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  static constexpr std::size_t kMaxArena = 4096;
  static constexpr std::size_t kMaxProbes = 64;

  std::vector<std::shared_ptr<std::vector<Sample>>> arena;
  std::vector<std::uint32_t> free_slots;
  /// Parallel to `arena`: 1 while the slot sits in `free_slots`. Guards
  /// against double-listing a slot that a stale watch and a harvest (or
  /// the sweep) both notice.
  std::vector<std::uint8_t> slot_free;
  std::size_t scan_cursor = 0;

  /// Buffer address -> arena slot. Open addressing with linear probing
  /// over a fixed power-of-two table (2 * kMaxArena keeps the load factor
  /// under one half; slots are never erased, the arena only grows).
  /// Replaces unordered_map, whose prime-modulo bucket indexing costs an
  /// integer division on every lookup.
  static constexpr std::size_t kMapSize = kMaxArena * 2;
  std::vector<const void*> map_keys;
  std::vector<std::uint32_t> map_vals;

  static std::size_t hash_ptr(const void* p) noexcept {
    return static_cast<std::size_t>(
        (reinterpret_cast<std::uintptr_t>(p) * 0x9E3779B97F4A7C15ull) >> 51);
  }

  std::uint32_t slot_lookup(const std::vector<Sample>* p) const noexcept {
    if (map_keys.empty()) return kNoSlot;
    std::size_t i = hash_ptr(p);
    while (map_keys[i] != nullptr) {
      if (map_keys[i] == p) return map_vals[i];
      i = (i + 1) & (kMapSize - 1);
    }
    return kNoSlot;
  }

  void slot_insert(const std::vector<Sample>* p, std::uint32_t value) {
    if (map_keys.empty()) {
      map_keys.assign(kMapSize, nullptr);
      map_vals.assign(kMapSize, 0);
    }
    std::size_t i = hash_ptr(p);
    while (map_keys[i] != nullptr) i = (i + 1) & (kMapSize - 1);
    map_keys[i] = p;
    map_vals[i] = value;
  }

  void release_slot(std::uint32_t index) {
    if (slot_free[index] == 0) {
      slot_free[index] = 1;
      free_slots.push_back(index);
    }
  }

  /// `dying` is about to be destroyed: if it holds the last outside
  /// reference to an arena buffer, queue that slot for reuse. use_count
  /// == 2 means exactly {arena, dying}; the count can only have shrunk to
  /// 2 after every other owner released, so the slot is free the moment
  /// `dying` goes away, and nothing can revive it — only acquire() hands
  /// arena slots out.
  void harvest(const Sample& dying) {
#if !PERPOS_NO_ARENA_REUSE
    if (dying.inputs != nullptr && dying.inputs.use_count() == 2) {
      const std::uint32_t slot = slot_lookup(dying.inputs.get());
      if (slot != kNoSlot) release_slot(slot);
    }
#else
    (void)dying;
#endif
  }

  /// harvest(), plus: when the buffer is still referenced beyond
  /// {arena, dying} — the consumer retained the delivered sample — park
  /// the slot on the consumer's watch so its next delivery re-checks it.
  void harvest_or_watch(const Sample& dying, std::uint32_t& watch_slot) {
#if !PERPOS_NO_ARENA_REUSE
    if (dying.inputs == nullptr) return;
    const long uses = dying.inputs.use_count();
    const std::uint32_t slot = slot_lookup(dying.inputs.get());
    if (slot == kNoSlot) return;
    if (uses == 2) {
      release_slot(slot);
    } else {
      watch_slot = slot;
    }
#else
    (void)dying;
    (void)watch_slot;
#endif
  }

  /// Called after a component's on_input: if the previously watched
  /// buffer has lost its outside references (the sink replaced its stored
  /// latest), queue it. release_slot() ignores slots the sweep already
  /// recovered.
  void check_watch(std::uint32_t& watch_slot) {
#if !PERPOS_NO_ARENA_REUSE
    if (watch_slot != kNoSlot && arena[watch_slot].use_count() == 1) {
      release_slot(watch_slot);
      watch_slot = kNoSlot;
    }
#else
    (void)watch_slot;
#endif
  }

  /// A cleared buffer for the next emission's provenance. A listed slot
  /// that is still referenced (a release bookkeeping bug: reusing it would
  /// hand one buffer to two samples) is skipped and reported to `sentry`
  /// as PPS003.
  std::shared_ptr<std::vector<Sample>> acquire(GraphSentry* sentry) {
#if !PERPOS_NO_ARENA_REUSE
    std::uint32_t index = kNoSlot;
    while (index == kNoSlot && !free_slots.empty()) {
      const std::uint32_t listed = free_slots.back();
      free_slots.pop_back();
      slot_free[listed] = 0;
      if (arena[listed].use_count() == 1) {
        index = listed;
      } else if (sentry != nullptr) {
        sentry->on_pool_double_release();
      }
    }
    if (index == kNoSlot) {
      // Clock sweep for slots whose last outside reference died invisibly
      // (an application-retained sample being dropped). Finding just the
      // head of a dying chain is enough: the cascade below recovers every
      // level under it, so the sweep only needs one hit per chain.
      const std::size_t n = arena.size();
      std::size_t probes = n < kMaxProbes ? n : kMaxProbes;
      while (probes-- > 0) {
        const std::size_t k = scan_cursor;
        scan_cursor = scan_cursor + 1 == n ? 0 : scan_cursor + 1;
        if (arena[k].use_count() == 1) {
          index = static_cast<std::uint32_t>(k);
          break;
        }
      }
    }
    if (index != kNoSlot) {
      std::shared_ptr<std::vector<Sample>>& slot = arena[index];
      // Every sample reference is gone. Pair their releasing decrements
      // with an acquire fence before touching the buffer's storage.
      std::atomic_thread_fence(std::memory_order_acquire);
      // Cascade: clearing this buffer destroys its samples, freeing the
      // chain level each of them references (count 2 = {arena, sample}).
      for (const Sample& s : *slot) harvest(s);
      slot->clear();
      return slot;
    }
    if (arena.size() < kMaxArena) {
      arena.push_back(std::make_shared<std::vector<Sample>>());
      slot_free.push_back(0);
      slot_insert(arena.back().get(),
                  static_cast<std::uint32_t>(arena.size() - 1));
      return arena.back();
    }
#else
    (void)sentry;
#endif
    // Arena exhausted (or TSan build): a one-shot buffer that is freed,
    // not recycled, when its last sample dies.
    return std::make_shared<std::vector<Sample>>();
  }
};

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
  /// Arena slot whose buffer was still externally referenced when this
  /// component's delivered sample died — typically a sink retaining the
  /// latest sample. Re-checked after its next on_input.
  std::uint32_t watch_slot = ProvenanceArena::kNoSlot;

  /// Inputs accepted since the last emission; becomes the provenance of the
  /// next emitted sample (Fig. 4 time ranges). The running sequence range
  /// is tracked alongside so emission stamps Sample::cached_seq_min/max
  /// without rescanning.
  std::vector<Sample> pending_inputs;
  std::uint64_t pending_seq_min = 0;
  std::uint64_t pending_seq_max = 0;
  /// Oldest (minimum) Sample::ingest_us among the pending inputs; 0 when
  /// none carried one. Propagated onto the next emission so end-to-end
  /// latency follows the slowest contributing input, without rescanning.
  double pending_ingest_min = 0.0;
  /// The input currently being processed by on_input (nesting-safe via
  /// save/restore in invoke_on_input()); used as fallback provenance when a
  /// second emission happens after pending_inputs was consumed.
  const Sample* current_input = nullptr;
  std::uint64_t sequence = 0;  ///< Logical time of the output port.
  std::uint64_t emitted = 0;

  std::vector<ComponentId> producers;
  ComponentMetricHandles metric_handles;
  std::uint64_t metric_epoch = 0;  ///< Matches Obs::epoch when handles valid.
};

/// Per-feature hook-timing histograms, keyed by feature object.
struct FeatureMetricHandles {
  obs::Histogram* produce_us = nullptr;
  obs::Histogram* consume_us = nullptr;
};

struct ProcessingGraph::Obs {
  obs::ObservabilityConfig config;
  obs::MetricsRegistry registry;
  /// Owned flight recorder (config.recording); one "graph" ring.
  std::unique_ptr<obs::FlightRecorder> recorder;
  std::uint32_t rec_lane = 0;
  std::uint64_t epoch = 1;  ///< Bumped when handles must be re-resolved.
  std::unordered_map<const ComponentFeature*, FeatureMetricHandles>
      feature_handles;
  obs::Counter* deliveries_total = nullptr;
  obs::Counter* rejections_total = nullptr;
  obs::Counter* mutations_total = nullptr;
  obs::Gauge* components_gauge = nullptr;
  /// Timing or latency is on: every delivery takes the instrumented path
  /// of deliver(). Metrics and recording stay on deliver_top().
  bool per_delivery = false;

  ComponentMetricHandles& handles(Entry& e, ComponentId id) {
    if (e.metric_epoch != epoch) {
      const obs::Labels labels{{"component", std::to_string(id)},
                               {"kind", std::string(e.component->kind())}};
      e.metric_handles.emitted =
          registry.counter("perpos_component_emitted_total", labels);
      e.metric_handles.delivered =
          registry.counter("perpos_component_delivered_total", labels);
      e.metric_handles.rejected =
          registry.counter("perpos_component_rejected_total", labels);
      e.metric_handles.produce_vetoed =
          registry.counter("perpos_component_produce_vetoed_total", labels);
      e.metric_handles.consume_vetoed =
          registry.counter("perpos_component_consume_vetoed_total", labels);
      // Without timing no latency is ever observed; don't pollute exports
      // with an empty histogram. (All uses are gated on config.timing.)
      e.metric_handles.on_input_us =
          config.timing ? registry.histogram("perpos_component_on_input_us",
                                             labels)
                        : nullptr;
      // End-to-end latency is observed at sinks only; same lazy logic.
      e.metric_handles.e2e_latency_us =
          config.latency ? registry.histogram("perpos_e2e_latency_us", labels)
                         : nullptr;
      e.metric_handles.deadline_miss =
          config.latency && config.latency_slo_us > 0.0
              ? registry.counter("perpos_e2e_deadline_miss_total", labels)
              : nullptr;
      e.metric_epoch = epoch;
    }
    return e.metric_handles;
  }

  FeatureMetricHandles& handles(const Entry& e, ComponentId id,
                                const ComponentFeature& feature) {
    auto [it, inserted] = feature_handles.try_emplace(&feature);
    if (inserted) {
      const obs::Labels labels{{"component", std::to_string(id)},
                               {"kind", std::string(e.component->kind())},
                               {"feature", std::string(feature.name())}};
      it->second.produce_us =
          registry.histogram("perpos_feature_produce_us", labels);
      it->second.consume_us =
          registry.histogram("perpos_feature_consume_us", labels);
    }
    return it->second;
  }
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

}  // namespace

namespace {

void erase_id(std::vector<ComponentId>& v, ComponentId id) {
  v.erase(std::remove(v.begin(), v.end(), id), v.end());
}

}  // namespace

std::size_t ProcessingGraph::add_mutation_observer(
    std::function<void(const GraphMutation&)> observer) {
  const std::size_t token = next_observer_token_++;
  observers_.emplace_back(token, std::move(observer));
  return token;
}

void ProcessingGraph::remove_mutation_observer(std::size_t token) {
  // Mid-notification removal (an observer detaching itself or a peer from
  // inside its callback) must not invalidate the notifying iteration:
  // tombstone the slot and let notify_observers() compact once the walk is
  // done.
  if (notify_depth_ > 0) {
    for (auto& [t, fn] : observers_) {
      if (t == token && fn) {
        fn = nullptr;
        observers_tombstoned_ = true;
      }
    }
    return;
  }
  observers_.erase(
      std::remove_if(observers_.begin(), observers_.end(),
                     [&](const auto& p) { return p.first == token; }),
      observers_.end());
}

void ProcessingGraph::set_sentry(GraphSentry* sentry) noexcept {
  sentry_ = sentry;
}

void ProcessingGraph::notify_mutation(const GraphMutation& mutation) {
  if (obs_ && obs_->config.metrics) {
    obs_->mutations_total->inc();
    obs_->components_gauge->set(static_cast<double>(live_count_));
  }
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kMutation, mutation.a,
                  static_cast<std::uint64_t>(mutation.kind), mutation.b);
  }
  notify_observers(mutation);
}

void ProcessingGraph::notify_observers(const GraphMutation& mutation) {
  // Walk by index up to the count captured at entry: observers may
  // register new observers (not notified for this mutation — the vector
  // may reallocate, so no iterator survives) or remove existing ones
  // (tombstoned to null by remove_mutation_observer, skipped here). Each
  // function object is copied out before the call: a reallocating
  // registration would otherwise move the object mid-execution.
  struct Level {
    ProcessingGraph& g;
    explicit Level(ProcessingGraph& graph) : g(graph) { ++g.notify_depth_; }
    // Leaving the outermost level compacts the tombstoned slots.
    ~Level() {
      if (--g.notify_depth_ != 0 || !g.observers_tombstoned_) return;
      g.observers_.erase(
          std::remove_if(g.observers_.begin(), g.observers_.end(),
                         [](const auto& p) { return !p.second; }),
          g.observers_.end());
      g.observers_tombstoned_ = false;
    }
  } level(*this);
  const std::size_t count = observers_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (!observers_[i].second) continue;
    const auto fn = observers_[i].second;
    fn(mutation);
  }
}

ProcessingGraph::ProcessingGraph(const sim::Clock* clock)
    : clock_(clock), arena_(std::make_unique<ProvenanceArena>()) {}

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
  if (!obs_) {
    obs_ = std::make_unique<Obs>();
    obs_->deliveries_total =
        obs_->registry.counter("perpos_graph_deliveries_total");
    obs_->rejections_total =
        obs_->registry.counter("perpos_graph_rejections_total");
    obs_->mutations_total =
        obs_->registry.counter("perpos_graph_mutations_total");
    obs_->components_gauge = obs_->registry.gauge("perpos_graph_components");
  }
  obs_->config = config;
  obs_->per_delivery = config.timing || config.latency;
  // Invalidate every cached handle set: entries may hold pointers into a
  // previous registry (destroyed by disable_observability), and a config
  // change can alter which handles exist (e.g. the timing histogram). The
  // generation counter lives on the graph so it survives obs_ teardown.
  obs_->epoch = ++obs_generation_;
  if (config.recording) {
    if (!obs_->recorder) {
      obs_->recorder =
          std::make_unique<obs::FlightRecorder>(config.recorder_capacity);
      obs_->rec_lane = obs_->recorder->add_lane("graph");
    }
  } else {
    obs_->recorder.reset();
  }
  refresh_active_recorder();
  obs_->components_gauge->set(static_cast<double>(live_count_));
}

void ProcessingGraph::disable_observability() {
  check_not_dispatching("disable_observability");
  obs_.reset();
  refresh_active_recorder();
}

void ProcessingGraph::set_flight_recorder(obs::FlightRecorder* recorder,
                                          std::uint32_t lane,
                                          std::uint32_t graph_tag) noexcept {
  external_recorder_ = recorder;
  if (recorder != nullptr) {
    rec_lane_ = lane;
    graph_tag_ = graph_tag;
  }
  refresh_active_recorder();
}

obs::FlightRecorder* ProcessingGraph::flight_recorder() const noexcept {
  return active_recorder_;
}

void ProcessingGraph::record_event(obs::FlightEventType type,
                                   std::uint32_t component, std::uint64_t a,
                                   std::uint64_t b,
                                   std::string_view detail) noexcept {
  if (active_recorder_ != nullptr) record_flight(type, component, a, b, detail);
}

void ProcessingGraph::refresh_active_recorder() noexcept {
  if (external_recorder_ != nullptr) {
    active_recorder_ = external_recorder_;  // rec_lane_ set at attach time.
  } else if (obs_ && obs_->recorder) {
    active_recorder_ = obs_->recorder.get();
    rec_lane_ = obs_->rec_lane;
  } else {
    active_recorder_ = nullptr;
  }
}

void ProcessingGraph::record_flight(obs::FlightEventType type,
                                    std::uint32_t component, std::uint64_t a,
                                    std::uint64_t b,
                                    std::string_view detail) noexcept {
  obs::FlightEvent event;
  event.type = type;
  event.graph = graph_tag_;
  event.component = component;
  event.a = a;
  event.b = b;
  if (!detail.empty()) event.set_detail(detail);
  active_recorder_->record(rec_lane_, event);
}

bool ProcessingGraph::observability_enabled() const noexcept {
  return obs_ != nullptr;
}

const obs::ObservabilityConfig* ProcessingGraph::observability_config()
    const noexcept {
  return obs_ ? &obs_->config : nullptr;
}

obs::MetricsRegistry* ProcessingGraph::metrics_registry() const noexcept {
  return obs_ ? &obs_->registry : nullptr;
}

obs::MetricsSnapshot ProcessingGraph::metrics() const {
  return obs_ ? obs_->registry.snapshot() : obs::MetricsSnapshot{};
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
  ++revision_;
  notify_mutation(GraphMutation{GraphMutation::Kind::kAdd, id});
  return id;
}

void ProcessingGraph::remove(ComponentId id) {
  check_not_dispatching("remove");
  // Teardown hook before any edge is cut: a component flushing buffered
  // data here still reaches its consumers.
  entry(id).component->on_teardown();
  Entry& e = entry(id);
  for (ComponentId c : e.consumers) erase_id(entries_[c]->producers, id);
  for (ComponentId p : e.producers) erase_id(entries_[p]->consumers, id);
  e.component->context_ = ComponentContext();
  for (auto& f : e.features) f->context_ = FeatureContext();
  e.live = false;
  e.component.reset();
  e.features.clear();
  --live_count_;
  ++revision_;
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
  const auto caps = capabilities(producer);
  const auto reqs = c.component->input_requirements();
  const bool realizable =
      std::any_of(caps.begin(), caps.end(), [&](const DataSpec& cap) {
        return std::any_of(reqs.begin(), reqs.end(),
                           [&](const InputRequirement& r) {
                             return r.accepts(cap.type, cap.feature_tag);
                           });
      });
  if (!realizable) {
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
  ++revision_;
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
  erase_id(c.producers, producer);
  ++revision_;
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
    const auto caps = capabilities(p);
    const bool realizable =
        std::any_of(caps.begin(), caps.end(), [&](const DataSpec& cap) {
          return std::any_of(sreqs.begin(), sreqs.end(),
                             [&](const InputRequirement& r) {
                               return r.accepts(cap.type, cap.feature_tag);
                             });
        });
    if (!realizable) {
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
    const auto creqs = entries_[c]->component->input_requirements();
    const bool realizable =
        std::any_of(out_caps.begin(), out_caps.end(), [&](const DataSpec& cap) {
          return std::any_of(creqs.begin(), creqs.end(),
                             [&](const InputRequirement& r) {
                               return r.accepts(cap.type, cap.feature_tag);
                             });
        });
    if (!realizable) {
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
  e.component->context_ = ComponentContext(this, id);
  old->context_ = ComponentContext();
  // Recompile the hot-path caches against the successor; invalidate the
  // metric handles (the kind label changed). Logical time (sequence),
  // emission count, pending provenance and the features carry over — that
  // continuity is what makes a live cutover free of duplicated or dropped
  // logical-time slots.
  e.compiled_requirements.clear();
  for (const InputRequirement& r : e.component->input_requirements()) {
    e.compiled_requirements.push_back(Entry::CompiledRequirement{
        r.type, intern_origin(r.feature_tag), r.any_type});
  }
  e.records_provenance = !e.component->output_capabilities().empty();
  e.metric_epoch = 0;
  e.current_input = nullptr;
  ++revision_;
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
  notify_observers(GraphMutation{GraphMutation::Kind::kFeatureAttach, host});
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
  if (obs_) obs_->feature_handles.erase(it->get());
  e.features.erase(it);
  notify_observers(GraphMutation{GraphMutation::Kind::kFeatureDetach, host});
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
  out.kind = std::string(e.component->kind());
  out.producers = e.producers;
  out.consumers = e.consumers;
  for (const auto& f : e.features) out.feature_names.emplace_back(f->name());
  out.capabilities = capabilities(id);
  out.emitted = e.emitted;
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
  // fall back to the input being processed right now. Buffers come from
  // the arena, so the steady state allocates nothing: the swap hands the
  // accumulated samples to the outgoing buffer and leaves the (recycled)
  // buffer's capacity behind for the next accumulation round.
  if (!e.pending_inputs.empty()) {
    std::shared_ptr<std::vector<Sample>> buffer = arena_->acquire(sentry_);
    buffer->swap(e.pending_inputs);
    sample.cached_seq_min = e.pending_seq_min;
    sample.cached_seq_max = e.pending_seq_max;
    sample.ingest_us = e.pending_ingest_min;
    e.pending_seq_min = 0;
    e.pending_seq_max = 0;
    e.pending_ingest_min = 0.0;
    sample.inputs = std::move(buffer);
  } else if (e.current_input != nullptr) {
    std::shared_ptr<std::vector<Sample>> buffer = arena_->acquire(sentry_);
    buffer->push_back(*e.current_input);
    sample.cached_seq_min = e.current_input->sequence;
    sample.cached_seq_max = e.current_input->sequence;
    sample.ingest_us = e.current_input->ingest_us;
    sample.inputs = std::move(buffer);
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
  std::vector<PendingDelivery> block;
  block.reserve(consumers.size());
  for (std::size_t i = consumers.size(); i-- > 1;) {
    block.push_back(PendingDelivery{sample, consumers[i]});
  }
  block.push_back(PendingDelivery{std::move(sample), consumers.front()});
  dispatch_stack_.insert(base, std::make_move_iterator(block.begin()),
                         std::make_move_iterator(block.end()));
}

void ProcessingGraph::drain_dispatch_stack() {
  dispatching_ = true;
  drain_cascade_ = 0;
  try {
    while (!dispatch_stack_.empty()) {
      PendingDelivery& top = dispatch_stack_.back();
      Entry& c = *entries_[top.consumer];
      // Deliveries nobody observes per hop — no consume hooks, no sentry,
      // no timing / latency — consume the stack slot in place.
      if (c.features.empty() && sentry_ == nullptr &&
          (obs_ == nullptr || !obs_->per_delivery)) {
        deliver_top(c);
      } else {
        PendingDelivery next = std::move(top);
        dispatch_stack_.pop_back();
        deliver(std::move(next.sample), next.consumer);
      }
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

void ProcessingGraph::count_rejection(Entry& c, ComponentId consumer) {
  if (obs_ != nullptr && obs_->config.metrics) {
    obs_->handles(c, consumer).rejected->inc();
    obs_->rejections_total->inc();
  }
}

void ProcessingGraph::count_delivery(Entry& c, ComponentId consumer,
                                     const Sample& sample) {
  ++deliveries_;
  if (obs_ != nullptr && obs_->config.metrics) {
    obs_->handles(c, consumer).delivered->inc();
    obs_->deliveries_total->inc();
  }
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kDeliver, consumer, sample.producer,
                  sample.sequence);
  }
}

const Sample& ProcessingGraph::keep_pending(Entry& c, Sample& sample,
                                           bool move) {
  if (c.pending_seq_min == 0 || sample.sequence < c.pending_seq_min) {
    c.pending_seq_min = sample.sequence;
  }
  if (sample.sequence > c.pending_seq_max) {
    c.pending_seq_max = sample.sequence;
  }
  if (sample.ingest_us != 0.0 && (c.pending_ingest_min == 0.0 ||
                                  sample.ingest_us < c.pending_ingest_min)) {
    c.pending_ingest_min = sample.ingest_us;
  }
  if (!move) {
    c.pending_inputs.push_back(sample);
    return sample;
  }
  // Moved in, the stored element is what on_input sees. The reference
  // stays valid across a nested emission claiming the pending batch:
  // vector::swap exchanges storage without moving elements, and the
  // claimed buffer outlives this delivery on the dispatch stack (see
  // pending_owns_input()). No reallocation can invalidate it either —
  // further push_backs to this component's pending require another
  // delivery to it, and deliveries only start from the drain loop, never
  // inside on_input.
  c.pending_inputs.push_back(std::move(sample));
  return c.pending_inputs.back();
}

bool ProcessingGraph::pending_owns_input(const Entry& c) noexcept {
  // Moving the input into pending_inputs is safe only while every emission
  // on_input makes keeps the claimed batch referenced until on_input
  // returns: it must sit queued on the dispatch stack. An emission with no
  // consumer dies at once, and one vetoed by a produce hook dies too; the
  // next emission's acquire() may then reuse — and clear — the buffer
  // holding on_input's input. The topology and the hook chains cannot
  // change mid-dispatch, so the test holds for the whole on_input.
  return c.features.empty() && !c.consumers.empty();
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
  try {
    c.component->on_input(input);
  } catch (...) {
    c.current_input = saved;
    current_frame_base_ = saved_frame_base;
    if (active_recorder_ != nullptr) {
      record_flight(obs::FlightEventType::kTaskFailed, consumer, producer,
                    sequence, current_exception_message());
    }
    throw;
  }
  c.current_input = saved;
  current_frame_base_ = saved_frame_base;
  // The previous delivery's watched buffer is released if on_input just
  // dropped the retention (a latest-value sink replacing its stored fix).
  arena_->check_watch(c.watch_slot);
}

/// Deliver the top of the dispatch stack, consuming the sample in place:
/// one move (stack slot -> pending_inputs or a local) instead of the
/// pop-into-a-local round trip of deliver(). Only for deliveries without
/// consume hooks, sentry or per-delivery instrumentation — none of which
/// may run while the slot reference is live.
void ProcessingGraph::deliver_top(Entry& c) {
  const ComponentId consumer = dispatch_stack_.back().consumer;
  Sample& slot = dispatch_stack_.back().sample;
  if (!accepts(c.compiled_requirements, slot)) {
    count_rejection(c, consumer);
    arena_->harvest(slot);
    dispatch_stack_.pop_back();
    return;
  }
  count_delivery(c, consumer, slot);
  if (c.records_provenance && pending_owns_input(c)) {
    const Sample& input = keep_pending(c, slot, /*move=*/true);
    dispatch_stack_.pop_back();
    // Same frame discipline as deliver(): everything this delivery
    // triggers inserts at this base and drains before previously-pending
    // deliveries.
    const std::size_t saved_frame_base = current_frame_base_;
    current_frame_base_ = dispatch_stack_.size();
    invoke_on_input(c, consumer, input, saved_frame_base);
    return;
  }
  Sample input = std::move(slot);
  dispatch_stack_.pop_back();
  if (c.records_provenance) keep_pending(c, input, /*move=*/false);
  const std::size_t saved_frame_base = current_frame_base_;
  current_frame_base_ = dispatch_stack_.size();
  invoke_on_input(c, consumer, input, saved_frame_base);
  // The consumed sample dies here; when it was the sink-side head of a
  // provenance chain its buffer just became reusable — or, still retained
  // by the component, becomes its watched slot.
  arena_->harvest_or_watch(input, c.watch_slot);
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

  Obs* const obs = obs_.get();
  // Latency tracking: a root emission (no inherited ingest stamp) marks the
  // moment its data entered the graph; sinks subtract this in deliver().
  if (obs != nullptr && obs->config.latency && sample.ingest_us == 0.0) {
    sample.ingest_us = now_wall_us();
  }

  // Produce hooks of the producing component's features. A hook may modify
  // the sample but not its data type; returning false drops the emission.
  const bool timing = obs != nullptr && obs->config.timing;
  const TypeInfo* original_type = sample.payload.type();
  for (const auto& f : e.features) {
    bool keep = false;
    if (timing) {
      const double t0 = now_wall_us();
      keep = f->produce(sample);
      obs->handles(e, producer, *f).produce_us->observe(now_wall_us() - t0);
    } else {
      keep = f->produce(sample);
    }
    if (!keep) {
      if (obs != nullptr && obs->config.metrics) {
        obs->handles(e, producer).produce_vetoed->inc();
      }
      return false;
    }
    if (sample.payload.type() != original_type) {
      throw std::logic_error("feature '" + std::string(f->name()) +
                             "' changed the data type in produce()");
    }
  }
  ++e.emitted;
  if (obs != nullptr && obs->config.metrics) {
    obs->handles(e, producer).emitted->inc();
  }
  if (active_recorder_ != nullptr) {
    record_flight(obs::FlightEventType::kEmit, producer, sample.sequence);
  }
  if (sentry_ != nullptr) sentry_->on_emit(sample);
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
    if (!stamp_emission(e, producer, sample, std::move(payload), origin)) {
      arena_->harvest(sample);
      return;
    }
    enqueue_deliveries(std::move(sample), e);
  }
  if (!dispatching_) drain_dispatch_stack();
}

void ProcessingGraph::deliver(Sample&& sample, ComponentId consumer) {
  Entry& c = *entries_[consumer];
  if (!accepts(c.compiled_requirements, sample)) {
    count_rejection(c, consumer);
    arena_->harvest(sample);
    return;
  }
  if (sentry_ != nullptr) {
    sentry_->on_deliver(sample, consumer, dispatch_stack_.size(),
                        ++drain_cascade_);
  }

  // One dispatch frame covers everything this delivery triggers: emissions
  // made by consume hooks and by on_input both insert their delivery
  // blocks at this base, so they drain immediately after this delivery —
  // before any previously-pending delivery (e.g. to the emitter's other
  // consumers). Consume-hook emissions enqueue first and therefore pop
  // first (later blocks at the same base land below earlier ones), then
  // on_input emissions, each in emit order — the relative order the old
  // recursive dispatcher produced, which ran hook emissions before
  // on_input even started.
  const std::size_t saved_frame_base = current_frame_base_;
  current_frame_base_ = dispatch_stack_.size();

  // Consume hooks of the receiving component's features. The sample is
  // owned by this delivery (the emitter queued one copy per consumer), so
  // hooks mutate it in place — no defensive copy.
  Obs* const obs = obs_.get();
  const bool timing = obs != nullptr && obs->config.timing;
  const TypeInfo* original_type = sample.payload.type();
  for (const auto& f : c.features) {
    bool keep = false;
    if (timing) {
      const double t0 = now_wall_us();
      keep = f->consume(sample);
      obs->handles(c, consumer, *f).consume_us->observe(now_wall_us() - t0);
    } else {
      keep = f->consume(sample);
    }
    if (!keep) {
      // Emissions already made by earlier hooks stay queued (the recursive
      // dispatcher had delivered them before the veto, too).
      if (obs != nullptr && obs->config.metrics) {
        obs->handles(c, consumer).consume_vetoed->inc();
      }
      current_frame_base_ = saved_frame_base;
      arena_->harvest(sample);
      return;
    }
    if (sample.payload.type() != original_type) {
      current_frame_base_ = saved_frame_base;
      throw std::logic_error("feature '" + std::string(f->name()) +
                             "' changed the data type in consume()");
    }
  }

  count_delivery(c, consumer, sample);
  // End-to-end latency is observed when the sample *arrives* at a sink,
  // before it may move into the pending inputs: ingest→sink covers every
  // upstream hop but not the sink's own on_input (that is what on_input_us
  // measures). The exemplar is the delivered sample's identity — the key
  // of this delivery's kDeliver event in a flight dump.
  if (obs != nullptr && obs->config.latency && c.consumers.empty() &&
      sample.ingest_us != 0.0) {
    ComponentMetricHandles& h = obs->handles(c, consumer);
    if (h.e2e_latency_us != nullptr) {
      const double e2e = now_wall_us() - sample.ingest_us;
      h.e2e_latency_us->observe_with_exemplar(
          e2e, obs::pack_sample_exemplar(sample.producer, sample.sequence));
      if (h.deadline_miss != nullptr && e2e > obs->config.latency_slo_us) {
        h.deadline_miss->inc();
      }
    }
  }

  // Record provenance only for components that can emit; pure sinks
  // (applications) would otherwise accumulate pending inputs forever. The
  // sample moves in only where pending_owns_input() holds; otherwise
  // pending gets a copy and on_input reads this delivery's own sample.
  const Sample& input =
      c.records_provenance ? keep_pending(c, sample, pending_owns_input(c))
                           : sample;
  const double t0 = timing ? now_wall_us() : 0.0;
  invoke_on_input(c, consumer, input, saved_frame_base);
  if (timing) {
    obs->handles(c, consumer).on_input_us->observe(now_wall_us() - t0);
  }
  arena_->harvest_or_watch(sample, c.watch_slot);
}

}  // namespace perpos::core
