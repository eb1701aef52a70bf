#pragma once

#include "perpos/core/component.hpp"
#include "perpos/core/feature.hpp"
#include "perpos/core/observer.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/sim/clock.hpp"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

/// \file graph.hpp
/// The Process Structure Layer (paper Sec. 2.1): the positioning process
/// reified as a directed acyclic graph of Processing Components with a
/// causal connection — manipulating the graph immediately changes the
/// running positioning system.
///
/// Delivery is synchronous and deterministic: when a component emits, the
/// sample is (after produce hooks) pushed to every connected consumer whose
/// input requirements accept it, running that consumer's consume hooks and
/// then its on_input(). Dispatch is driven by an explicit per-graph work
/// stack rather than by recursion, so a 10k-stage pipeline costs heap, not
/// call stack; the stack is drained in depth-first order, which reproduces
/// exactly the delivery order of the old recursive dispatcher. The graph
/// stamps per-producer logical time and provenance links onto every sample,
/// which is what makes the Channel data trees of the PCL (Fig. 4)
/// reconstructible.
///
/// There is one executor: emit and deliver run directly over the graph's
/// own per-component records, so a mutation is in effect for the very next
/// emission — no lowered copy of the structure exists that could go stale.
/// One delivery routine serves every hop: a featureless single-consumer
/// emission builds its sample in place in the dispatch-stack slot, and a
/// delivery to a consumer without consume hooks consumes that slot in
/// place, moving the sample straight into the consumer's pending inputs.
/// Only consume hooks, which may emit onto the stack, make a delivery pop
/// its slot first. Instrumentation never picks the path: the graph counts
/// its own events per component (the metrics read those counts), and
/// timing, latency, the flight feed and the sanitizer are GraphObservers
/// told what happened (see observer.hpp).
/// Provenance buffers count their own references and return to the
/// graph's ProvenancePool on their last release, from any thread (see
/// provenance.hpp). A returned buffer is cleared only when it is reused or
/// the graph dies, so a dead provenance chain's samples live until then.
///
/// A ProcessingGraph is single-threaded by design: all mutation and all
/// emission must come from one thread at a time. Concurrency lives one
/// level up — exec::ExecutionEngine runs many graphs in parallel, one
/// affinity lane per graph, which preserves every in-graph invariant
/// (delivery order, logical time, provenance, feature hooks) untouched.

namespace perpos::core {

/// How ProcessingGraph::replace() migrates the victim's runtime state to
/// the successor (see the StateHandoff capability on ProcessingComponent).
enum class ReplaceHandoff {
  /// Pure structural swap: no teardown, no serialize/restore. Used to
  /// stage a successor for verification (and to reverse a rejected
  /// staging) without any observable emission.
  kNone,
  /// Run the victim's on_teardown() (flushing buffered data downstream
  /// while its edges are intact) but skip serialize/restore — the swap-in
  /// component keeps whatever state it already carries. This is the
  /// rollback path: the displaced predecessor retains its own state.
  kFlushOnly,
  /// Full migration: teardown-flush, then serialize the victim's state
  /// and restore it into the successor before wiring it in. A throwing
  /// restore_state() aborts the swap with the graph untouched.
  kFull,
};

/// Read-only snapshot of one node, used by inspection APIs and dumps.
struct ComponentInfo {
  ComponentId id = kInvalidComponent;
  std::string kind;
  std::vector<ComponentId> producers;  ///< Upstream neighbours.
  std::vector<ComponentId> consumers;  ///< Downstream neighbours.
  std::vector<std::string> feature_names;
  std::vector<DataSpec> capabilities;  ///< Declared + feature-added.
  std::uint64_t emitted = 0;           ///< Samples emitted so far.
};

class ProcessingGraph {
 public:
  /// `clock` provides sample timestamps; pass the simulation clock. When
  /// null, timestamps are all zero.
  explicit ProcessingGraph(const sim::Clock* clock = nullptr);
  ~ProcessingGraph();

  ProcessingGraph(const ProcessingGraph&) = delete;
  ProcessingGraph& operator=(const ProcessingGraph&) = delete;

  // --- Structure manipulation (paper: insert, delete, connect) -----------

  /// Add a component; the graph shares ownership. Returns its id.
  ComponentId add(std::shared_ptr<ProcessingComponent> component);

  /// Remove a component, disconnecting all its edges. The component's
  /// on_teardown() hook runs first, with its edges still connected, so
  /// buffered data can be flushed downstream. (The graph destructor calls
  /// on_teardown() for every live component too.)
  /// Throws std::invalid_argument for unknown ids.
  void remove(ComponentId id);

  /// Connect producer's output port to an input port of consumer.
  /// Throws std::invalid_argument when the connection is not realizable:
  /// unknown ids, self-loop, duplicate edge, no capability of the producer
  /// satisfies any requirement of the consumer, or the edge would create a
  /// cycle.
  ///
  /// Accept semantics: an edge is realizable when *any* producer capability
  /// satisfies *any* consumer requirement — deliberately permissive, so a
  /// fusion consumer can take each of its inputs from a different producer.
  /// The flip side is that a consumer with several mandatory requirements
  /// can end up fully connected yet have one requirement no upstream
  /// capability ever satisfies: every edge was individually realizable, but
  /// that input port will starve forever. connect() cannot see this (it
  /// judges one edge at a time); the static analyzer's requirement-
  /// starvation rule (perpos::verify, PPV001) checks the whole graph and
  /// reports starved ports as warnings.
  void connect(ComponentId producer, ComponentId consumer);

  /// Remove the edge producer->consumer (throws if absent).
  void disconnect(ComponentId producer, ComponentId consumer);

  /// Splice `node` into the existing edge producer->consumer:
  /// producer->node->consumer. Throws if the edge does not exist or either
  /// new edge is not realizable.
  void insert_between(ComponentId node, ComponentId producer,
                      ComponentId consumer);

  /// Swap the implementation behind `id` for `successor`, preserving the
  /// component id, every edge, every attached feature, the output port's
  /// logical time and the pending provenance — the primitive behind live
  /// hot-swap (see perpos::reconfig::LiveReconfigurator).
  ///
  /// Validation happens before anything mutates: `successor` must be
  /// non-null and unattached, every existing inbound edge must stay
  /// realizable against the successor's input requirements, and every
  /// outbound edge against its (plus the attached features') output
  /// capabilities. `policy` selects the state migration (ReplaceHandoff);
  /// under kFull a throwing serialize/restore aborts the swap with the
  /// predecessor still installed. Reports GraphMutation::Kind::kReplace.
  void replace(ComponentId id, std::shared_ptr<ProcessingComponent> successor,
               ReplaceHandoff policy = ReplaceHandoff::kFull);

  // --- Features -----------------------------------------------------------

  /// Attach a Component Feature to `host`. Throws when a feature with the
  /// same name is already attached or a required feature is missing.
  void attach_feature(ComponentId host,
                      std::shared_ptr<ComponentFeature> feature);

  /// Detach by name; throws when not attached.
  void detach_feature(ComponentId host, std::string_view name);

  /// The feature of dynamic type F attached to `host`, or nullptr. This is
  /// the "component appears to implement the feature's functionality"
  /// mechanism: callers obtain the feature interface through the component.
  template <typename F>
  F* get_feature(ComponentId host) const {
    for (const auto& f : features_of(host)) {
      if (auto* typed = dynamic_cast<F*>(f.get())) return typed;
    }
    return nullptr;
  }

  /// Feature looked up by name, or nullptr.
  ComponentFeature* get_feature(ComponentId host, std::string_view name) const;

  /// All features attached to `host`.
  const std::vector<std::shared_ptr<ComponentFeature>>& features_of(
      ComponentId host) const;

  // --- Inspection ----------------------------------------------------------

  /// Ids of all live components, in insertion order.
  std::vector<ComponentId> components() const;

  /// Snapshot of one component. Throws for unknown ids.
  ComponentInfo info(ComponentId id) const;

  /// The component object (for direct method access, which the PSL API
  /// explicitly supports). Throws for unknown ids.
  ProcessingComponent& component(ComponentId id) const;

  /// Shared ownership of the component behind `id` — what replace()-based
  /// undo records hold so a displaced implementation stays alive for a
  /// later rollback. Throws for unknown ids.
  std::shared_ptr<ProcessingComponent> component_ptr(ComponentId id) const;

  /// Typed access to the component implementation; nullptr on type
  /// mismatch.
  template <typename C>
  C* component_as(ComponentId id) const {
    return dynamic_cast<C*>(&component(id));
  }

  /// Components with no connected inputs (the leaves / sensors).
  std::vector<ComponentId> sources() const;
  /// Components with no connected outputs (the roots / applications).
  std::vector<ComponentId> sinks() const;
  /// Output capabilities: declared by the implementation plus feature-added.
  std::vector<DataSpec> capabilities(ComponentId id) const;

  bool has(ComponentId id) const noexcept;
  std::size_t size() const noexcept { return live_count_; }

  /// Monotone counter bumped by every structural mutation (add / remove /
  /// connect / disconnect). The Channel layer uses it to re-derive its view
  /// lazily, keeping the causal connection.
  std::uint64_t revision() const noexcept { return revision_.get(); }

  /// Samples delivered (accepted by a consumer and kept by its consume
  /// hooks) since construction: the sum of the components' counts.
  std::uint64_t deliveries() const noexcept;

  /// Samples `id` has emitted (ComponentInfo::emitted, without building
  /// the snapshot). Throws for unknown ids.
  std::uint64_t emitted(ComponentId id) const;
  /// Failure events reported against `id` (report_failure_event), counted
  /// whether or not observability is on. Throws for unknown ids.
  std::uint64_t failures(ComponentId id) const;
  /// Count one failure event against `id`; ids out of range are ignored.
  /// The count is atomic, so any thread may report (a scheduler timer as
  /// well as the dispatching lane), as long as no add() runs concurrently.
  void count_failure(ComponentId id) noexcept;

  /// The reconfiguration epoch: a coarse version counter advanced only at
  /// committed live reconfigurations (unlike revision(), which ticks on
  /// every structural mutation). Samples processed before a cutover ran
  /// under the old epoch; rollback(epoch) targets these values.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Advance and return the new epoch. Called by the reconfiguration
  /// layer at commit points; harmless (but meaningless) elsewhere.
  std::uint64_t advance_epoch() noexcept { return ++epoch_; }

  /// Register `observer`: on_mutation after every mutation (structural
  /// changes and feature attach/detach), plus the GraphObserver::Events in
  /// `events`. Observers run in registration order. A callback may add or
  /// remove observers, itself included: a removed one is not called again,
  /// an added one hears from the next event on. The observer must stay
  /// valid until removed or the graph dies. Throws std::invalid_argument
  /// when `observer` is already registered.
  void add_observer(GraphObserver& observer,
                    unsigned events = GraphObserver::kMutations);
  void remove_observer(GraphObserver& observer) noexcept;
  bool has_observer(const GraphObserver& observer) const noexcept;

  const sim::Clock* clock() const noexcept { return clock_; }

  // --- Observability -------------------------------------------------------
  //
  // The graph always counts, per component, the samples it emitted,
  // delivered and rejected, the ones its hooks vetoed and the pending
  // inputs it evicted (ComponentInfo::emitted, deliveries()). When enabled,
  // an obs::MetricsRegistry exports those counts at scrape time (`metrics`)
  // and a GraphObserver adds on_input and feature-hook wall-time histograms
  // and end-to-end latency; with `recording` on, a second one feeds every
  // emit and deliver into a flight ring, whose Chrome trace links each
  // delivery to its emission along the provenance chain. When disabled (the
  // default) neither is registered.

  /// Start (or reconfigure) observability. Metrics accumulated so far are
  /// kept when called repeatedly; the per-component and graph-wide counts
  /// start from zero when `metrics` is switched on, and a replace() that
  /// changes a component's kind starts a new series for the new kind.
  /// Rejected during dispatch.
  void enable_observability(obs::ObservabilityConfig config = {});

  /// Drop the registry, the recorder and all accumulated data.
  void disable_observability();

  bool observability_enabled() const noexcept;

  /// The active configuration, or nullptr when disabled.
  const obs::ObservabilityConfig* observability_config() const noexcept;

  /// The registry (for custom instrumentation: components and features may
  /// publish here what no one else counts — histograms, label splits their
  /// owner does not keep), or nullptr when disabled. A value its owner
  /// keeps is read at scrape through add_metrics_source instead.
  obs::MetricsRegistry* metrics_registry() const noexcept;

  /// Register a scrape-time source through which an owner that is not a
  /// graph entry (the PL, a reliable link, the reconfigurator, the
  /// watchdog) exports values it keeps. While `metrics` is on, metrics()
  /// runs it after the graph's own series are in the snapshot (a source may
  /// derive from them); its counters count from when `metrics` was switched
  /// on. Sources live on the graph, so they survive disable/enable. A
  /// source runs on the scraping thread, reads only what its owner writes
  /// race-free and adds or releases no source; it runs until the handle is
  /// released (either side may go first).
  [[nodiscard]] obs::CollectorHandle add_metrics_source(obs::Collector source);

  /// PSL inspection API: a point-in-time snapshot of every metric. Empty
  /// when observability is disabled. May run on any thread while the graph
  /// dispatches and mutates (not while observability is enabled or
  /// disabled): the counts are read without stopping dispatch.
  obs::MetricsSnapshot metrics() const;

  /// Record this graph's flight events (emit / deliver / mutation /
  /// on_input failure) into `recorder`'s ring `lane`. The graph is the
  /// only writer of that ring (graph dispatch is single-threaded), which
  /// is exactly the recorder's per-lane producer contract — in a
  /// multi-graph deployment every graph gets its own recorder lane.
  /// `graph_tag` labels the events (deployment-assigned id). Overrides the
  /// observability-owned recorder; nullptr reverts to it (or to none).
  void set_flight_recorder(obs::FlightRecorder* recorder, std::uint32_t lane,
                           std::uint32_t graph_tag = 0) noexcept;

  /// The active flight recorder: the externally attached one, else the one
  /// owned by enable_observability (config.recording), else nullptr.
  obs::FlightRecorder* flight_recorder() const noexcept;

  /// Drop a custom event onto this graph's flight ring (no-op without a
  /// recorder). The seam for layers above the graph — PositioningService
  /// records failover transitions here — so their events interleave, time-
  /// ordered, with the graph's own in one black-box dump. Must be called
  /// from the thread driving the graph (same producer contract as
  /// dispatch).
  void record_event(obs::FlightEventType type,
                    std::uint32_t component = 0xffffffffu, std::uint64_t a = 0,
                    std::uint64_t b = 0,
                    std::string_view detail = {}) noexcept;

  /// Most inputs a component keeps as the provenance of its next emission.
  /// One that drops its inputs evicts the oldest half at the cap, leaving a
  /// `provenance.evict` mark (component, evicted count) in the flight ring.
  static constexpr std::size_t kMaxPendingInputs = 4096;

  // --- Used by ComponentContext / FeatureContext --------------------------

  /// Emit from a component (origin == kComponentOrigin) or from a feature
  /// (origin == the feature's interned name).
  void emit_from(ComponentId producer, Payload payload, OriginId origin);

 private:
  struct Entry;
  class MetricsObserver;
  class FlightFeed;

  /// One queued delivery: `sample` waiting to enter `consumer`.
  struct PendingDelivery {
    Sample sample;
    ComponentId consumer;
  };

  struct ObserverSlot {
    GraphObserver* observer;  ///< Null: a tombstone.
    unsigned events;
  };

  Entry& entry(ComponentId id);
  const Entry& entry(ComponentId id) const;
  bool would_cycle(ComponentId producer, ComponentId consumer) const;
  /// Deliver the top of the dispatch stack to `c` (its consumer). The
  /// slot is consumed in place unless `c` has consume hooks, which may
  /// emit onto the stack: then the sample is popped into a local first.
  void deliver(Entry& c);
  /// Run `e`'s produce or consume hooks on `sample` (timed for timing
  /// observers); false when one vetoed it. A hook may modify the sample
  /// but not its data type.
  bool run_hooks(Entry& e, ComponentId host, Sample& sample, bool produce);
  /// Fill `sample` for an emission from `e`: logical time, provenance,
  /// produce hooks and emit bookkeeping. False when a hook vetoed it.
  bool stamp_emission(Entry& e, ComponentId producer, Sample& sample,
                      Payload&& payload, OriginId origin);
  /// Add an accepted sample to `c`'s pending inputs (moved in or copied,
  /// evicting the oldest half when full) and return the instance on_input
  /// should see.
  const Sample& keep_pending(Entry& c, ComponentId consumer, Sample& sample,
                             bool move);
  /// Run on_input with current_input set, restoring it and the frame base
  /// afterwards (also on a throw, which observers hear about).
  void invoke_on_input(Entry& c, ComponentId consumer, const Sample& input,
                       std::size_t saved_frame_base);
  /// Push deliveries of `sample` to every consumer of `e` onto the work
  /// stack (reverse order, so the LIFO drain visits consumers in
  /// connection order — the old recursive DFS order).
  void enqueue_deliveries(Sample&& sample, const Entry& e);
  /// Pop and deliver until the work stack is empty.
  void drain_dispatch_stack();
  /// Claim the provenance of the next emission from `e` into `sample`
  /// (pending inputs, or the in-flight input as fallback).
  void stamp_provenance(Entry& e, Sample& sample);
  void check_not_dispatching(const char* op) const;
  /// Call `call(observer)` for every observer subscribed to all `events`.
  template <typename Call>
  void notify(unsigned events, const Call& call);
  /// notify(kDispatch, call) behind one branch: the dispatch event sites.
  template <typename Call>
  void observe(const Call& call);
  /// Structural mutation or feature attach/detach: tell every observer.
  void notify_mutation(const GraphMutation& mutation);
  /// Drop tombstoned slots and recompute `observed_`.
  void compact_observers() noexcept;

  /// Recycles the buffers behind Sample::inputs. Declared first so it is
  /// closed last, after every sample the entries and the stack held.
  std::unique_ptr<ProvenancePool, ProvenancePool::Closer> pool_;
  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<ObserverSlot> observers_;
  /// Union of the observers' events (tombstones count until compacted):
  /// each dispatch event site tests its bit, so a graph without dispatch
  /// observers pays one branch.
  unsigned observed_ = GraphObserver::kMutations;
  /// Depth of in-flight notifications. While non-zero, remove_observer
  /// tombstones slots instead of erasing, so an observer that removes
  /// itself — or any other observer — cannot invalidate the notifying
  /// walk; the list compacts when the outermost notification returns.
  std::size_t notify_depth_ = 0;
  bool observers_tombstoned_ = false;
  const sim::Clock* clock_;
  /// add_metrics_source's sources, run by the metrics collector.
  obs::CollectorSet metrics_sources_;
  obs::Tally revision_;  ///< Also the metrics' mutation count.
  std::uint64_t epoch_ = 0;
  std::size_t live_count_ = 0;
  bool dispatching_ = false;
  /// Accepted deliveries since the external emission that started the
  /// current drain; reported to observers as the cascade size.
  std::uint64_t drain_cascade_ = 0;
  std::vector<PendingDelivery> dispatch_stack_;
  /// Stack index where the current dispatch frame began — a frame spans
  /// one whole delivery (consume hooks + on_input). Nested emissions
  /// insert their delivery blocks here, which makes the LIFO drain
  /// reproduce the old recursive dispatch order (consume-hook emissions
  /// before on_input emissions, emissions in emit order, each subtree
  /// fully propagated before the next).
  std::size_t current_frame_base_ = 0;
  /// enable_observability's config, registry and owned recorder; null
  /// while observability is disabled.
  std::unique_ptr<MetricsObserver> metrics_;
  /// The flight-event observer, created on first use.
  std::unique_ptr<FlightFeed> flight_;
};

}  // namespace perpos::core
