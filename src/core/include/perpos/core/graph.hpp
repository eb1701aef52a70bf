#pragma once

#include "perpos/core/component.hpp"
#include "perpos/core/feature.hpp"
#include "perpos/core/sentry.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/sim/clock.hpp"

#include <cstdint>
#include <functional>
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
/// Two fast paths keep the common hop cheap without a second dispatcher: a
/// featureless single-consumer emission builds its sample in place in the
/// dispatch-stack slot, and a delivery nobody observes per hop (no consume
/// hooks, no sentry, no timing / latency) consumes that slot in place,
/// moving the sample straight into the consumer's pending inputs.
/// Provenance buffers come from a graph-owned arena that recycles them
/// once the last sample referencing them dies. A recycled buffer is
/// cleared only when its slot is handed out again, so the samples and
/// payloads of a dead provenance chain stay alive until then — at most
/// the arena's 4096 buffers per graph (plus the one-shot buffers those
/// samples reference) — rather than being destroyed with the last sample.
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
  std::uint64_t revision() const noexcept { return revision_; }

  /// Samples delivered (accepted by a consumer) since construction.
  std::uint64_t deliveries() const noexcept { return deliveries_; }

  /// The reconfiguration epoch: a coarse version counter advanced only at
  /// committed live reconfigurations (unlike revision(), which ticks on
  /// every structural mutation). Samples processed before a cutover ran
  /// under the old epoch; rollback(epoch) targets these values.
  std::uint64_t epoch() const noexcept { return epoch_; }
  /// Advance and return the new epoch. Called by the reconfiguration
  /// layer at commit points; harmless (but meaningless) elsewhere.
  std::uint64_t advance_epoch() noexcept { return ++epoch_; }

  /// Register a mutation observer, invoked after every mutation with what
  /// happened (see GraphMutation): structural changes and feature
  /// attach/detach. The Channel layer uses it to keep its derived view
  /// causally connected, the incremental verifier to mark dirty regions at
  /// O(delta). Observers run in registration order. Returns a token for
  /// remove_mutation_observer.
  std::size_t add_mutation_observer(
      std::function<void(const GraphMutation&)> observer);
  void remove_mutation_observer(std::size_t token);

  /// Install the dispatch sentry (the runtime sanitizer seam; see
  /// sentry.hpp). At most one sentry at a time; nullptr detaches. The
  /// sentry must stay valid until detached or the graph is destroyed.
  /// When none is installed the dispatch path pays one null check.
  void set_sentry(GraphSentry* sentry) noexcept;
  GraphSentry* sentry() const noexcept { return sentry_; }

  const sim::Clock* clock() const noexcept { return clock_; }

  // --- Observability -------------------------------------------------------
  //
  // When enabled, the graph records per-component runtime behaviour into an
  // obs::MetricsRegistry (samples emitted / delivered / rejected, hook
  // vetoes, on_input and feature-hook wall-time histograms) and — with
  // `recording` on — every emit and deliver into a flight ring, whose
  // Chrome trace links each delivery to its emission along the provenance
  // chain. When disabled (the default) the dispatch path pays a single
  // null-pointer check.

  /// Start (or reconfigure) observability. Metrics accumulated so far are
  /// kept when called repeatedly. Rejected during dispatch.
  void enable_observability(obs::ObservabilityConfig config = {});

  /// Drop the registry, the recorder and all accumulated data.
  void disable_observability();

  bool observability_enabled() const noexcept;

  /// The active configuration, or nullptr when disabled.
  const obs::ObservabilityConfig* observability_config() const noexcept;

  /// The registry (for custom instrumentation: components and features may
  /// publish their own metrics here), or nullptr when disabled.
  obs::MetricsRegistry* metrics_registry() const noexcept;

  /// PSL inspection API: a point-in-time snapshot of every metric. Empty
  /// when observability is disabled.
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

  // --- Used by ComponentContext / FeatureContext --------------------------

  /// Emit from a component (origin == kComponentOrigin) or from a feature
  /// (origin == the feature's interned name).
  void emit_from(ComponentId producer, Payload payload, OriginId origin);

 private:
  struct Entry;
  struct Obs;
  struct ProvenanceArena;

  /// One queued delivery: `sample` waiting to enter `consumer`.
  struct PendingDelivery {
    Sample sample;
    ComponentId consumer;
  };

  Entry& entry(ComponentId id);
  const Entry& entry(ComponentId id) const;
  bool would_cycle(ComponentId producer, ComponentId consumer) const;
  /// The instrumented delivery: consume hooks, sentry, timing and
  /// latency. Takes the sample popped off the dispatch stack.
  void deliver(Sample&& sample, ComponentId consumer);
  /// The lean delivery of the dispatch-stack top to `c` (see
  /// drain_dispatch_stack() for when it applies).
  void deliver_top(Entry& c);
  /// Fill `sample` for an emission from `e`: logical time, provenance,
  /// produce hooks and emit bookkeeping. False when a hook vetoed it.
  bool stamp_emission(Entry& e, ComponentId producer, Sample& sample,
                      Payload&& payload, OriginId origin);
  void count_rejection(Entry& c, ComponentId consumer);
  void count_delivery(Entry& c, ComponentId consumer, const Sample& sample);
  /// Add an accepted sample to `c`'s pending inputs (moved in or copied)
  /// and return the instance on_input should see.
  const Sample& keep_pending(Entry& c, Sample& sample, bool move);
  /// Whether `c`'s input may move into its pending inputs: every emission
  /// of its on_input then stays queued, keeping the claimed batch alive.
  static bool pending_owns_input(const Entry& c) noexcept;
  /// Run on_input with current_input set, restoring it and the frame base
  /// afterwards (also on a throw, which is recorded as a flight event).
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
  /// Cold half of flight-event recording; callers gate on
  /// `active_recorder_ != nullptr` so the disabled path is one null check.
  void record_flight(obs::FlightEventType type, std::uint32_t component,
                     std::uint64_t a = 0, std::uint64_t b = 0,
                     std::string_view detail = {}) noexcept;
  /// Re-derive `active_recorder_` after enable/disable/set calls.
  void refresh_active_recorder() noexcept;
  /// Structural mutation: counts and records it, then notifies observers.
  void notify_mutation(const GraphMutation& mutation);
  /// Walk the observers (feature attach/detach come here directly).
  void notify_observers(const GraphMutation& mutation);

  std::vector<std::unique_ptr<Entry>> entries_;
  std::vector<std::pair<std::size_t, std::function<void(const GraphMutation&)>>>
      observers_;
  std::size_t next_observer_token_ = 1;
  /// Depth of in-flight observer notifications. While non-zero,
  /// remove_mutation_observer tombstones entries (null fn) instead of
  /// erasing, so an observer that detaches itself — or any other observer
  /// — cannot invalidate the notifying iteration; the vector compacts when
  /// the outermost notification returns.
  std::size_t notify_depth_ = 0;
  bool observers_tombstoned_ = false;
  const sim::Clock* clock_;
  std::uint64_t revision_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t deliveries_ = 0;
  std::size_t live_count_ = 0;
  bool dispatching_ = false;
  GraphSentry* sentry_ = nullptr;
  /// Accepted deliveries since the external emission that started the
  /// current drain; reported to the sentry as the cascade size.
  std::uint64_t drain_cascade_ = 0;
  std::vector<PendingDelivery> dispatch_stack_;
  /// Stack index where the current dispatch frame began — a frame spans
  /// one whole delivery (consume hooks + on_input). Nested emissions
  /// insert their delivery blocks here, which makes the LIFO drain
  /// reproduce the old recursive dispatch order (consume-hook emissions
  /// before on_input emissions, emissions in emit order, each subtree
  /// fully propagated before the next).
  std::size_t current_frame_base_ = 0;
  /// Recycles the vector<Sample> buffers behind Sample::inputs. Buffers
  /// are shared, so one kept by a sample after graph death is simply
  /// freed by its last owner.
  std::unique_ptr<ProvenanceArena> arena_;
  std::unique_ptr<Obs> obs_;
  /// Monotone handle-cache generation; bumped on every enable so stale
  /// handles from an earlier registry are never reused after re-enable.
  std::uint64_t obs_generation_ = 0;
  /// Flight recorder wiring. `active_recorder_` caches "where do events
  /// go right now" (external > owned > none) so the hot path pays a single
  /// null check; the others remember the external attachment.
  obs::FlightRecorder* active_recorder_ = nullptr;
  obs::FlightRecorder* external_recorder_ = nullptr;
  std::uint32_t rec_lane_ = 0;
  std::uint32_t graph_tag_ = 0;
};

}  // namespace perpos::core
