#pragma once

#include "perpos/core/sample.hpp"

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file observer.hpp
/// The graph's one hook: its timing / latency observer and flight feed,
/// the Channel layer, the incremental verifier and the runtime Graph
/// Sanitizer all register a GraphObserver. Observers are told what
/// happened; they never choose how a sample is delivered, and counting is
/// not their job: the graph keeps its own per-component counts (emitted,
/// delivered, rejected, vetoed, evicted), which the metrics read at scrape
/// time. Without a dispatch subscriber every dispatch event site is one
/// predictable branch.

namespace perpos::core {

class ComponentFeature;

/// One mutation, as reported to GraphObserver::on_mutation: what changed,
/// which is what incremental re-verification needs to mark dirty regions.
struct GraphMutation {
  enum class Kind {
    kAdd,            ///< Component `a` added.
    kRemove,         ///< Component `a` removed (edges already cut).
    kConnect,        ///< Edge `a` -> `b` connected.
    kDisconnect,     ///< Edge `a` -> `b` disconnected.
    kFeatureAttach,  ///< A feature was attached to host `a`.
    kFeatureDetach,  ///< A feature was detached from host `a`.
    kReplace,        ///< Component `a`'s implementation was swapped in
                     ///< place (id, edges and features preserved).
  };
  Kind kind = Kind::kAdd;
  ComponentId a = kInvalidComponent;
  ComponentId b = kInvalidComponent;  ///< Consumer for edge events.

  /// False for feature attach/detach, which leave the structure as it is.
  bool structural() const noexcept {
    return kind != Kind::kFeatureAttach && kind != Kind::kFeatureDetach;
  }
};

/// Observer of one ProcessingGraph (see ProcessingGraph::add_observer).
/// Callbacks must be cheap and must not throw; dispatch callbacks must not
/// mutate the graph or emit. Every callback runs on the thread driving the
/// graph.
class GraphObserver {
 public:
  /// What the graph reports besides mutations, chosen at add_observer.
  enum Events : unsigned {
    kMutations = 0,
    kDispatch = 1u << 0,    ///< The dispatch events but on_accept.
    kAccept = 1u << 1,      ///< on_accept, once per accepted delivery.
    kTiming = 1u << 2,      ///< The timing events (the graph reads a clock).
    kIngestTime = 1u << 3,  ///< Root emissions stamp Sample::ingest_us.
  };

  virtual ~GraphObserver() = default;

  /// A structural mutation or feature attach/detach took effect.
  virtual void on_mutation(const GraphMutation& /*mutation*/) {}

  // --- Dispatch (kDispatch) -------------------------------------------------

  /// A sample left a producer's output port (produce hooks already ran and
  /// kept it); called once per emission, before its deliveries queue up.
  virtual void on_emit(const Sample& /*sample*/) {}

  /// (kAccept) A delivery was accepted by `consumer` and is about to run
  /// its consume hooks. `queue_depth` is the number of deliveries still
  /// queued behind it; `cascade` counts accepted deliveries since the
  /// external emission that started the drain (1 = first).
  virtual void on_accept(const Sample& /*sample*/, ComponentId /*consumer*/,
                         std::size_t /*queue_depth*/,
                         std::uint64_t /*cascade*/) {}

  /// The consume hooks kept the sample; `consumer`'s on_input runs next.
  virtual void on_deliver(const Sample&, ComponentId /*consumer*/) {}

  /// `consumer`'s on_input threw while processing `producer`'s sample
  /// `sequence`; `what` is the exception message.
  virtual void on_input_failed(ComponentId /*consumer*/,
                               ComponentId /*producer*/,
                               std::uint64_t /*sequence*/,
                               std::string_view /*what*/) {}

  /// `consumer` dropped its inputs long enough that the oldest `evicted`
  /// of them left its pending provenance.
  virtual void on_evict(ComponentId /*consumer*/, std::size_t /*evicted*/) {}

  /// The provenance pool skipped a returned buffer that is still
  /// referenced: a release bookkeeping bug (PPS003).
  virtual void on_pool_double_release() {}

  // --- Timing (kTiming) -----------------------------------------------------

  /// `consumer`'s on_input returned after `us` microseconds.
  virtual void on_input_time(ComponentId /*consumer*/, double /*us*/) {}

  /// One produce or consume hook of `feature` on `host` took `us`.
  virtual void on_hook_time(ComponentId /*host*/,
                            const ComponentFeature& /*feature*/,
                            bool /*produce*/, double /*us*/) {}
};

}  // namespace perpos::core
