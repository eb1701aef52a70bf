#pragma once

#include "perpos/core/sample.hpp"

#include <cstddef>
#include <cstdint>

/// \file sentry.hpp
/// The dispatch-observation seam of the graph core.
///
/// The static analyzer (perpos::verify) proves properties of a snapshot;
/// the runtime Graph Sanitizer (perpos::sanitize) checks the matching
/// invariants on the *live* graph — thread affinity, logical-time
/// monotonicity, cascade bounds, provenance-buffer hygiene. The core
/// cannot depend on either, so it exposes this minimal observer interface
/// instead: a graph carries at most one GraphSentry, and every hot-path
/// call site is a single null-pointer check when none is installed (the
/// same pattern the observability hooks use).

namespace perpos::core {

/// One mutation, as reported to mutation observers (see
/// ProcessingGraph::add_mutation_observer). Observers learn what changed,
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
};

/// Observer of the graph's dispatch hot path. Implementations must be
/// cheap and must not throw, mutate the graph, or emit — they run inside
/// dispatch. Every callback runs on the thread driving the graph.
class GraphSentry {
 public:
  virtual ~GraphSentry() = default;

  /// A sample left a producer's output port (produce hooks already ran and
  /// kept it); called once per emission, before its deliveries queue up.
  virtual void on_emit(const Sample& sample) { (void)sample; }

  /// A delivery was accepted by `consumer` and is about to run its consume
  /// hooks + on_input. `queue_depth` is the current dispatch work-queue
  /// size; `cascade` counts accepted deliveries since the external
  /// emission that started the drain (1 = first).
  virtual void on_deliver(const Sample& sample, ComponentId consumer,
                          std::size_t queue_depth, std::uint64_t cascade) {
    (void)sample;
    (void)consumer;
    (void)queue_depth;
    (void)cascade;
  }

  /// The provenance arena was about to reuse a buffer listed as free that
  /// is still referenced — a release bookkeeping bug that would hand one
  /// buffer to two samples. The arena skips the slot instead; this
  /// callback makes the bug visible (PPS003).
  virtual void on_pool_double_release() {}
};

}  // namespace perpos::core
