#pragma once

#include "perpos/core/origin.hpp"
#include "perpos/core/payload.hpp"
#include "perpos/core/provenance.hpp"
#include "perpos/sim/clock.hpp"

#include <cstdint>
#include <string_view>

/// \file sample.hpp
/// A Sample is one data element travelling along a graph edge, together
/// with the metadata PerPos needs for its translucency features:
///
///  * `sequence` — the per-producer logical time (paper Sec. 2.2: "it is
///    possible for the Channel to assign a logical time unit to every layer
///    of the processing tree").
///  * `inputs` — provenance: the samples consumed to produce this one.
///    Following these links reconstructs the Channel data tree of Fig. 4,
///    including the "time range of the data used to generate the element".
///  * `origin` — kComponentOrigin unless the sample was added by a
///    Component Feature rather than by the component implementation itself;
///    such samples only propagate to consumers that explicitly declare they
///    accept input from that feature (paper Sec. 2.1, "Adding Data").
///    The origin is an interned symbol (see origin.hpp) so copying a sample
///    never allocates; feature_origin() materializes the name for display
///    and string-typed matching.

namespace perpos::core {

using ComponentId = std::uint32_t;
constexpr ComponentId kInvalidComponent = 0xffffffffu;

struct Sample {
  Payload payload;
  sim::SimTime timestamp;                 ///< Simulation time of production.
  ComponentId producer = kInvalidComponent;
  std::uint64_t sequence = 0;             ///< 1-based logical time at producer.
  OriginId origin = kComponentOrigin;     ///< Interned feature-origin symbol.

  /// The input samples this sample was derived from (null for sources):
  /// what its producer accepted since its previous emission, at most
  /// ProcessingGraph::kMaxPendingInputs — after a long drop run the data
  /// tree holds the newest inputs only. Refcounted (provenance.hpp), so
  /// provenance chains are cheap to copy with the sample.
  ProvenanceRef inputs;

  /// Cached logical-time range of `inputs`, stamped by the graph at emit
  /// time so DataTree construction never rescans the provenance vector.
  /// 0 means "no inputs" (sequences are 1-based). Only the graph sets
  /// `inputs`, and it always stamps this range with them.
  std::uint64_t cached_seq_min = 0;
  std::uint64_t cached_seq_max = 0;

  /// Wall-clock time (steady, microseconds) the *root* sample behind this
  /// one entered the graph; 0 unless the graph's latency knob is on. The
  /// graph stamps it on root emissions and propagates the minimum through
  /// provenance, so at a sink `now - ingest_us` is the end-to-end
  /// ingest→sink latency of the oldest contributing input.
  double ingest_us = 0.0;

  /// True when this sample was added by a Component Feature. Never
  /// allocates — this is the hot-path replacement for the old
  /// `feature_origin.empty()` test.
  bool feature_added() const noexcept { return origin != kComponentOrigin; }

  /// The feature-origin name ("" for component-emitted data). Interned —
  /// the view is valid for the process lifetime. Cold-path accessor (takes
  /// the intern-table lock); hot paths compare `origin` ids instead.
  std::string_view feature_origin() const { return origin_name(origin); }

  /// Lowest input sequence number contributing to this sample, or 0 when
  /// there are no inputs.
  std::uint64_t input_seq_min() const noexcept { return cached_seq_min; }
  /// Highest input sequence number contributing, or 0 when no inputs.
  std::uint64_t input_seq_max() const noexcept { return cached_seq_max; }
};

}  // namespace perpos::core
