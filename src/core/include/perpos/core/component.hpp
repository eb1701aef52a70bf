#pragma once

#include "perpos/core/operations.hpp"
#include "perpos/core/payload.hpp"
#include "perpos/core/sample.hpp"

#include <string>
#include <string_view>
#include <vector>

/// \file component.hpp
/// Processing Components — the nodes of the reified positioning process
/// (paper Sec. 2.1). A component has N input ports and one output port,
/// declares input requirements and output capabilities so that port
/// connections are checked to be realizable, and emits data through the
/// context the graph provides on attachment.

namespace perpos::core {

class ProcessingGraph;

/// One kind of data available at an output port. `feature_tag` is empty for
/// data produced by the component implementation itself and carries the
/// feature name for data added by an attached Component Feature.
struct DataSpec {
  const TypeInfo* type = nullptr;
  std::string feature_tag;

  friend bool operator==(const DataSpec&, const DataSpec&) = default;
};

/// One requirement of an input port.
///
/// A requirement accepts a sample when the types match and the sample's
/// feature origin equals `feature_tag` — feature-added data is therefore
/// only delivered to components that explicitly declare they accept input
/// from that feature, as the paper specifies. A null `type` is a wildcard
/// accepting any type with the given origin ("" origin = any component
/// data); wildcard requirements are what application sinks use.
struct InputRequirement {
  const TypeInfo* type = nullptr;
  std::string feature_tag;
  bool optional = false;
  bool any_type = false;  ///< Wildcard: accept every type (sinks).

  /// Does this requirement accept a sample with the given spec?
  bool accepts(const TypeInfo* sample_type,
               std::string_view origin) const noexcept {
    if (origin != feature_tag) return false;
    return any_type || type == sample_type;
  }

  friend bool operator==(const InputRequirement&, const InputRequirement&) =
      default;
};

/// Convenience factories.
InputRequirement require(const TypeInfo* type, std::string feature_tag = "",
                         bool optional = false);
InputRequirement require_any();

template <typename T>
InputRequirement require(std::string feature_tag = "", bool optional = false) {
  return require(type_of<T>(), std::move(feature_tag), optional);
}

template <typename T>
DataSpec provide(std::string feature_tag = "") {
  return DataSpec{type_of<T>(), std::move(feature_tag)};
}

/// Runtime services the graph hands to an attached component.
class ComponentContext {
 public:
  ComponentContext() = default;
  ComponentContext(ProcessingGraph* graph, ComponentId id)
      : graph_(graph), id_(id) {}

  bool attached() const noexcept { return graph_ != nullptr; }
  ComponentId id() const noexcept { return id_; }
  ProcessingGraph* graph() const noexcept { return graph_; }

  /// Emit `payload` from this component's output port. The graph stamps
  /// logical time and provenance and delivers to accepting consumers.
  ///
  /// Called outside dispatch (a source pushing), every transitive
  /// delivery completes before emit() returns. Called during dispatch
  /// (nested emit from on_input or a feature hook), the emission is
  /// queued and delivered after the current on_input returns, in the old
  /// recursive order (emissions in emit order, each subtree fully
  /// propagated before the next) — so state mutated by consumers is NOT
  /// yet visible when a nested emit() returns.
  void emit(Payload payload) const;

  /// Current simulation time as seen by the graph.
  sim::SimTime now() const noexcept;

 private:
  ProcessingGraph* graph_ = nullptr;
  ComponentId id_ = kInvalidComponent;
};

/// Optional mixin for components whose data is expressed in a named
/// coordinate frame (a building-local frame, typically). The static
/// analyzer (perpos::verify, rule PPV007) compares the `output_frame` of a
/// producer with the `input_frame` of its consumers along every edge:
/// local-coordinate data produced against one building's frame must never
/// feed a component that interprets it against another building's frame —
/// a datum bug the type system cannot catch, because both sides just see
/// a LocalPosition. An empty string means "frame-neutral" (WGS84 or
/// non-spatial data) and matches everything.
class FrameAware {
 public:
  virtual ~FrameAware() = default;

  /// Frame in which this component interprets local-coordinate inputs;
  /// empty when inputs are frame-neutral.
  virtual std::string input_frame() const { return {}; }

  /// Frame of emitted local-coordinate data; empty when outputs are
  /// frame-neutral (e.g. WGS84 fixes).
  virtual std::string output_frame() const { return {}; }
};

/// Base class for nodes of the processing graph.
///
/// Implementations receive inputs through on_input() and emit through
/// context().emit(). A component with no input requirements is a source
/// (a sensor or emulator); sources typically emit from a method of their
/// own (driven by the simulation scheduler) rather than from on_input().
class ProcessingComponent {
 public:
  virtual ~ProcessingComponent() = default;

  /// Component kind, e.g. "GpsSensor", "Parser", "Interpreter". Used in
  /// graph dumps and channel naming; need not be unique.
  virtual std::string_view kind() const = 0;

  /// Input-port requirements. Evaluated when connections are made and when
  /// the dependency resolver assembles graphs. The graph compiles these
  /// into its per-delivery accept check when the component is added, so
  /// they must stay stable while the component is attached.
  virtual std::vector<InputRequirement> input_requirements() const = 0;

  /// Output-port capabilities of the implementation itself (capabilities
  /// added by features are tracked by the graph, not declared here). Must
  /// stay stable while attached (the graph caches whether this component
  /// records provenance).
  virtual std::vector<DataSpec> output_capabilities() const = 0;

  /// Called by the graph for every accepted incoming sample, after the
  /// consume hooks of attached features ran.
  virtual void on_input(const Sample& sample) = 0;

  /// Teardown hook: called with the context still valid (and, on remove(),
  /// with the component's edges still connected) right before the component
  /// leaves the graph — by ProcessingGraph::remove() and for every live
  /// component when the graph itself is destroyed. Components holding
  /// buffered data emit it here so nothing is silently lost; see
  /// FlakyLinkComponent::flush().
  virtual void on_teardown() {}

  // --- StateHandoff capability (live reconfiguration) ---------------------
  //
  // ProcessingGraph::replace() migrates a component's internal state to an
  // id-preserving successor through these two hooks. The defaults are
  // best-effort: a stateless component needs nothing, and a stateful one
  // that implements neither simply starts the successor cold (logical time
  // and pending provenance live in the graph's Entry and carry over
  // regardless — only implementation-private state needs the hooks).

  /// Serialize implementation-private state for a live handoff. Called by
  /// replace() after on_teardown() flushed buffered data downstream, so
  /// the blob should capture accumulated state (calibration, filters,
  /// counters), not in-flight samples. The format is the component's own;
  /// only the matching restore_state() ever reads it.
  virtual std::string serialize_state() const { return {}; }

  /// Restore state serialized by a predecessor (or by an earlier epoch of
  /// this component, on rollback). Called before the successor is wired
  /// into the graph; throwing aborts the swap and leaves the predecessor
  /// installed.
  virtual void restore_state(const std::string& blob) { (void)blob; }

  /// Components that conceptually merge data sources (fusion components)
  /// return true so the Channel layer treats them as channel end-points
  /// even while only one input is connected. Sources, sinks and nodes with
  /// >= 2 connected inputs are end-points automatically.
  virtual bool is_channel_endpoint() const { return false; }

  /// Expected number of emissions per accepted input — a declarative
  /// amplification annotation for the static analyzer (perpos::verify,
  /// rule PPV010). 1.0 (default) for map-style components, > 1 for
  /// splitters (a burst parser emitting one sample per NMEA sentence),
  /// < 1 for decimators and gates, 0 for pure sinks. The graph never
  /// enforces this; the analyzer multiplies it along feedback regions to
  /// flag unbounded queue growth.
  virtual double emit_multiplicity() const { return 1.0; }

  /// Nominal self-emission rate in samples per second for autonomous
  /// sources (sensors with a scheduler-driven tick). 0 (default) means
  /// "not a source" or "unknown". Like emit_multiplicity() this is a
  /// declarative annotation for the static analyzer: the quantitative
  /// budget pass (verify::analyze_budget) seeds rate propagation from it;
  /// config `budget` annotations override it.
  virtual double nominal_rate_hz() const { return 0.0; }

  /// The context is valid between attachment to and removal from a graph.
  const ComponentContext& context() const noexcept { return context_; }

  /// Designed method reflection (paper: "access to all methods available
  /// on the implementing classes"): components register the operations
  /// they expose; PSL tooling lists and invokes them by name.
  OperationTable& operations() noexcept { return operations_; }
  const OperationTable& operations() const noexcept { return operations_; }

 private:
  friend class ProcessingGraph;
  ComponentContext context_;
  OperationTable operations_;
};

}  // namespace perpos::core
