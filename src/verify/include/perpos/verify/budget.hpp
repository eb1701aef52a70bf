#pragma once

#include "perpos/verify/model.hpp"
#include "perpos/verify/rules.hpp"

#include <map>
#include <string>
#include <string_view>
#include <vector>

/// \file budget.hpp
/// The quantitative half of the static analyzer: an abstract
/// interpretation over the GraphModel in the domain of rate intervals.
///
/// The structural rules (PPV) answer yes/no questions; the production
/// risks of a positioning middleware — overload, unbounded queues, blown
/// latency SLOs, skewed lanes — are quantitative. This pass propagates
/// interval-valued sample rates from the sources through every edge and
/// deployment link (multiplying each node's emit_per_input gain, summing
/// merge fan-in, and closing feedback regions with the geometric-series
/// factor 1/(1-g) of their SCC gain product g — divergent when g >= 1),
/// combines them with per-node service costs (config-annotated `cost_us`,
/// defaulting from a small per-kind calibration table), and derives:
///
///   * per-lane utilization intervals (busy core-fraction),
///   * worst-case steady-state queue-depth bounds per lane and for the
///     per-graph dispatch work queue,
///   * best-case end-to-end latency along every source -> sink path.
///
/// The PPQ rule family (rules.cpp) turns these numbers into catalog
/// findings; perpos-verify --budget prints the raw report; perpos-plan
/// uses plan_lanes() to propose a placement.
///
/// Soundness. The queue bounds count the deliveries one source emission
/// event cascades into, assuming the engine's documented
/// drain-between-events discipline (exec::ExecutionEngine::drive — lanes
/// drain before the next scheduler event fires): under it, the dispatch
/// work queue never holds more than one cascade, so the static bound
/// dominates the runtime high-water marks the GraphSanitizer and the
/// execution engine's lane queue peaks observe. The cross-validation suite (tests/
/// test_budget.cpp) asserts exactly that against live chaos workloads.
/// Rates on the hi side are upper bounds (gains and fan-in are summed at
/// their annotated maxima); unannotated values use conservative defaults.

namespace perpos::verify {

/// A closed interval of rates in samples/sec. hi may be +infinity (a
/// divergent feedback region).
struct RateInterval {
  double lo = 0.0;
  double hi = 0.0;

  RateInterval& operator+=(const RateInterval& other) {
    lo += other.lo;
    hi += other.hi;
    return *this;
  }
  RateInterval scaled(double factor) const {
    return RateInterval{lo * factor, hi * factor};
  }

  friend bool operator==(const RateInterval&, const RateInterval&) = default;
};

struct NodeBudget {
  core::ComponentId id = core::kInvalidComponent;
  std::string name;
  std::string lane;            ///< Empty = unassigned.
  RateInterval in_rate;        ///< Deliveries/sec arriving at the node.
  RateInterval out_rate;       ///< Samples/sec emitted downstream.
  double cost_us = 0.0;        ///< Effective per-sample service cost.
  bool cost_calibrated = false;  ///< True when cost came from the table.
  RateInterval busy;           ///< Core-fraction spent servicing.
  /// Max over sources of deliveries landing here from one emission burst.
  double deliveries_per_burst = 0.0;
};

struct LaneBudget {
  std::string lane;
  std::vector<core::ComponentId> members;
  RateInterval utilization;  ///< Sum of member busy fractions.
  /// Worst-case steady-state queue depth (samples) under the
  /// drain-between-events discipline; +infinity for divergent feedback.
  double queue_bound = 0.0;
};

struct PathBudget {
  std::vector<core::ComponentId> path;  ///< Source first, sink last.
  std::string label;                    ///< "gps -> parser -> app".
  /// Best-case service latency: the sum of per-node costs along the path
  /// (feedback regions amortized by their geometric factor); +infinity
  /// when the path crosses a divergent region. Queueing adds on top, so
  /// latency_us > SLO means the SLO is infeasible, not merely at risk.
  double latency_us = 0.0;
};

struct BudgetReport {
  std::vector<NodeBudget> nodes;
  std::vector<LaneBudget> lanes;   ///< Assigned lanes only, by label.
  std::vector<PathBudget> paths;   ///< Every source -> sink path (capped).
  /// Worst-case per-graph dispatch work-queue depth: the max over sources
  /// of the total deliveries one emission burst cascades into.
  double dispatch_queue_bound = 0.0;
  /// True when path enumeration hit its cap (kMaxPaths); the report then
  /// covers a prefix, not everything — callers must say so.
  bool paths_truncated = false;

  const NodeBudget* node(core::ComponentId id) const noexcept;
  const LaneBudget* lane(std::string_view label) const noexcept;
};

/// Path-enumeration cap; beyond it paths_truncated is set.
inline constexpr std::size_t kMaxPaths = 256;

/// Per-kind service-cost calibration in microseconds (measured with the
/// bench suite on the reference container; treat as relative weights).
/// Unknown kinds fall back to a generic transform cost; `sink` selects
/// the application-callback estimate for nodes with no capabilities.
double calibrated_cost_us(std::string_view kind, bool sink = false);

/// Run the abstract interpretation. Annotations are taken from
/// options.budget.annotations when present, from the stamped node fields
/// otherwise (mirroring how lanes resolve) — so both prepared models and
/// hand-built test models work.
BudgetReport analyze_budget(const GraphModel& model, const Options& options);

/// Human-readable per-lane / per-path report (perpos-verify --budget).
std::string budget_to_text(const BudgetReport& report);
/// The same report as a JSON object (embedded by to_json/to_sarif).
std::string budget_to_json(const BudgetReport& report);

/// A proposed lane assignment (perpos-plan).
struct LanePlan {
  /// Every node -> proposed lane label ("lane0".."laneN-1").
  std::map<core::ComponentId, std::string> lanes;
  double max_utilization_before = 0.0;  ///< Using the current assignment.
  double max_utilization_after = 0.0;   ///< Using the proposal.
};

/// Greedy longest-processing-time bin packing of weak components onto
/// `lane_count` lanes, minimizing the max per-lane utilization. Placement
/// granularity is the weak component: splitting one would create
/// synchronous cross-lane edges (PPV009). Utilizations use the hi end of
/// each node's busy interval.
LanePlan plan_lanes(const GraphModel& model, const Options& options,
                    std::size_t lane_count);

}  // namespace perpos::verify
