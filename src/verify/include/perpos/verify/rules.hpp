#pragma once

#include "perpos/verify/diagnostic.hpp"
#include "perpos/verify/model.hpp"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file rules.hpp
/// The analyzer's rule catalog. Each rule is an independently testable
/// class with a stable id; the RuleRegistry owns the catalog and runs it
/// over a GraphModel.
///
/// Catalog (severities are the rule's strongest finding):
///   PPV000  config-error              error    config does not assemble
///   PPV001  requirement-starvation    error    input no upstream cap satisfies
///   PPV002  wildcard-ambiguity        warning  order-dependent wildcard match
///   PPV003  dead-output               warning  capability no consumer accepts
///   PPV004  unreachable-component     warning  source-less subgraph
///   PPV005  merge-fan-in              warning  fan-in arity suspicious
///   PPV006  cycle                     error    directed cycle in the process
///   PPV007  frame-mismatch            error    datum/frame mixup on an edge
///   PPV008  uncodable-remote-edge     error    cut edge without codec coverage
///   PPV009  cross-lane-edge           error    edge between execution lanes
///   PPV010  emit-amplification-cycle  error    feedback region amplifies > 1x
///   PPV011  hook-emit-reentrancy      warning  consume()/produce() emits re-enter
///   PPV012  non-monotonic-merge-input warning  merge input order not monotonic
///   PPV013  ack-cycle-deadlock        warning  reliable links form a host cycle
///   PPV014  lane-starvation           warning  one lane serializes N hot sinks
///   PPV015  hook-order-violation      error    feature deps missing / mis-ordered
///
/// Runtime sanitizer ids (findings produced by sanitize::GraphSanitizer on
/// the live graph; registered here for --list-rules and SARIF metadata so
/// one report can mix static and runtime findings):
///   PPS001  lane-ownership            error    graph driven off its lane thread
///   PPS002  time-regression           warning  per-channel logical time regressed
///   PPS003  pool-double-release       error    provenance buffer released twice
///   PPS004  emission-depth            error    one emission cascaded past bound
///   PPS005  queue-watermark           warning  dispatch/lane queue depth exceeded
///   PPS006  mutation-during-drain     error    graph mutated with engine tasks in
///                                              flight, outside a quiesce window
///
/// Quantitative budget ids (the PPQ family, computed by the abstract
/// rate/cost interpretation in budget.hpp over the same model):
///   PPQ001  lane-overload             error    lane utilization exceeds 1 core
///   PPQ002  queue-bound-exceeded      warning  static queue bound > watermark
///   PPQ003  latency-slo-infeasible    error    best-case path latency > SLO
///   PPQ004  rate-starved-sink         warning  required min input rate unreachable
///   PPQ005  unbounded-feedback-queue  error    gain >= 1 feedback region feeding
///                                              a bounded execution lane
///
/// Protocol-model ids (the PPM family, emitted by the bounded explicit-state
/// model checker in model_check.hpp / protocol_models.hpp; findings carry a
/// shortest-counterexample trace rendered as SARIF codeFlows):
///   PPM001  link-duplicate-delivery   error    reliable link delivered twice /
///                                              out of order
///   PPM002  link-delivery-liveness    error    reliable link lost a sample or
///                                              gave up below the retry bound
///   PPM003  hot-swap-isolation        error    swap protocol broke isolation,
///                                              quiesce, or sample retention
///   PPM004  (retired, reserved — the freeze/thaw plan model is gone)
///   PPM005  model-budget-exhausted    note     exploration truncated; model
///                                              unverified, not clean

namespace perpos::verify {

/// Per-node quantitative annotation (the `budget <component>` config verb,
/// or programmatic callers). Zeros / negative cost mean "unannotated".
struct BudgetAnnotation {
  double rate_lo_hz = 0.0;  ///< Pinned emission-rate interval; 0/0 = unset.
  double rate_hi_hz = 0.0;
  double cost_us = -1.0;    ///< Per-sample service cost; < 0 = calibration.
  double min_rate_hz = 0.0; ///< Required minimum input rate; 0 = none.

  friend bool operator==(const BudgetAnnotation&,
                         const BudgetAnnotation&) = default;
};

/// Knobs of the quantitative budget analysis (see budget.hpp). The
/// defaults keep unannotated graphs trivially within budget, so the PPQ
/// rules stay silent unless a config opts into rates/costs/SLOs.
struct BudgetOptions {
  /// Rate assumed for a source with neither a `budget rate=` annotation
  /// nor a nominal_rate_hz() of its own.
  double default_source_rate_hz = 1.0;
  /// Samples one source emission event produces (burst size); scales the
  /// static queue-depth bounds.
  double burst = 1.0;
  /// Queue-depth watermark the static bounds are checked against (PPQ002);
  /// 0 = unchecked. Mirrors exec::ExecutionEngine::set_queue_watermark /
  /// sanitize::SanitizerConfig::max_queue_depth.
  std::size_t queue_watermark = 0;
  /// End-to-end latency SLO in microseconds (PPQ003); 0 = none. Defaults
  /// from obs::ObservabilityConfig::latency_slo_us by the config front end.
  double latency_slo_us = 0.0;
  /// Component -> quantitative annotation, stamped onto the model's nodes
  /// by the verifier front end like hosts and lanes.
  std::map<core::ComponentId, BudgetAnnotation> annotations;
};

/// Tuning knobs for one analyzer run.
struct Options {
  /// Deployment partition: component -> host label. Empty host = local.
  /// Feeds the remoting-boundary rule (PPV008).
  std::map<core::ComponentId, std::string> hosts;

  /// Wire-codability predicate for PPV008. When unset, verify() installs
  /// the runtime payload codec (runtime::is_encodable_spec).
  std::function<bool(const core::DataSpec&)> encodable;

  /// Execution-lane assignment: component -> lane label, mirroring how
  /// the deployment maps graphs to exec::ExecutionEngine lanes. Empty
  /// label / missing entry = unassigned. Feeds the lane-affinity rule
  /// (PPV009): a direct edge between components on different lanes means
  /// two threads would drive one graph — cross-lane data must flow
  /// through DistributedDeployment links instead.
  std::map<core::ComponentId, std::string> lanes;

  /// PPV014: how many terminal consumers (hot sinks) one execution lane
  /// may serialize before lane starvation is reported.
  std::size_t max_sinks_per_lane = 4;

  /// Quantitative budget knobs (rates, costs, watermark, SLO) for the
  /// PPQ rule family and analyze_budget().
  BudgetOptions budget;

  /// Rule ids to skip (suppressions), e.g. {"PPV005"}.
  std::vector<std::string> disabled_rules;
};

/// One static check. Implementations are stateless; check() appends any
/// findings for `model` to `report`.
class Rule {
 public:
  virtual ~Rule() = default;

  virtual std::string_view id() const noexcept = 0;
  /// Short kebab-case name, e.g. "requirement-starvation".
  virtual std::string_view name() const noexcept = 0;
  /// One-line description (shown by --list-rules and in SARIF metadata).
  virtual std::string_view description() const noexcept = 0;
  /// The severity this rule's findings default to (SARIF metadata).
  virtual Severity default_severity() const noexcept = 0;

  virtual void check(const GraphModel& model, const Options& options,
                     Report& report) const = 0;

  /// True (the default) when findings depend only on the weakly-connected
  /// component (over edges + links) each finding's node belongs to. The
  /// incremental verifier re-runs local rules on dirty components only and
  /// replays cached findings for clean ones. Rules whose findings span
  /// components — PPV002 scans all nodes for match candidates, PPV013
  /// groups links by host, PPV014 totals sinks per lane — return false and
  /// run on the full model every recheck (they are cheap O(n) scans).
  virtual bool local() const noexcept { return true; }
};

class RuleRegistry {
 public:
  /// Register a rule; throws std::invalid_argument on duplicate ids.
  void add(std::unique_ptr<Rule> rule);

  const std::vector<std::unique_ptr<Rule>>& rules() const noexcept {
    return rules_;
  }
  const Rule* find(std::string_view id) const noexcept;

  /// Run every rule not disabled in `options` over `model`.
  Report run(const GraphModel& model, const Options& options) const;

  /// The built-in catalog (PPV000..PPV015 + PPS001..PPS006 +
  /// PPQ001..PPQ005), constructed once.
  static const RuleRegistry& default_catalog();

 private:
  std::vector<std::unique_ptr<Rule>> rules_;
};

/// A minimal triggering sketch for a rule id: a failing config fragment
/// for the static PPV/PPQ rules, a runtime scenario for the PPS sanitizer
/// rules. Empty view for unknown ids. Every id in the default catalog has
/// one — the catalog-completeness test enforces it, and perpos-verify
/// --explain prints it.
std::string_view rule_sketch(std::string_view id) noexcept;

}  // namespace perpos::verify
