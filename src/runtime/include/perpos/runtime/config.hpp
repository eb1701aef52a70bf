#pragma once

#include "perpos/core/positioning.hpp"
#include "perpos/core/watchdog.hpp"
#include "perpos/runtime/assembler.hpp"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

/// \file config.hpp
/// Declarative, text-based graph configuration.
///
/// Paper Sec. 2.1: port connections "are established either by direct
/// calls to the graph manipulation API, based on explicitly defined system
/// level configurations or through dynamic resolution of dependencies".
/// This module is the second path: a line-oriented config declares named
/// component instances and explicit edges; a trailing `resolve` directive
/// optionally lets the dependency resolver wire anything left open.
///
/// Syntax (one statement per line, '#' starts a comment):
///   component <name> <kind> [arg...]
///   connect <producer-name> <consumer-name>
///   resolve
///   observe [metrics] [timing] [latency] [recording] [tracing]
///           [slo_us=<number>] [all]
///   health [key=value ...]
///   reconfig [key=value ...]
///   plan [key=value ...]
///   host <host-name> <component-name>...
///   budget <component-name> [rate=<hz>|<lo>..<hi>] [cost_us=<n>]
///          [min_rate=<hz>]
///   budget * [source_rate=<hz>] [burst=<n>] [watermark=<n>] [slo_us=<n>]
///   verify
///
/// `observe` enables graph observability (perpos::obs). With no flags it
/// turns on metrics and timing; `all` turns on metrics, timing, latency
/// and recording. `latency` stamps root emissions and observes end-to-end
/// ingest→sink latency at sinks (slo_us=N additionally counts deadline
/// misses against an N-µs SLO); `recording` attaches a flight recorder
/// whose ring captures recent emit/deliver/mutation events for black-box
/// dumps and flow traces. `tracing` is accepted as a synonym of
/// `recording`, which export_config writes instead.
///
/// `health` declares fault-tolerance thresholds (see HealthSettings). The
/// parser only records them in ConfigResult::health — wiring them into a
/// core::Watchdog / PositioningService / reliable links is the caller's
/// choice, keeping the config layer free of a dependency on perpos::health.
///
/// `reconfig` declares live-reconfiguration policy (see ReconfigSettings).
/// As with `health`, the parser only records the settings in
/// ConfigResult::reconfig — constructing a reconfig::LiveReconfigurator
/// from them is the caller's choice, keeping the config layer free of a
/// dependency on perpos::reconfig.
///
/// `plan` declares the verify-gate policy (see PlanSettings). As with
/// `health` and `reconfig`, the parser only records the settings in
/// ConfigResult::plan — arming the graph's verify gate
/// (verify::IncrementalVerifier::of(graph)->freeze()) is the caller's
/// choice, keeping the config layer free of a dependency on perpos::verify.
/// Numbers in every settings line must be finite; counts must also be
/// non-negative and at most 2^53.
///
/// `host` declares the intended deployment partition: every named
/// component is pinned to the given host. The parser only records the
/// partition in ConfigResult::hosts — DistributedDeployment wiring stays
/// with the caller — but the static analyzer uses it to check that every
/// host-crossing edge carries wire-codable data (rule PPV008).
///
/// `lane` declares the intended execution-lane assignment: every named
/// component runs on the given exec::ExecutionEngine lane. As with
/// `host`, the parser only records the plan (ConfigResult::lanes) — lane
/// creation and posting stay with the caller — but the static analyzer
/// uses it for the lane-affinity rules (PPV009 cross-lane edges, PPV014
/// lane starvation).
///
/// `budget` annotates the quantitative rate/cost model the static
/// analyzer's PPQ rules and `perpos-verify --budget` consume. A component
/// form pins an emission rate (a number or a `lo..hi` interval), declares
/// a per-sample service cost, or a required minimum input rate; the `*`
/// form sets analysis-wide defaults — unannotated source rate, burst
/// size, the queue watermark the static bounds are checked against
/// (PPQ002) and the end-to-end latency SLO (PPQ003; `observe slo_us=` is
/// its runtime twin and seeds the same check when no `budget *` SLO is
/// given). As with `health`, the parser only records the annotations
/// (ConfigResult::budgets / budget_defaults) — the analyzer front end
/// copies them into verify::BudgetOptions, keeping this layer free of a
/// dependency on perpos::verify.
///
/// `verify` requests static analysis of the assembled graph. Like
/// `health`, the parser only records the request (ConfigResult::
/// verify_requested); running the analyzer is the caller's choice (see
/// perpos::verify::verify_config / assemble_verified), keeping this layer
/// free of a dependency on perpos::verify.

namespace perpos::runtime {

/// Maps component kind names to factories. Factories receive the extra
/// tokens of the `component` line.
class ComponentFactoryRegistry {
 public:
  using Factory = std::function<std::shared_ptr<core::ProcessingComponent>(
      const std::vector<std::string>& args)>;

  /// Register a factory; throws on duplicate kinds.
  void register_kind(std::string kind, Factory factory);

  bool has(const std::string& kind) const {
    return factories_.contains(kind);
  }

  /// Instantiate; throws std::invalid_argument for unknown kinds.
  std::shared_ptr<core::ProcessingComponent> create(
      const std::string& kind, const std::vector<std::string>& args) const;

  std::vector<std::string> kinds() const;

 private:
  std::map<std::string, Factory> factories_;
};

/// Fault-tolerance thresholds declared by a `health` config line. All
/// durations are seconds. The silence deadlines match core::WatchdogConfig,
/// `hold_s` matches core::FailoverConfig and the retry settings match the
/// health module's ReliableLinkConfig; the check interval defaults to 1 s,
/// where a default-constructed WatchdogConfig checks every 0.5 s.
struct HealthSettings {
  double degraded_after_s = 2.0;  ///< No samples for this long: kDegraded.
  double stale_after_s = 5.0;     ///< ...kStale (failover trigger).
  double dead_after_s = 15.0;     ///< ...kDead.
  double hold_s = 5.0;       ///< Sustained recovery needed before fail-back.
  double check_interval_s = 1.0;  ///< Health evaluation cadence.
  int max_retries = 8;            ///< Reliable link retransmission budget.
  double ack_timeout_ms = 100.0;  ///< Reliable link initial ack timeout.

  friend bool operator==(const HealthSettings&,
                         const HealthSettings&) = default;

  /// The verdict's subset, ready for a core::Watchdog.
  core::WatchdogConfig watchdog() const {
    core::WatchdogConfig cfg;
    cfg.check_interval = sim::SimTime::from_seconds(check_interval_s);
    cfg.degraded_after_s = degraded_after_s;
    cfg.stale_after_s = stale_after_s;
    cfg.dead_after_s = dead_after_s;
    return cfg;
  }

  /// The failover subset, ready for PositioningService::enable_failover.
  core::FailoverConfig failover() const { return {hold_s}; }
};

/// Live-reconfiguration policy declared by a `reconfig` config line.
/// Field-for-field mirror of reconfig::ReconfigOptions (kept as plain
/// numbers here so the config layer stays independent of perpos::reconfig;
/// the caller copies them across when building a LiveReconfigurator).
struct ReconfigSettings {
  bool verify = true;         ///< Gate swaps on incremental re-verification.
  std::size_t history = 8;    ///< Bounded undo history (committed epochs).
  std::size_t tee_samples = 0;       ///< A/B tee promotion quota (0 = off).
  std::size_t probation_checks = 0;  ///< Watchdog probation window (0 = off).

  friend bool operator==(const ReconfigSettings&,
                         const ReconfigSettings&) = default;
};

/// Verify-gate policy declared by a `plan` config line: the freeze request
/// and the gate's auto_refreeze setting (plain bools keep the config layer
/// independent of perpos::verify; the caller applies them to the graph's
/// verify::IncrementalVerifier and calls freeze() after assembly).
struct PlanSettings {
  bool freeze = true;         ///< Verify and arm the gate after assembly.
  bool auto_refreeze = true;  ///< Re-verify automatically after mutations.

  friend bool operator==(const PlanSettings&, const PlanSettings&) = default;
};

/// Per-component quantitative annotation from a `budget <name>` config
/// line. Field-for-field mirror of verify::BudgetAnnotation (plain
/// numbers keep the config layer independent of perpos::verify; the
/// analyzer front end copies them across, as ConfigResult::reconfig does
/// for reconfig::ReconfigOptions). Zero rates / negative cost = unset.
struct BudgetAnnotation {
  double rate_lo_hz = 0.0;  ///< Pinned emission-rate interval; 0/0 = unset.
  double rate_hi_hz = 0.0;
  double cost_us = -1.0;    ///< Per-sample service cost; < 0 = calibrated.
  double min_rate_hz = 0.0; ///< Required minimum input rate; 0 = none.

  friend bool operator==(const BudgetAnnotation&,
                         const BudgetAnnotation&) = default;
};

/// Analysis-wide quantitative defaults from a `budget *` config line;
/// mirror of the scalar half of verify::BudgetOptions.
struct BudgetDefaults {
  double source_rate_hz = 1.0;     ///< Rate of unannotated sources.
  double burst = 1.0;              ///< Samples per source emission event.
  std::size_t queue_watermark = 0; ///< Static queue-bound check; 0 = off.
  double latency_slo_us = 0.0;     ///< End-to-end latency SLO; 0 = none.

  friend bool operator==(const BudgetDefaults&,
                         const BudgetDefaults&) = default;
};

struct ConfigResult {
  /// Instantiated names and ids, explicit edges, resolver edges.
  AssemblyReport report;
  /// One entry per rejected line: "line N: message". Empty = success.
  std::vector<std::string> errors;
  /// Set when the config contained a (valid) `health` line.
  std::optional<HealthSettings> health;
  /// Set when the config contained a (valid) `reconfig` line.
  std::optional<ReconfigSettings> reconfig;
  /// Set when the config contained a (valid) `plan` line.
  std::optional<PlanSettings> plan;
  /// Component name -> host name, from `host` lines.
  std::map<std::string, std::string> hosts;
  /// Component name -> execution-lane name, from `lane` lines.
  std::map<std::string, std::string> lanes;
  /// Component name -> quantitative annotation, from `budget <name>` lines.
  std::map<std::string, BudgetAnnotation> budgets;
  /// Set when the config contained a (valid) `budget *` line.
  std::optional<BudgetDefaults> budget_defaults;
  /// True when the config contained a `verify` line.
  bool verify_requested = false;

  bool ok() const noexcept { return errors.empty() && report.ok(); }
};

/// Parse `text` and build the configuration into `graph`. Errors are
/// collected per line (the rest of the config still applies); connection
/// failures (unknown names, incompatible ports) are reported, not thrown.
ConfigResult assemble_from_config(const std::string& text,
                                  const ComponentFactoryRegistry& registry,
                                  core::ProcessingGraph& graph);

/// Render the current graph structure as a config (the inverse of
/// assemble_from_config, for snapshotting a live system). Component names
/// are "<kind>_<id>"; kinds are the components' kind() strings, so the
/// output re-assembles only against a registry that maps those kinds.
/// When `health` is non-null a `health` line with every setting is
/// appended, so settings round-trip through export and re-parse. When
/// `hosts` is non-null, `host` lines record the deployment partition
/// (component id -> host name; see DistributedDeployment::assignments),
/// so an exported snapshot carries enough for the static analyzer's
/// remoting-boundary rule. Likewise `lanes` (component id -> lane name)
/// becomes `lane` lines for the lane-affinity rules, and a non-null
/// `reconfig` appends a `reconfig` line with every setting. A non-null
/// `budgets` emits one `budget` line per component with any annotation
/// set, and a non-null `budget_defaults` a `budget *` line, so the
/// quantitative model round-trips through export and re-parse. A non-null
/// `plan` appends a `plan` line with every setting. Numbers are written in
/// 6 significant digits when that reads back exactly, else in 17.
std::string export_config(const core::ProcessingGraph& graph,
                          const HealthSettings* health = nullptr,
                          const std::map<core::ComponentId, std::string>*
                              hosts = nullptr,
                          const std::map<core::ComponentId, std::string>*
                              lanes = nullptr,
                          const ReconfigSettings* reconfig = nullptr,
                          const std::map<core::ComponentId, BudgetAnnotation>*
                              budgets = nullptr,
                          const BudgetDefaults* budget_defaults = nullptr,
                          const PlanSettings* plan = nullptr);

}  // namespace perpos::runtime
