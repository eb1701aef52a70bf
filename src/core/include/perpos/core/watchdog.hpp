#pragma once

#include "perpos/core/graph.hpp"
#include "perpos/core/health_state.hpp"
#include "perpos/sim/scheduler.hpp"

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// \file watchdog.hpp
/// The health verdict (paper Sec. 4: positioning technologies "do not
/// provide pervasive coverage" and fail partially — a GPS losing sky view
/// simply stops producing, it does not error).
///
/// The Watchdog derives a per-source HealthState from two counts the graph
/// keeps for every component anyway:
///  * emitted samples — every check it compares ProcessingGraph::emitted;
///    silence for longer than the configured deadlines walks the source
///    down kHealthy → kDegraded → kStale → kDead,
///  * failure events — when a threshold is set, a rate of
///    ProcessingGraph::failures (report_failure_event) above it over one
///    check interval marks the source at least kDegraded even while
///    samples still flow.
///
/// Reading counters costs the hot path nothing: no probe feature, no extra
/// hook, no observability. Checks run on the simulation scheduler, so
/// verdicts are deterministic and testable. This is the one verdict every
/// layer reads: the accessors here (PSL), the HealthChannelFeature (PCL),
/// PositioningService failover and provider_health() (PL) and the
/// LiveReconfigurator's post-swap probation. A scrape reads the verdicts as
/// the perpos_health_state{source} gauge; perpos_health_transitions_total
/// {from,to,source}, a split the watchdog does not keep, is pushed.

namespace perpos::core {

struct WatchdogConfig {
  sim::SimTime check_interval = sim::SimTime::from_millis(500);
  double degraded_after_s = 2.0;  ///< Silence before kDegraded.
  double stale_after_s = 5.0;     ///< Silence before kStale.
  double dead_after_s = 15.0;     ///< Silence before kDead.
  /// Failure events per second (averaged over one check interval) above
  /// which a source is at least kDegraded. Default: disabled.
  double failure_rate_threshold_hz = std::numeric_limits<double>::infinity();
};

class Watchdog {
 public:
  /// Invoked on every state transition of a watched source.
  using Listener = std::function<void(ComponentId source, HealthState from,
                                      HealthState to, sim::SimTime when)>;

  Watchdog(ProcessingGraph& graph, sim::Scheduler& scheduler,
           WatchdogConfig config = {});
  ~Watchdog();

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Supervise `source`. A source starts kHealthy with its silence clock
  /// at the time watch() was called. Throws for unknown components.
  void watch(ComponentId source);
  void unwatch(ComponentId source);
  bool watches(ComponentId source) const;
  std::vector<ComponentId> watched() const;

  /// Start periodic checks on the scheduler (idempotent).
  void start();
  /// Cancel the pending check (idempotent; state is kept).
  void stop();
  bool running() const noexcept { return running_; }

  /// One evaluation pass at the current simulation time. start() arranges
  /// for this to run every check_interval; tests may call it directly.
  void check_now();

  /// Current verdict; a source removed from the graph is kDead. Throws
  /// for sources not watched.
  HealthState state(ComponentId source) const;
  /// state(), or nullopt when `source` is not watched — one lookup, so a
  /// scrape on another thread reads a consistent answer.
  std::optional<HealthState> find_state(ComponentId source) const;
  /// Time of the source's most recent state change (zero if none yet).
  sim::SimTime last_transition(ComponentId source) const;
  /// Total state transitions across all watched sources.
  std::uint64_t transitions() const noexcept { return transitions_; }

  const WatchdogConfig& config() const noexcept { return config_; }
  sim::Scheduler& scheduler() const noexcept { return scheduler_; }

  std::size_t add_listener(Listener listener);
  void remove_listener(std::size_t token);

 private:
  struct Watched {
    std::uint64_t last_emitted = 0;
    sim::SimTime last_activity = sim::SimTime::zero();
    std::uint64_t last_failures = 0;
    HealthState state = HealthState::kHealthy;
    sim::SimTime last_transition = sim::SimTime::zero();
    std::string label;  ///< "<kind>#<id>", fixed at watch() time.
  };

  void schedule_next();
  void set_state(ComponentId id, Watched& w, HealthState next,
                 sim::SimTime now);
  /// Scrape time, any thread: the state gauge of each watched source.
  void collect(obs::MetricsSnapshot& out) const;

  ProcessingGraph& graph_;
  sim::Scheduler& scheduler_;
  WatchdogConfig config_;
  /// Guards watched_'s entries and states against a scrape: taken by the
  /// accessors and by watch, unwatch and check_now when they change them.
  mutable std::mutex mutex_;
  std::map<ComponentId, Watched> watched_;
  std::vector<std::pair<std::size_t, Listener>> listeners_;
  std::size_t next_listener_token_ = 1;
  std::uint64_t transitions_ = 0;
  sim::Scheduler::EventId pending_check_ = 0;
  bool running_ = false;
  /// Released first (declared last), so no scrape outlives watched_.
  obs::CollectorHandle metrics_source_;
};

}  // namespace perpos::core
