#pragma once

#include <string_view>

/// \file health_state.hpp
/// The shared health vocabulary. The paper's Sec. 4 motivates adaptation
/// with exactly the failure modes this models: "positioning technologies
/// do not provide pervasive coverage ... positions delivered can be
/// erroneous due to signal noise, delays, or faulty system calibration".
/// One core::Watchdog (watchdog.hpp) computes the verdict per source from
/// the graph's own emitted and failure counts, and every layer reads that
/// verdict: the PSL through the Watchdog's accessors and listeners (the
/// LiveReconfigurator's probation among them), the PCL through
/// health::HealthChannelFeature, and the Positioning Layer through
/// PositioningService failover and provider_health().

namespace perpos::core {

/// Per-source health verdict, ordered by severity. Derived from deadlines
/// on sample arrival (how long since the source last produced) and from
/// failure-event rates; the exact thresholds are configuration.
enum class HealthState {
  kHealthy = 0,   ///< Producing within its deadline, failure rate nominal.
  kDegraded = 1,  ///< Producing, but late or with an elevated failure rate.
  kStale = 2,     ///< Past the staleness deadline; consumers should fail over.
  kDead = 3,      ///< Past the dead deadline (or the component is gone).
};

constexpr std::string_view to_string(HealthState s) noexcept {
  switch (s) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kStale:
      return "stale";
    case HealthState::kDead:
      return "dead";
  }
  return "unknown";
}

}  // namespace perpos::core
