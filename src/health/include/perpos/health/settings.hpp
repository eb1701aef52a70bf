#pragma once

#include "perpos/health/reliable_link.hpp"
#include "perpos/runtime/config.hpp"

/// \file settings.hpp
/// Bridge from the runtime config grammar's `health` verb to the reliable
/// link's config struct. Lives here (not in runtime) so the config layer
/// stays free of a perpos::health dependency. The watchdog and failover
/// halves of the settings convert in runtime itself, since both live in
/// core; callers that use all three wire them up explicitly:
///
///   auto result = runtime::assemble_from_config(text, registry, graph);
///   if (result.health) {
///     core::Watchdog dog(graph, scheduler, result.health->watchdog());
///     deployment.set_link_factory(health::reliable_link_factory(
///         health::reliable_link_config_from(*result.health)));
///     service.enable_failover(dog, result.health->failover());
///   }

namespace perpos::health {

inline ReliableLinkConfig reliable_link_config_from(
    const runtime::HealthSettings& settings) {
  ReliableLinkConfig cfg;
  cfg.max_retries = settings.max_retries;
  cfg.ack_timeout =
      sim::SimTime::from_seconds(settings.ack_timeout_ms / 1000.0);
  return cfg;
}

}  // namespace perpos::health
