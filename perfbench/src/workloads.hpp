#pragma once

// The three workloads and their fixed load settings. The paced rates are
// part of the benchmark's definition: never re-derived per run, so a faster
// build shows up as lower latency at the same offered load. They sit well
// below saturation (gps_fleet ~5%, rooms_churn ~25% of the saturated
// throughput of the first build measured, Release on a shared 4-vCPU host):
// every post() that finds a worker asleep pays its wake-up on the generator
// thread, and at higher post rates the host's slow stretches made the
// generator itself fall behind its schedule, which voids an open loop.

#include "common.hpp"

#include <cstddef>

namespace perfbench {

/// gps_fleet: saturate-phase fragments per lane per second of --seconds,
/// and the paced-phase offered rate (fragments/s over all 48 lanes).
constexpr std::size_t kGpsSaturatePerLaneSecond = 15000;
constexpr double kGpsPacedRate = 100000.0;

/// rooms_churn: the same for scans over 12 lanes.
constexpr std::size_t kRoomsSaturatePerLaneSecond = 3500;
constexpr double kRoomsPacedRate = 30000.0;

/// remote_tracking: simulated seconds of GPS trace per device.
constexpr double kRemoteTraceSeconds = 600.0;

void run_gps_fleet(const Options& options, Report& report);
void run_rooms_churn(const Options& options, Report& report);
void run_remote_tracking(const Options& options, Report& report);

}  // namespace perfbench
