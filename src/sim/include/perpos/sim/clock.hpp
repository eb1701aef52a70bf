#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

/// \file clock.hpp
/// Simulated time. All PerPos timing — sample timestamps, GPS epochs,
/// EnTracked duty cycles, energy integration — runs on SimTime so that every
/// test and benchmark is deterministic and independent of wall-clock speed.

namespace perpos::sim {

/// Simulation time as a strong type: nanoseconds since simulation start.
struct SimTime {
  std::int64_t ns = 0;

  static constexpr SimTime zero() noexcept { return SimTime{0}; }
  static constexpr SimTime from_seconds(double s) noexcept {
    return SimTime{static_cast<std::int64_t>(s * 1e9)};
  }
  static constexpr SimTime from_millis(std::int64_t ms) noexcept {
    return SimTime{ms * 1'000'000};
  }

  constexpr double seconds() const noexcept {
    return static_cast<double>(ns) / 1e9;
  }
  constexpr double millis() const noexcept {
    return static_cast<double>(ns) / 1e6;
  }

  friend constexpr bool operator==(SimTime, SimTime) = default;
  friend constexpr auto operator<=>(SimTime, SimTime) = default;
  friend constexpr SimTime operator+(SimTime a, SimTime b) noexcept {
    return SimTime{a.ns + b.ns};
  }
  friend constexpr SimTime operator-(SimTime a, SimTime b) noexcept {
    return SimTime{a.ns - b.ns};
  }
};

/// A readable clock. Components take a `const Clock&` so they can be run
/// under the simulation scheduler or (in principle) a wall clock.
class Clock {
 public:
  virtual ~Clock() = default;
  virtual SimTime now() const noexcept = 0;
};

/// A manually advanced clock owned by the Scheduler. One thread advances
/// it; any thread may read it (a metrics scrape computes staleness against
/// it while the simulation runs).
class SimClock final : public Clock {
 public:
  SimTime now() const noexcept override {
    return SimTime{now_ns_.load(std::memory_order_relaxed)};
  }
  void advance_to(SimTime t) noexcept {
    if (t.ns > now_ns_.load(std::memory_order_relaxed)) {
      now_ns_.store(t.ns, std::memory_order_relaxed);
    }
  }

 private:
  std::atomic<std::int64_t> now_ns_{0};
};

}  // namespace perpos::sim
