#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "perpos/obs/metrics.hpp"

/// \file introspection.hpp
/// Live introspection: the structured snapshot behind `perpos-top`. The
/// metrics registry answers "how much, ever"; an IntrospectionSnapshot
/// answers "what does the runtime look like *right now*" — lane queue
/// depths, worker utilization, per-component self-time top-K, provider
/// health — in one coherent struct an operator tool can diff between
/// refreshes to derive rates.

namespace perpos::obs {

/// One execution lane as seen at snapshot time.
struct LaneIntrospection {
  std::string name;
  std::uint64_t queue_depth = 0;  ///< Tasks pending right now.
  bool active = false;            ///< A worker is draining it.
  std::uint64_t tasks = 0;        ///< Executed on this lane, ever.
  double busy_us = 0.0;           ///< Wall time spent draining, ever.
  std::uint64_t queue_peak = 0;   ///< High-water depth, ever.
};

/// One pool worker (the last entry is the inline/caller slot).
struct WorkerIntrospection {
  std::uint64_t tasks = 0;
  double busy_us = 0.0;
  std::uint64_t drains = 0;        ///< Lane batches drained.
  std::uint64_t idle_wakeups = 0;  ///< Wake-ups from an idle wait.
  double utilization = 0.0;  ///< busy / engine lifetime, in [0,1].
};

/// Per-component accumulated on_input self-time. on_input time *is* self
/// time in this runtime: nested emissions are queued, never run inline.
struct ComponentSelfTime {
  std::string kind;
  std::uint32_t component = 0;
  double total_us = 0.0;
  std::uint64_t count = 0;
};

/// One observed graph (or PositioningService deployment).
struct GraphIntrospection {
  std::string name;
  std::uint64_t deliveries = 0;
  std::uint64_t rejections = 0;
  std::uint64_t components = 0;
  std::vector<ComponentSelfTime> top_self_time;  ///< Hottest first.
  std::vector<std::string> health;  ///< "provider=state" lines, if any.
};

/// The whole runtime at one instant.
struct IntrospectionSnapshot {
  double captured_us = 0.0;  ///< Steady-clock us (diffable across snaps).
  std::uint64_t tasks_posted = 0;  ///< Including tasks held at a fence.
  std::uint64_t tasks_executed = 0;
  std::uint64_t tasks_failed = 0;
  std::size_t workers = 0;  ///< Pool threads (0 = inline engine).
  std::vector<LaneIntrospection> lanes;
  std::vector<WorkerIntrospection> worker_stats;
  std::vector<GraphIntrospection> graphs;
};

/// Extract a graph's introspection from its metrics snapshot: deliveries,
/// component count, and the top-`top_k` components by accumulated
/// on_input self-time (requires the graph's timing knob; empty otherwise).
GraphIntrospection graph_introspection(std::string name,
                                       const MetricsSnapshot& metrics,
                                       std::size_t top_k = 5);

/// JSON encoding of a snapshot (machine half of perpos-top --json).
std::string to_json(const IntrospectionSnapshot& snapshot);

/// Render the human dashboard: a lanes × graphs text screen with queue
/// depths, drain rates, worker utilization and self-time top-K. `prev`
/// (the previous refresh) enables rate columns; pass nullptr on the
/// first frame.
std::string render_dashboard(const IntrospectionSnapshot& now,
                             const IntrospectionSnapshot* prev,
                             std::size_t top_k = 5);

}  // namespace perpos::obs
