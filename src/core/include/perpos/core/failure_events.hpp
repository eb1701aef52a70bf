#pragma once

#include "perpos/core/graph.hpp"

#include <string>
#include <string_view>

/// \file failure_events.hpp
/// The shared failure-event reporting channel. Anything that mutates,
/// loses or rejects traffic — failure injectors, lossy links, remoting
/// endpoints — reports here. Every report counts against its host
/// component in the graph (ProcessingGraph::failures, which the Watchdog
/// folds into its verdicts), and, with observability on, shows up in one
/// metric family, `perpos_failure_events_total{injector=..., event=...}`.
///
/// That family is pushed per event rather than read at scrape (the rule
/// for values an owner keeps, ProcessingGraph::add_metrics_source): the
/// graph keeps one failure count per host, not its split by event, so the
/// registry holds the only per-event copy.

namespace perpos::core {

/// Report one failure event against `host` (no-op when the graph is null).
/// `injector` is the reporting component's kind or feature name; it and
/// `event` label the registry series.
inline void report_failure_event(ProcessingGraph* graph,
                                 std::string_view injector, ComponentId host,
                                 const char* event) {
  if (graph == nullptr) return;
  graph->count_failure(host);
  obs::MetricsRegistry* registry = graph->metrics_registry();
  if (registry == nullptr) return;
  registry
      ->counter("perpos_failure_events_total",
                {{"injector",
                  std::string(injector) + "#" + std::to_string(host)},
                 {"event", event}})
      ->inc();
}

}  // namespace perpos::core
