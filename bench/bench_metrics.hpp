#pragma once

// Shared `--metrics-json <path>` plumbing for the benchmark drivers: every
// bench accepts the flag and writes a self-describing metrics snapshot of
// an observed run of its representative workload — per-component counters,
// latency histograms and (when recording is on) the flight ring's Chrome
// trace — for the CI perf-smoke job to archive next to the timing numbers.

#include "perpos/core/graph.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/metrics.hpp"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

namespace perpos::benchutil {

/// Remove `--metrics-json <path>` from argv (google-benchmark rejects
/// flags it does not know) and return the path, or "" when absent.
inline std::string strip_metrics_json(int& argc, char** argv) {
  std::string path;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  return path;
}

/// Write `{"experiment":...,"metrics":...[,"trace":...]}` from `graph`'s
/// registry (and flight recorder, when one is attached). No-op for an empty
/// path, so call sites can pass the stripped flag through unconditionally.
inline void write_metrics_snapshot(const std::string& path,
                                   const char* experiment,
                                   const core::ProcessingGraph& graph) {
  if (path.empty()) return;
  std::ofstream out(path);
  out << "{\"experiment\":\"" << experiment
      << "\",\"metrics\":" << obs::to_json(graph.metrics());
  if (graph.flight_recorder() != nullptr) {
    out << ",\"trace\":" << graph.flight_recorder()->dump_chrome_trace();
  }
  out << "}\n";
  if (out) {
    std::printf("metrics snapshot written to %s\n\n", path.c_str());
  } else {
    std::printf("ERROR: could not write %s\n\n", path.c_str());
  }
}

}  // namespace perpos::benchutil
