// Overhead of the translucency plane on the execution-engine hot path.
//
// BM_ProfilerOverhead drives a fixed batch of trivial tasks through an
// ExecutionEngine under three instrumentation configurations — bare,
// metrics, and metrics+flight-recorder — so the per-task cost of each
// observability layer can be read directly from the ratio between rows.
// The engine's lane and worker counts are always on, so "bare" includes
// them; metrics adds a scrape-time collector and nothing per task. The
// engine runs with zero workers (the caller drains inline), which makes
// the numbers deterministic and keeps the comparison about
// instrumentation, not scheduling noise.

#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/metrics.hpp"

#include "bench_metrics.hpp"

#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <vector>

using namespace perpos;

namespace {

enum Config : std::int64_t {
  kBare = 0,
  kMetrics = 1,
  kMetricsRecorder = 2,
};

const char* config_name(std::int64_t c) {
  switch (c) {
    case kBare: return "bare";
    case kMetrics: return "metrics";
    case kMetricsRecorder: return "metrics+recorder";
  }
  return "?";
}

constexpr std::size_t kLanes = 4;
constexpr std::size_t kTasksPerLane = 256;

struct Rig {
  exec::ExecutionEngine engine{0};
  obs::MetricsRegistry metrics;
  obs::FlightRecorder recorder{4096};
  std::vector<exec::LaneId> lanes;

  explicit Rig(std::int64_t config) {
    if (config >= kMetrics) engine.enable_metrics(&metrics);
    if (config >= kMetricsRecorder) engine.set_flight_recorder(&recorder);
    for (std::size_t i = 0; i < kLanes; ++i) {
      lanes.push_back(engine.create_lane("lane-" + std::to_string(i)));
    }
  }

  std::uint64_t drain_batch() {
    std::uint64_t acc = 0;
    for (std::size_t t = 0; t < kTasksPerLane; ++t) {
      for (const auto lane : lanes) {
        engine.post(lane, [&acc] { acc += 1; });
      }
    }
    engine.run_until_idle();
    return acc;
  }
};

void BM_ProfilerOverhead(benchmark::State& state) {
  Rig rig(state.range(0));
  rig.drain_batch();  // Warm up queues so steady state is measured.
  for (auto _ : state) {
    benchmark::DoNotOptimize(rig.drain_batch());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kLanes * kTasksPerLane));
  state.SetLabel(config_name(state.range(0)));
}
BENCHMARK(BM_ProfilerOverhead)
    ->Arg(kBare)
    ->Arg(kMetrics)
    ->Arg(kMetricsRecorder);

void print_report(const std::string& metrics_json_path) {
  std::printf("=== profiler overhead: engine hot path, 0 workers ===\n\n");
  std::printf("%zu lanes x %zu tasks per drained batch; see "
              "BM_ProfilerOverhead rows for per-config timing.\n\n",
              kLanes, kTasksPerLane);

  if (metrics_json_path.empty()) return;
  // Observed pass: everything on, one batch, dump what the plane saw.
  Rig rig(kMetricsRecorder);
  rig.drain_batch();
  const auto snap = rig.engine.introspect();
  std::uint64_t tasks = 0;
  for (const auto& lane : snap.lanes) tasks += lane.tasks;
  std::printf("engine counted %llu tasks across %zu lanes\n",
              static_cast<unsigned long long>(tasks), snap.lanes.size());
  std::ofstream out(metrics_json_path);
  out << "{\"experiment\":\"profiler_overhead\",\"metrics\":"
      << obs::to_json(rig.metrics.snapshot())
      << ",\"flight_recorder\":" << rig.recorder.dump_json("bench") << "}\n";
  if (out) {
    std::printf("metrics snapshot written to %s\n\n",
                metrics_json_path.c_str());
  } else {
    std::printf("ERROR: could not write %s\n\n", metrics_json_path.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_json = benchutil::strip_metrics_json(argc, argv);
  print_report(metrics_json);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
