// Experiment O1 — the paper's future-work question (Sec. 6): how do
// "traditional software qualities ... reliability, scalability and
// performance" fare under the model-based approach to translucency?
//
// Scalability of the reified graph:
//  * delivery throughput vs pipeline depth,
//  * delivery throughput vs fan-out width,
//  * channel-view derivation vs graph size,
//  * graph assembly (add+connect) cost vs component count,
//  * provenance bookkeeping cost vs inputs-per-output,
//  * observability overhead (metrics / timing / recording) vs the bare graph,
//  * multi-graph throughput through the execution engine vs worker count.
//
// `--metrics-json <path>` writes the observed deep-pipeline run as a
// machine-readable snapshot (metrics + the flight ring's Chrome trace_event
// flow trace).

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/fusion/metrics.hpp"
#include "perpos/sanitize/sanitizer.hpp"

#include "bench_metrics.hpp"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace perpos;

namespace {

struct Value {
  int n = 0;
};

std::shared_ptr<core::LambdaComponent> make_relay() {
  return std::make_shared<core::LambdaComponent>(
      "Relay", std::vector<core::InputRequirement>{core::require<Value>()},
      std::vector<core::DataSpec>{core::provide<Value>()},
      [](const core::Sample& s, const core::ComponentContext& ctx) {
        ctx.emit(s.payload);
      });
}

/// A pipeline of `depth` relays.
struct ChainRig {
  explicit ChainRig(int depth) {
    source = std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<Value>()});
    core::ComponentId prev = graph.add(source);
    for (int i = 0; i < depth; ++i) {
      const auto mid = graph.add(make_relay());
      graph.connect(prev, mid);
      prev = mid;
    }
    sink = std::make_shared<core::ApplicationSink>();
    graph.connect(prev, graph.add(sink));
  }
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  std::shared_ptr<core::ApplicationSink> sink;
};

/// One source fanning out to `width` sinks.
struct FanRig {
  explicit FanRig(int width) {
    source = std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<Value>()});
    const auto a = graph.add(source);
    for (int i = 0; i < width; ++i) {
      graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
    }
  }
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
};

void print_report(const std::string& metrics_json_path) {
  std::printf("=== O1: scalability of the reified processing graph ===\n\n");
  std::printf("%-22s %16s %16s\n", "pipeline depth", "deliveries/sec",
              "observed del/sec");
  for (int depth : {1, 8, 32, 128}) {
    constexpr int kIters = 20000;
    const auto run = [&](bool observed) {
      ChainRig rig(depth);
      if (observed) rig.graph.enable_observability();
      const auto start = std::chrono::steady_clock::now();
      for (int i = 0; i < kIters; ++i) rig.source->push(Value{i});
      const auto stop = std::chrono::steady_clock::now();
      const double secs = std::chrono::duration<double>(stop - start).count();
      return static_cast<double>(kIters) * (depth + 1) / secs;
    };
    std::printf("%-22d %16.0f %16.0f\n", depth, run(false), run(true));
  }
  std::printf("\n(each hop stamps logical time and provenance — the price "
              "of translucency;\n the observed column adds counters and "
              "on_input latency histograms)\n\n");

  // One fully observed deep pipeline, summarized with the same ErrorStats
  // machinery the accuracy tables use, and optionally exported as JSON.
  ChainRig rig(16);
  obs::ObservabilityConfig cfg;
  cfg.recording = true;
  rig.graph.enable_observability(cfg);
  std::vector<double> push_us;
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    rig.source->push(Value{i});
    push_us.push_back(std::chrono::duration<double, std::micro>(
                          std::chrono::steady_clock::now() - t0)
                          .count());
  }
  std::printf("%s\n", perpos::fusion::stats_header().c_str());
  std::printf("%s\n\n",
              perpos::fusion::format_series_row("observed push (us)", push_us)
                  .c_str());

  benchutil::write_metrics_snapshot(metrics_json_path, "o1_scalability",
                                    rig.graph);
}

void BM_PipelineDepth(benchmark::State& state) {
  ChainRig rig(static_cast<int>(state.range(0)));
  int i = 0;
  for (auto _ : state) {
    rig.source->push(Value{i++});
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (state.range(0) + 1)));
}
BENCHMARK(BM_PipelineDepth)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

/// Same pipeline with observers on: range(1) selects the level, each adding
/// one (1 = metrics, 2 = +timing, 3 = +recording, 4 = +latency,
/// 5 = +sanitizer).
void BM_PipelineDepthObserved(benchmark::State& state) {
  static const char* const kLabels[] = {
      "", "metrics", "metrics+timing", "metrics+timing+recording",
      "metrics+timing+recording+latency",
      "metrics+timing+recording+latency+sanitizer"};
  ChainRig rig(static_cast<int>(state.range(0)));
  obs::ObservabilityConfig cfg;
  cfg.metrics = true;
  cfg.timing = state.range(1) >= 2;
  cfg.recording = state.range(1) >= 3;
  cfg.latency = state.range(1) >= 4;
  rig.graph.enable_observability(cfg);
  sanitize::GraphSanitizer sanitizer;
  if (state.range(1) >= 5) sanitizer.attach(rig.graph);
  int i = 0;
  for (auto _ : state) {
    rig.source->push(Value{i++});
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * (state.range(0) + 1)));
  state.SetLabel(kLabels[state.range(1)]);
}
BENCHMARK(BM_PipelineDepthObserved)
    ->ArgsProduct({{16, 64}, {1, 2, 3, 4, 5}});

void BM_FanOutWidth(benchmark::State& state) {
  FanRig rig(static_cast<int>(state.range(0)));
  int i = 0;
  for (auto _ : state) {
    rig.source->push(Value{i++});
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_FanOutWidth)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256);

void BM_ChannelDerivationVsGraphSize(benchmark::State& state) {
  // `n` parallel 3-stage pipelines into one app: 4n+1 components, n chans.
  const int n = static_cast<int>(state.range(0));
  core::ProcessingGraph graph;
  auto app = std::make_shared<core::ApplicationSink>();
  const auto z = graph.add(app);
  for (int k = 0; k < n; ++k) {
    auto src = std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<Value>()});
    core::ComponentId prev = graph.add(src);
    for (int d = 0; d < 3; ++d) {
      const auto mid = graph.add(make_relay());
      graph.connect(prev, mid);
      prev = mid;
    }
    graph.connect(prev, z);
  }
  for (auto _ : state) {
    core::ChannelManager channels(graph);
    benchmark::DoNotOptimize(channels.channels().size());
  }
}
BENCHMARK(BM_ChannelDerivationVsGraphSize)->Arg(1)->Arg(8)->Arg(32)->Arg(128);

void BM_GraphAssembly(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    core::ProcessingGraph graph;
    auto src = std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<Value>()});
    core::ComponentId prev = graph.add(src);
    for (int i = 0; i < n; ++i) {
      const auto mid = graph.add(make_relay());
      graph.connect(prev, mid);
      prev = mid;
    }
    benchmark::DoNotOptimize(graph.size());
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations() * state.range(0)));
}
BENCHMARK(BM_GraphAssembly)->Arg(8)->Arg(64)->Arg(256);

/// Provenance bookkeeping under aggregation: one output per `k` inputs.
void BM_ProvenanceAggregation(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  core::ProcessingGraph graph;
  auto source = std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<Value>()});
  const auto a = graph.add(source);
  int count = 0;
  const auto agg = graph.add(std::make_shared<core::LambdaComponent>(
      "Agg", std::vector<core::InputRequirement>{core::require<Value>()},
      std::vector<core::DataSpec>{core::provide<Value>()},
      [&count, k](const core::Sample& s, const core::ComponentContext& ctx) {
        if (++count % k == 0) ctx.emit(s.payload);
      }));
  graph.connect(a, agg);
  graph.connect(agg, graph.add(std::make_shared<core::ApplicationSink>()));
  int i = 0;
  for (auto _ : state) {
    source->push(Value{i++});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ProvenanceAggregation)->Arg(1)->Arg(10)->Arg(100);

/// Multi-graph scaling through the execution engine: 16 independent
/// 16-stage pipelines, one affinity lane each, driven by range(0) workers
/// (0 = inline single-threaded baseline). Throughput counts every hop.
void BM_EngineMultiGraph(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  constexpr int kGraphs = 16;
  constexpr int kDepth = 16;
  constexpr int kBurst = 64;  // samples pushed per lane per iteration
  std::vector<std::unique_ptr<ChainRig>> rigs;
  for (int g = 0; g < kGraphs; ++g) {
    rigs.push_back(std::make_unique<ChainRig>(kDepth));
  }
  exec::ExecutionEngine engine(workers);
  std::vector<std::function<void(exec::Task)>> lanes;
  for (int g = 0; g < kGraphs; ++g) {
    lanes.push_back(engine.executor(engine.create_lane()));
  }
  int i = 0;
  for (auto _ : state) {
    for (int g = 0; g < kGraphs; ++g) {
      ChainRig* rig = rigs[static_cast<std::size_t>(g)].get();
      const int base = i;
      lanes[static_cast<std::size_t>(g)]([rig, base] {
        for (int b = 0; b < kBurst; ++b) rig->source->push(Value{base + b});
      });
    }
    i += kBurst;
    engine.run_until_idle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kGraphs * kBurst * (kDepth + 1));
  state.SetLabel(workers == 0 ? "inline" :
                 std::to_string(workers) + " workers");
}
BENCHMARK(BM_EngineMultiGraph)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  print_report(benchutil::strip_metrics_json(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
