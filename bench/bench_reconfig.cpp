// Cost of zero-downtime reconfiguration (perpos::reconfig).
//
// BM_HotSwap measures one full replace() protocol round — fence, O(delta)
// incremental re-verification, teardown-flush + state handoff, commit —
// on an idle lane: unverified (arg 0), verified (arg 1), and verified with
// the graph's verify gate armed (arg 2), which re-verifies once as the
// fence lifts; the ratios between rows are the staging check's and the
// gate's shares. BM_SwapUnderTraffic runs the same swap while the lane
// drains queued samples (the fence has to wait out the in-flight task and
// hold the backlog). BM_FenceCycle isolates the quiesce primitive itself,
// and BM_Rollback measures one commit+rollback round trip.

#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/reconfig/live_reconfigurator.hpp"
#include "perpos/verify/incremental.hpp"

#include "bench_metrics.hpp"

#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

using namespace perpos;

namespace {

class CountingStage final : public core::ProcessingComponent {
 public:
  explicit CountingStage(std::string kind = "Counting")
      : kind_(std::move(kind)) {}

  std::string_view kind() const override { return kind_; }
  std::vector<core::InputRequirement> input_requirements() const override {
    return {core::require<core::RawFragment>()};
  }
  std::vector<core::DataSpec> output_capabilities() const override {
    return {core::provide<core::RawFragment>()};
  }
  void on_input(const core::Sample& sample) override {
    const auto* fragment = sample.payload.get<core::RawFragment>();
    if (fragment == nullptr) return;
    ++count_;
    context().emit(core::Payload::make(core::RawFragment{fragment->bytes}));
  }
  std::string serialize_state() const override {
    return std::to_string(count_);
  }
  void restore_state(const std::string& blob) override {
    count_ = blob.empty() ? 0 : std::stoull(blob);
  }

 private:
  std::string kind_;
  std::uint64_t count_ = 0;
};

/// Src -> CountingStage^depth -> Sink on one lane.
struct Rig {
  Rig(std::size_t workers, std::size_t depth) : engine(workers) {
    lane = engine.create_lane("bench");
    source = std::make_shared<core::SourceComponent>(
        "Src",
        std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
    core::ComponentId prev = graph.add(source);
    for (std::size_t i = 0; i < depth; ++i) {
      const auto stage = graph.add(std::make_shared<CountingStage>());
      graph.connect(prev, stage);
      if (i == depth / 2) victim = stage;
      prev = stage;
    }
    sink = graph.add(std::make_shared<core::ApplicationSink>(
        "Sink",
        std::vector<core::InputRequirement>{core::require<core::RawFragment>()},
        [](const core::Sample&) {}));
    graph.connect(prev, sink);
  }

  exec::ExecutionEngine engine;
  exec::LaneId lane = 0;
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  core::ComponentId victim = core::kInvalidComponent;
  core::ComponentId sink = core::kInvalidComponent;
};

void BM_HotSwap(benchmark::State& state) {
  const bool verify = state.range(0) != 0;
  const bool gated = state.range(0) == 2;
  Rig rig(0, 8);
  reconfig::ReconfigOptions options;
  options.verify = verify;
  reconfig::LiveReconfigurator reconf(rig.graph, rig.engine, rig.lane,
                                      options);
  if (gated && !verify::IncrementalVerifier::of(rig.graph)->freeze().frozen) {
    state.SkipWithError("freeze refused");
  }
  bool flip = false;
  for (auto _ : state) {
    flip = !flip;
    auto result = reconf.replace(
        rig.victim, std::make_shared<CountingStage>(flip ? "A" : "B"));
    if (!result.ok()) state.SkipWithError(result.error.c_str());
    benchmark::DoNotOptimize(result.epoch);
  }
  state.SetLabel(gated ? "verified+gate" : verify ? "verified" : "unverified");
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HotSwap)->Arg(0)->Arg(1)->Arg(2);

void BM_SwapUnderTraffic(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  Rig rig(workers, 8);
  reconfig::LiveReconfigurator reconf(rig.graph, rig.engine, rig.lane);
  bool flip = false;
  for (auto _ : state) {
    state.PauseTiming();
    for (int i = 0; i < 256; ++i) {
      rig.engine.post(rig.lane, [&rig] {
        rig.source->push(core::RawFragment{"s"});
      });
    }
    state.ResumeTiming();
    flip = !flip;
    auto result = reconf.replace(
        rig.victim, std::make_shared<CountingStage>(flip ? "A" : "B"));
    if (!result.ok()) state.SkipWithError(result.error.c_str());
    state.PauseTiming();
    rig.engine.run_until_idle();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SwapUnderTraffic)->Arg(0)->Arg(4)->Arg(8);

void BM_FenceCycle(benchmark::State& state) {
  const std::size_t workers = static_cast<std::size_t>(state.range(0));
  Rig rig(workers, 2);
  for (auto _ : state) {
    rig.engine.fence(rig.lane);
    rig.engine.unfence(rig.lane);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FenceCycle)->Arg(0)->Arg(4);

void BM_Rollback(benchmark::State& state) {
  Rig rig(0, 8);
  reconfig::LiveReconfigurator reconf(rig.graph, rig.engine, rig.lane);
  for (auto _ : state) {
    const std::uint64_t pre = rig.graph.epoch();
    auto swap = reconf.replace(rig.victim,
                               std::make_shared<CountingStage>("New"));
    if (!swap.ok()) state.SkipWithError(swap.error.c_str());
    auto back = reconf.rollback(pre);
    if (!back.ok()) state.SkipWithError(back.error.c_str());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_Rollback);

}  // namespace

int main(int argc, char** argv) {
  const std::string metrics_json = benchutil::strip_metrics_json(argc, argv);
  if (!metrics_json.empty()) {
    // Observed pass: one verified swap with metrics on.
    Rig rig(0, 8);
    rig.graph.enable_observability({});
    reconfig::LiveReconfigurator reconf(rig.graph, rig.engine, rig.lane);
    for (int i = 0; i < 64; ++i) rig.source->push(core::RawFragment{"s"});
    (void)reconf.replace(rig.victim, std::make_shared<CountingStage>("New"));
    benchutil::write_metrics_snapshot(metrics_json, "reconfig", rig.graph);
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
