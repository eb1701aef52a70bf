// Tests for the PSL dispatch executor against golden transcripts, and for
// the perpos::plan::GraphPlan verify gate:
//  - transcripts recorded in tests/golden/plan — fan-out, nested
//    FeatureContext::emit (consume and produce hooks), failure injection,
//    0/1/8 engine workers, metric counters, sentry counts, the flight
//    recorder and seeded chaos runs — must match byte for byte, with and
//    without the gate armed and with every observability knob on,
//  - freeze() succeeds whatever the observability settings; a mutation
//    re-verifies incrementally (PSL edits, LiveReconfigurator hot-swap,
//    rollback(epoch) and tee promotion),
//  - provenance buffers outlive the graph, and feature mutation mid-dispatch
//    is refused,
//  - a seeded chaos property test (random mutation/traffic interleavings,
//    gated rig vs ungated twin); run under ASan/UBSan and TSan in CI.

#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/plan/graph_plan.hpp"
#include "perpos/reconfig/live_reconfigurator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace core = perpos::core;
namespace exec = perpos::exec;
namespace obs = perpos::obs;
namespace plan = perpos::plan;
namespace reconfig = perpos::reconfig;

namespace {

/// Golden transcripts live in tests/golden/plan/<name>.txt. Running the
/// suite with PERPOS_UPDATE_GOLDENS=1 rewrites them from the current run
/// instead of comparing — and fails every rewriting test, so an update run
/// can never pass for a check.
void expect_golden(const std::string& name, const std::string& actual) {
  const std::string path =
      std::string(PERPOS_GOLDEN_DIR) + "/" + name + ".txt";
  const char* update = std::getenv("PERPOS_UPDATE_GOLDENS");
  if (update != nullptr && std::string(update) == "1") {
    std::ofstream(path, std::ios::binary) << actual;
    ADD_FAILURE() << "rewrote golden " << path
                  << " (PERPOS_UPDATE_GOLDENS=1); review the diff and rerun "
                     "without it";
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str()) << "differs from golden " << path;
}

struct Tick {
  int value = 0;
};

std::shared_ptr<core::SourceComponent> tick_source() {
  return std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<Tick>()});
}

std::shared_ptr<core::LambdaComponent> add_stage(int delta) {
  return std::make_shared<core::LambdaComponent>(
      "Add", std::vector<core::InputRequirement>{core::require<Tick>()},
      std::vector<core::DataSpec>{core::provide<Tick>()},
      [delta](const core::Sample& s, const core::ComponentContext& ctx) {
        ctx.emit(core::Payload::make(Tick{s.payload.get<Tick>()->value +
                                          delta}));
      });
}

/// Throws on every value divisible by `trip` (trip == 0 never throws).
std::shared_ptr<core::LambdaComponent> bomb_stage(int trip) {
  return std::make_shared<core::LambdaComponent>(
      "Bomb", std::vector<core::InputRequirement>{core::require<Tick>()},
      std::vector<core::DataSpec>{core::provide<Tick>()},
      [trip](const core::Sample& s, const core::ComponentContext& ctx) {
        const int v = s.payload.get<Tick>()->value;
        if (trip != 0 && v % trip == 0) {
          throw std::runtime_error("bomb tripped");
        }
        ctx.emit(core::Payload::make(Tick{v}));
      });
}

/// "Adding data" feature: consume() re-emits every sample whose value is
/// divisible by 3 as feature-tagged data (a nested emission inside the
/// delivery that triggered it); produce() tags along a second nested
/// emission for every 5th component-origin emission. Both paths guard on
/// the origin so the feature's own emissions don't recurse.
class EchoFeature final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "echo"; }
  std::vector<const core::TypeInfo*> added_types() const override {
    return {core::type_of<Tick>()};
  }
  bool emits_in_consume() const override { return true; }
  bool emits_in_produce() const override { return true; }

  bool consume(core::Sample& sample) override {
    const int v = sample.payload.get<Tick>()->value;
    if (v % 3 == 0) {
      context().emit(core::Payload::make(Tick{v * 100}));
    }
    return true;
  }

  bool produce(core::Sample& sample) override {
    if (sample.origin != core::kComponentOrigin) return true;
    const int v = sample.payload.get<Tick>()->value;
    if (v % 5 == 0) {
      context().emit(core::Payload::make(Tick{v * 1000}));
    }
    return v % 7 != 0;  // Occasionally veto, to cover the veto counters.
  }
};

/// Src -> A -> B[echo] -> Sink, with A also fanning out to C -> Sink and
/// an echo-tagged side sink hanging off B. Every delivered value:sequence
/// pair lands in the transcript, so any ordering, duplication or loss
/// difference from the golden transcript shows up as a byte difference.
struct PlanRig {
  explicit PlanRig(bool with_feature = true, int bomb_trip = 0) {
    source_id = graph.add(tick_source());
    a_id = graph.add(add_stage(1));
    b_id = graph.add(bomb_trip != 0 ? bomb_stage(bomb_trip) : add_stage(10));
    c_id = graph.add(add_stage(100));
    graph.connect(source_id, a_id);
    graph.connect(a_id, b_id);
    graph.connect(a_id, c_id);
    sink_id = graph.add(std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
        [this](const core::Sample& s) {
          transcript << s.payload.get<Tick>()->value << ':' << s.sequence
                     << ';';
        }));
    graph.connect(b_id, sink_id);
    graph.connect(c_id, sink_id);
    if (with_feature) {
      graph.attach_feature(b_id, std::make_shared<EchoFeature>());
      echo_sink_id = graph.add(std::make_shared<core::ApplicationSink>(
          "EchoSink",
          std::vector<core::InputRequirement>{core::require<Tick>("echo")},
          [this](const core::Sample& s) {
            transcript << 'e' << s.payload.get<Tick>()->value << ':'
                       << s.sequence << ';';
          }));
      graph.connect(b_id, echo_sink_id);
    }
    source = graph.component_as<core::SourceComponent>(source_id);
  }

  core::ProcessingGraph graph;
  core::ComponentId source_id = core::kInvalidComponent;
  core::ComponentId a_id = core::kInvalidComponent;
  core::ComponentId b_id = core::kInvalidComponent;
  core::ComponentId c_id = core::kInvalidComponent;
  core::ComponentId sink_id = core::kInvalidComponent;
  core::ComponentId echo_sink_id = core::kInvalidComponent;
  core::SourceComponent* source = nullptr;
  std::ostringstream transcript;
};

/// Deterministic traffic: single pushes interleaved with back-to-back
/// bursts, values from a seeded generator. Exceptions from bomb stages are
/// recorded in the transcript (every run must throw at the same points).
void drive(PlanRig& rig, std::uint64_t seed, int events) {
  std::mt19937_64 rng(seed);
  auto push = [&rig](int value) {
    try {
      rig.source->push(Tick{value});
    } catch (const std::runtime_error&) {
      rig.transcript << "X;";
    }
  };
  for (int i = 0; i < events; ++i) {
    if (rng() % 4 == 0) {
      const std::size_t n = 1 + rng() % 5;
      for (std::size_t j = 0; j < n; ++j) {
        push(static_cast<int>(rng() % 1000));
      }
    } else {
      push(static_cast<int>(rng() % 1000));
    }
  }
}

std::string run_scenario(bool gated, std::uint64_t seed, int events,
                         bool with_feature = true, int bomb_trip = 0,
                         const obs::ObservabilityConfig* observe = nullptr) {
  PlanRig rig(with_feature, bomb_trip);
  if (observe != nullptr) rig.graph.enable_observability(*observe);
  std::optional<plan::GraphPlan> gate;
  if (gated) {
    gate.emplace(rig.graph);
    const plan::FreezeResult result = gate->freeze();
    EXPECT_TRUE(result.frozen) << result.reason;
  }
  drive(rig, seed, events);
  if (gated) {
    EXPECT_TRUE(gate->frozen());  // Failures don't disarm the gate.
  }
  return rig.transcript.str();
}

/// Every observability knob on: the instrumented delivery path.
obs::ObservabilityConfig everything_on() {
  obs::ObservabilityConfig cfg;
  cfg.metrics = true;
  cfg.timing = true;
  cfg.latency = true;
  cfg.latency_slo_us = 1.0;
  cfg.recording = true;
  return cfg;
}

}  // namespace

// --- Golden transcripts ------------------------------------------------------

TEST(Plan, FrozenTranscriptMatchesInterpreted) {
  const std::string ungated = run_scenario(false, 42, 400);
  ASSERT_FALSE(ungated.empty());
  expect_golden("rig_echo", ungated);
  expect_golden("rig_echo", run_scenario(true, 42, 400));
}

TEST(Plan, FrozenTranscriptMatchesInterpretedWithoutFeatures) {
  expect_golden("rig_plain", run_scenario(false, 7, 300, false));
  expect_golden("rig_plain", run_scenario(true, 7, 300, false));
}

TEST(Plan, FrozenTranscriptMatchesInterpretedUnderFailureInjection) {
  const std::string ungated = run_scenario(false, 11, 400, true, 17);
  ASSERT_NE(ungated.find("X;"), std::string::npos);  // Bombs did trip.
  expect_golden("rig_failures", ungated);
  expect_golden("rig_failures", run_scenario(true, 11, 400, true, 17));
}

TEST(Plan, FreezeSucceedsAndGoldensHoldWithEveryObservabilityKnobOn) {
  // Timing, latency and recording only add instrumentation to the one
  // executor: the gate arms and not a byte of the transcripts changes.
  const obs::ObservabilityConfig cfg = everything_on();
  expect_golden("rig_echo", run_scenario(true, 42, 400, true, 0, &cfg));
  expect_golden("rig_plain", run_scenario(true, 7, 300, false, 0, &cfg));
  expect_golden("rig_failures", run_scenario(true, 11, 400, true, 17, &cfg));
}

TEST(Plan, FrozenTranscriptsIdenticalAcrossWorkerCounts) {
  // Like test_exec's determinism matrix: the same per-graph traffic posted
  // through engine lanes must produce the golden transcripts inline or on
  // 1 or 8 workers, gated or not.
  auto run = [](std::size_t workers, bool gated) {
    constexpr int kGraphs = 4;
    std::vector<std::unique_ptr<PlanRig>> rigs;
    std::vector<std::unique_ptr<plan::GraphPlan>> gates;
    exec::ExecutionEngine engine(workers);
    std::vector<exec::LaneId> lanes;
    for (int g = 0; g < kGraphs; ++g) {
      rigs.push_back(std::make_unique<PlanRig>());
      if (gated) {
        gates.push_back(std::make_unique<plan::GraphPlan>(rigs.back()->graph));
        EXPECT_TRUE(gates.back()->freeze().frozen);
      }
      lanes.push_back(engine.create_lane());
    }
    for (int i = 0; i < 200; ++i) {
      for (int g = 0; g < kGraphs; ++g) {
        engine.post(lanes[g], [&rigs, g, i] {
          rigs[g]->source->push(Tick{i * (g + 1)});
        });
      }
    }
    engine.run_until_idle();
    std::string all;
    for (const auto& rig : rigs) all += rig->transcript.str() + "|";
    return all;
  };
  for (const std::size_t workers : {std::size_t{0}, std::size_t{1},
                                    std::size_t{8}}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_golden("workers", run(workers, true));
    expect_golden("workers", run(workers, false));
  }
}

TEST(Plan, FreezeAndThawMidStreamAreSeamless) {
  // Arming and disarming the gate every few events must not disturb the
  // stream: it never touches dispatch state.
  PlanRig toggled;
  PlanRig baseline;
  plan::GraphPlan gate(toggled.graph);
  std::mt19937_64 rng(99);
  for (int i = 0; i < 300; ++i) {
    const int v = static_cast<int>(rng() % 1000);
    toggled.source->push(Tick{v});
    baseline.source->push(Tick{v});
    if (i % 7 == 0) {
      if (gate.frozen()) {
        gate.thaw();
      } else {
        ASSERT_TRUE(gate.freeze().frozen);
      }
    }
  }
  EXPECT_EQ(toggled.transcript.str(), baseline.transcript.str());
}

TEST(Plan, ProvenanceChainsSurviveFreezeThawAndGraphDeath) {
  // Samples retained by the application must keep their provenance buffers
  // alive through graph destruction (arena buffers are shared, not owned)
  // — ASan guards the lifetime claim in CI.
  core::Sample kept;
  {
    core::ProcessingGraph graph;
    const auto src = graph.add(tick_source());
    const auto stage = graph.add(add_stage(1));
    graph.connect(src, stage);
    const auto sink = graph.add(std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
        [&kept](const core::Sample& s) { kept = s; }));
    graph.connect(stage, sink);
    plan::GraphPlan gate(graph);
    ASSERT_TRUE(gate.freeze().frozen);
    auto* source = graph.component_as<core::SourceComponent>(src);
    for (int i = 0; i < 50; ++i) source->push(Tick{i});
    gate.thaw();
    source->push(Tick{50});
    ASSERT_TRUE(gate.freeze().frozen);
    source->push(Tick{51});
  }
  ASSERT_NE(kept.inputs, nullptr);
  ASSERT_EQ(kept.inputs->size(), 1u);
  EXPECT_EQ(kept.inputs->front().payload.get<Tick>()->value, 51);
}

TEST(Plan, ConsumerlessEmittersKeepTheirInputAcrossEmissions) {
  // Src -> C, where C can emit but has no consumer: each emission dies at
  // once, releasing the batch it claimed. C emits twice per input and then
  // reads its input again, which must still be intact — the input may not
  // live in a buffer the second emission's provenance recycles. Covered on
  // both delivery paths (lean, and instrumented via timing); ASan guards
  // the lifetime in CI.
  for (const bool timed : {false, true}) {
    SCOPED_TRACE(timed ? "instrumented delivery" : "lean delivery");
    core::ProcessingGraph graph;
    if (timed) {
      obs::ObservabilityConfig cfg;
      cfg.timing = true;
      graph.enable_observability(cfg);
    }
    const auto src = graph.add(tick_source());
    std::vector<int> seen;
    const auto c = graph.add(std::make_shared<core::LambdaComponent>(
        "TwiceDangling",
        std::vector<core::InputRequirement>{core::require<Tick>()},
        std::vector<core::DataSpec>{core::provide<Tick>()},
        [&seen](const core::Sample& s, const core::ComponentContext& ctx) {
          const int v = s.payload.get<Tick>()->value;
          ctx.emit(core::Payload::make(Tick{v + 1}));
          ctx.emit(core::Payload::make(Tick{v + 2}));
          const Tick* after = s.payload.get<Tick>();
          seen.push_back(after != nullptr ? after->value : -1);
        }));
    graph.connect(src, c);
    auto* source = graph.component_as<core::SourceComponent>(src);
    std::vector<int> expected;
    for (int i = 0; i < 64; ++i) {
      source->push(Tick{i * 3});
      expected.push_back(i * 3);
    }
    EXPECT_EQ(seen, expected);
  }
}

TEST(Plan, FeatureMutationMidDispatchIsRefusedWhileFrozen) {
  core::ProcessingGraph graph;
  const auto src = graph.add(tick_source());
  core::ComponentId sink_id = core::kInvalidComponent;
  sink_id = graph.add(std::make_shared<core::ApplicationSink>(
      "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
      [&graph, &sink_id](const core::Sample&) {
        EXPECT_THROW(
            graph.attach_feature(sink_id, std::make_shared<EchoFeature>()),
            std::logic_error);
      }));
  graph.connect(src, sink_id);
  plan::GraphPlan gate(graph);
  ASSERT_TRUE(gate.freeze().frozen);
  graph.component_as<core::SourceComponent>(src)->push(Tick{1});
  EXPECT_TRUE(gate.frozen());
}

// --- Observability -----------------------------------------------------------

namespace {

/// Every counter and gauge as "name{labels} value", one per line, sorted
/// so registration order does not matter.
std::string counter_dump(const obs::MetricsSnapshot& snap) {
  std::vector<std::string> lines;
  auto key = [](const std::string& name, const obs::Labels& labels) {
    std::string out = name + "{";
    for (const auto& [k, v] : labels) out += k + "=" + v + ",";
    return out + "}";
  };
  for (const auto& c : snap.counters) {
    lines.push_back(key(c.name, c.labels) + " " + std::to_string(c.value));
  }
  for (const auto& g : snap.gauges) {
    lines.push_back(key(g.name, g.labels) + " " + std::to_string(g.value));
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

}  // namespace

TEST(Plan, MetricCountersMatchInterpretedRun) {
  auto run = [](bool gated) {
    PlanRig rig;
    obs::ObservabilityConfig cfg;
    cfg.metrics = true;
    cfg.timing = false;
    rig.graph.enable_observability(cfg);
    std::optional<plan::GraphPlan> gate;
    if (gated) {
      gate.emplace(rig.graph);
      EXPECT_TRUE(gate->freeze().frozen);
    }
    drive(rig, 1234, 250);
    return counter_dump(rig.graph.metrics());
  };
  expect_golden("metrics", run(false));
  expect_golden("metrics", run(true));
}

namespace {

struct CountingSentry final : core::GraphSentry {
  std::uint64_t emits = 0;
  std::uint64_t delivers = 0;
  std::uint64_t depth_sum = 0;
  std::uint64_t cascade_sum = 0;
  void on_emit(const core::Sample&) override { ++emits; }
  void on_deliver(const core::Sample&, core::ComponentId,
                  std::size_t queue_depth, std::uint64_t cascade) override {
    ++delivers;
    depth_sum += queue_depth;
    cascade_sum += cascade;
  }
};

}  // namespace

TEST(Plan, SentryObservesIdenticalDispatchFrozen) {
  PlanRig rig;
  CountingSentry sentry;
  rig.graph.set_sentry(&sentry);
  plan::GraphPlan gate(rig.graph);
  ASSERT_TRUE(gate.freeze().frozen);
  drive(rig, 5678, 250);
  rig.graph.set_sentry(nullptr);
  expect_golden("sentry", std::to_string(sentry.emits) + " " +
                              std::to_string(sentry.delivers) + " " +
                              std::to_string(sentry.depth_sum) + " " +
                              std::to_string(sentry.cascade_sum) + "\n");
}

namespace {

/// The flight events a PlanRig run leaves in its graph-owned recorder,
/// minus timestamps and gate marks.
std::string flight_transcript(const obs::ObservabilityConfig& cfg) {
  PlanRig rig;
  rig.graph.enable_observability(cfg);
  drive(rig, 77, 120);
  std::ostringstream out;
  for (const obs::FlightEvent& e :
       rig.graph.flight_recorder()->merged_events()) {
    if (e.type == obs::FlightEventType::kMark) continue;
    out << obs::flight_event_type_name(e.type) << ' ' << e.component << ' '
        << e.a << ' ' << e.b << ' ' << e.detail << '\n';
  }
  return out.str();
}

}  // namespace

TEST(Plan, FlightTranscriptMatchesGolden) {
  obs::ObservabilityConfig cfg;
  cfg.metrics = false;
  cfg.timing = false;
  cfg.recording = true;
  cfg.recorder_capacity = 1 << 14;
  expect_golden("flight", flight_transcript(cfg));
  obs::ObservabilityConfig all = everything_on();
  all.recorder_capacity = cfg.recorder_capacity;
  expect_golden("flight", flight_transcript(all));
}

TEST(Plan, FlightRecorderKeepsFiringFrozenAndMarksFreezeThaw) {
  core::ProcessingGraph graph;
  obs::FlightRecorder recorder(128);
  const std::uint32_t ring = recorder.add_lane("graph");
  graph.set_flight_recorder(&recorder, ring);
  const auto src = graph.add(tick_source());
  const auto sink = graph.add(std::make_shared<core::ApplicationSink>(
      "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
      [](const core::Sample&) {}));
  graph.connect(src, sink);
  plan::GraphPlan gate(graph);
  ASSERT_TRUE(gate.freeze().frozen);
  graph.component_as<core::SourceComponent>(src)->push(Tick{1});
  gate.thaw();

  bool saw_emit = false;
  bool saw_deliver = false;
  bool saw_freeze = false;
  bool saw_thaw = false;
  for (const obs::FlightEvent& event : recorder.merged_events()) {
    if (event.type == obs::FlightEventType::kEmit) saw_emit = true;
    if (event.type == obs::FlightEventType::kDeliver) saw_deliver = true;
    if (event.type == obs::FlightEventType::kMark) {
      const std::string_view detail(event.detail);
      if (detail == "plan.freeze") saw_freeze = true;
      if (detail == "plan.thaw") saw_thaw = true;
    }
  }
  EXPECT_TRUE(saw_emit);
  EXPECT_TRUE(saw_deliver);
  EXPECT_TRUE(saw_freeze);
  EXPECT_TRUE(saw_thaw);
}

// --- GraphPlan verify gate ---------------------------------------------------

TEST(Plan, GraphPlanVerifiesThenFreezesAndAutoRefreezes) {
  PlanRig rig;
  plan::GraphPlan policy(rig.graph);
  const plan::FreezeResult result = policy.freeze();
  ASSERT_TRUE(result.frozen) << result.reason;
  EXPECT_TRUE(policy.frozen());
  EXPECT_TRUE(policy.armed());

  // A mutation invalidates the last check; the gate re-verifies (O(delta))
  // and stays frozen on a clean result.
  rig.graph.replace(rig.c_id, add_stage(100));
  EXPECT_TRUE(policy.frozen()) << "re-verified after replace";
  EXPECT_GE(policy.stats().freezes, 2u);
  EXPECT_GE(policy.stats().auto_thaws, 1u);

  // Traffic still flows, and the result matches an ungated twin.
  PlanRig twin;
  twin.graph.replace(twin.c_id, add_stage(100));
  drive(rig, 31, 100);
  drive(twin, 31, 100);
  EXPECT_EQ(rig.transcript.str(), twin.transcript.str());

  policy.thaw();
  EXPECT_FALSE(policy.frozen());
  EXPECT_FALSE(policy.armed());
  rig.graph.replace(rig.c_id, add_stage(100));
  EXPECT_FALSE(policy.frozen()) << "disarmed gate must not re-verify";
}

TEST(Plan, GraphPlanRefusesDirtyGraphAndRecoversWhenClean) {
  PlanRig rig;
  plan::GraphPlan policy(rig.graph);
  ASSERT_TRUE(policy.freeze().frozen);

  // A dangling consumer with a mandatory input is a PPV001 *error*: the
  // re-verify fails and the gate is armed but not frozen.
  const auto orphan = rig.graph.add(add_stage(1));
  EXPECT_FALSE(policy.frozen());
  EXPECT_GE(policy.stats().refreeze_failures, 1u);
  EXPECT_TRUE(policy.armed());

  // freeze() reports the failure rather than throwing.
  const plan::FreezeResult refused = policy.freeze();
  EXPECT_FALSE(refused.frozen);
  EXPECT_NE(refused.reason.find("PPV001"), std::string::npos)
      << refused.reason;
  EXPECT_FALSE(refused.report.ok());

  // Repairing the graph re-freezes on the next mutation automatically.
  rig.graph.connect(rig.c_id, orphan);
  EXPECT_TRUE(policy.frozen()) << "clean graph must refreeze";
}

// --- Reconfiguration paths ---------------------------------------------------

namespace {

/// Behaviorally identical successor for PlanRig's C stage (Add +100).
std::shared_ptr<core::ProcessingComponent> c_successor() {
  return add_stage(100);
}

}  // namespace

TEST(Plan, HotSwapRollbackAndTeeKeepGateVerified) {
  PlanRig rig(/*with_feature=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);
  plan::GraphPlan policy(rig.graph);
  ASSERT_TRUE(policy.freeze().frozen);

  for (int i = 0; i < 5; ++i) rig.source->push(Tick{i});
  const std::uint64_t mutations_before = policy.stats().auto_thaws;

  // Verified hot-swap: fence -> verify -> handoff -> commit. Every one of
  // those graph mutations re-verifies; the gate is frozen after the commit.
  const auto swap = reconf.replace(rig.c_id, c_successor());
  ASSERT_TRUE(swap.ok()) << swap.error;
  engine.run_until_idle();
  EXPECT_GT(policy.stats().auto_thaws, mutations_before);
  EXPECT_TRUE(policy.frozen()) << "verified after hot-swap commit";

  // rollback(epoch) is itself a verified swap: same lifecycle.
  const auto back = reconf.rollback(0);
  ASSERT_TRUE(back.ok()) << back.error;
  engine.run_until_idle();
  EXPECT_TRUE(policy.frozen()) << "verified after rollback";

  // A/B tee: staging the shadow mutates the graph (re-verify), and the
  // promotion goes through the normal verified swap.
  auto begun = reconf.begin_tee(rig.c_id, c_successor(), /*compare=*/{},
                                /*quota=*/3);
  ASSERT_EQ(begun.outcome, reconfig::SwapOutcome::kTeeing) << begun.error;
  for (int i = 0; i < 3; ++i) rig.source->push(Tick{100 + i});
  const auto promoted = reconf.poll_tee();
  ASSERT_TRUE(promoted.ok()) << promoted.error;
  EXPECT_FALSE(reconf.tee_active());
  EXPECT_TRUE(policy.frozen()) << "verified after tee promotion";

  // And traffic still matches an ungated, never-swapped twin (the swaps
  // installed behaviorally identical successors). The twin replays the
  // rig's warm-up traffic so the per-producer sequence counters in the
  // transcript line up; the tee shadow only ran samples through the
  // not-yet-live successor, so it consumed no live sequence numbers.
  PlanRig twin(/*with_feature=*/false);
  for (int i = 0; i < 5; ++i) twin.source->push(Tick{i});
  for (int i = 0; i < 3; ++i) twin.source->push(Tick{100 + i});
  std::ostringstream rig_warmup;
  std::ostringstream twin_warmup;
  rig.transcript.swap(rig_warmup);
  twin.transcript.swap(twin_warmup);
  for (int i = 0; i < 50; ++i) {
    rig.source->push(Tick{500 + i});
    twin.source->push(Tick{500 + i});
  }
  EXPECT_EQ(rig.transcript.str(), twin.transcript.str());
}

// --- Chaos property test -----------------------------------------------------

TEST(Plan, ChaosMutationsKeepTranscriptsIdenticalAndGateVerified) {
  // Random interleaving of traffic and mutations applied identically to a
  // gated rig and an ungated twin. Both must match the golden transcript
  // for the seed, and after every mutation the gate must have re-verified
  // the (always clean) graph.
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    PlanRig rig(/*with_feature=*/false);
    PlanRig twin(/*with_feature=*/false);
    plan::GraphPlan policy(rig.graph);
    ASSERT_TRUE(policy.freeze().frozen);

    std::mt19937_64 rng(seed);
    bool extra_edge = false;
    for (int i = 0; i < 600; ++i) {
      const std::uint64_t roll = rng() % 20;
      if (roll == 0) {
        // Toggle a redundant edge (Src -> C directly; C requires Tick, so
        // the edge is realizable and changes delivery fan-out).
        if (!extra_edge) {
          rig.graph.connect(rig.source_id, rig.c_id);
          twin.graph.connect(twin.source_id, twin.c_id);
        } else {
          rig.graph.disconnect(rig.source_id, rig.c_id);
          twin.graph.disconnect(twin.source_id, twin.c_id);
        }
        extra_edge = !extra_edge;
        EXPECT_TRUE(policy.frozen()) << "seed=" << seed << " i=" << i;
      } else if (roll == 1) {
        rig.graph.replace(rig.b_id, add_stage(10));
        twin.graph.replace(twin.b_id, add_stage(10));
        EXPECT_TRUE(policy.frozen()) << "seed=" << seed << " i=" << i;
      } else if (roll == 2) {
        // Manual disarm/arm churn through the gate.
        policy.thaw();
        ASSERT_TRUE(policy.freeze().frozen);
      } else if (roll < 6) {
        const std::size_t n = 1 + rng() % 4;
        for (std::size_t j = 0; j < n; ++j) {
          const int v = static_cast<int>(rng() % 1000);
          rig.source->push(Tick{v});
          twin.source->push(Tick{v});
        }
      } else {
        const int v = static_cast<int>(rng() % 1000);
        rig.source->push(Tick{v});
        twin.source->push(Tick{v});
      }
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    expect_golden("chaos_seed" + std::to_string(seed), rig.transcript.str());
    EXPECT_EQ(rig.transcript.str(), twin.transcript.str());
  }
}
