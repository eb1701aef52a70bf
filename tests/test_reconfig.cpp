// Live reconfiguration tests (perpos::reconfig):
//  - zero-loss/zero-duplicate hot swap under traffic: a swap at 8 workers
//    with a FlakyLink in the pipeline yields a transcript byte-identical
//    to the no-swap run (state handed off, logical time continuous),
//  - verifier gate: a rejected swap leaves the incumbent installed and
//    the transcript byte-identical (staging never flushes),
//  - epoch rollback: committed swaps reverse newest-first, every rollback
//    triggers a FlightRecorder dump carrying the kReconfig events,
//  - failed handoff (throwing restore_state) aborts with the incumbent
//    in place,
//  - A/B tee: matching transcripts promote the successor, divergence
//    auto-aborts and removes the shadow,
//  - health probation: a successor going silent inside the probation
//    window is rolled back automatically,
//  - churn soak: repeated swap/rollback under FlakyLink traffic keeps the
//    transcript equivalent to the no-churn run (run under TSan in CI),
//  - metrics: the perpos_reconfig_*_total series are the reconfigurator's
//    own counts, counted from the moment metrics are switched on.

#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/core/watchdog.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/reconfig/live_reconfigurator.hpp"
#include "perpos/sanitize/sanitizer.hpp"
#include "perpos/sensors/failure_injection.hpp"
#include "perpos/sim/random.hpp"
#include "perpos/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace core = perpos::core;
namespace exec = perpos::exec;
namespace obs = perpos::obs;
namespace reconfig = perpos::reconfig;
namespace sanitize = perpos::sanitize;
namespace sensors = perpos::sensors;
namespace sim = perpos::sim;

namespace {

struct Tick {
  int value = 0;
};

/// A stateful pass-through stage: appends "#<n>" (its running sample
/// count) to every fragment. The count is the state a hot swap must carry
/// over — any loss, duplication or reset shows up in the transcript.
class CountingStage : public core::ProcessingComponent {
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
    context().emit(core::Payload::make(
        core::RawFragment{fragment->bytes + "#" + std::to_string(count_)}));
  }

  std::string serialize_state() const override {
    return std::to_string(count_);
  }
  void restore_state(const std::string& blob) override {
    count_ = blob.empty() ? 0 : std::stoull(blob);
  }

  std::uint64_t count() const noexcept { return count_; }

 private:
  std::string kind_;
  std::uint64_t count_ = 0;
};

/// Sink that interprets its input against a named coordinate frame: a
/// successor emitting a different frame passes every type check but is an
/// error for the static analyzer (PPV007 frame-mismatch).
class FramedSink final : public core::ApplicationSink, public core::FrameAware {
 public:
  FramedSink(std::string frame, Callback callback)
      : core::ApplicationSink(
            "Sink",
            std::vector<core::InputRequirement>{
                core::require<core::RawFragment>()},
            std::move(callback)),
        frame_(std::move(frame)) {}
  std::string input_frame() const override { return frame_; }

 private:
  std::string frame_;
};

/// Successor whose output is bound to the wrong building frame: every
/// inbound/outbound edge stays type-realizable, so structural staging
/// succeeds — only the verifier (PPV007 frame-mismatch, an error) can
/// reject it.
class WrongFrameStage final : public CountingStage, public core::FrameAware {
 public:
  WrongFrameStage() : CountingStage("WrongFrame") {}
  std::string output_frame() const override { return "siteB"; }
};

class ExplodingRestore final : public CountingStage {
 public:
  ExplodingRestore() : CountingStage("Exploding") {}
  void restore_state(const std::string&) override {
    throw std::runtime_error("successor refuses the handed-off state");
  }
};

/// Emits "!<n>" instead of "#<n>": same types (the default comparator
/// would pass), different bytes (a byte comparator flags divergence).
class DivergentStage final : public core::ProcessingComponent {
 public:
  std::string_view kind() const override { return "Divergent"; }
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
    context().emit(core::Payload::make(
        core::RawFragment{fragment->bytes + "!" + std::to_string(count_)}));
  }

 private:
  std::uint64_t count_ = 0;
};

/// Src -> FlakyLink -> CountingStage -> Sink, transcript at the sink.
struct ChaosRig {
  explicit ChaosRig(std::uint64_t seed, bool flaky = true) : random(seed) {
    source = std::make_shared<core::SourceComponent>(
        "Src",
        std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
    source_id = graph.add(source);
    core::ComponentId prev = source_id;
    if (flaky) {
      sensors::FailureInjectionConfig cfg;
      cfg.drop_probability = 0.05;
      cfg.garble_probability = 0.02;
      cfg.duplicate_probability = 0.05;
      cfg.reorder_probability = 0.05;
      link_id = graph.add(
          std::make_shared<sensors::FlakyLinkComponent>(cfg, random));
      graph.connect(prev, link_id);
      prev = link_id;
    }
    stage_id = graph.add(std::make_shared<CountingStage>("CountingV1"));
    graph.connect(prev, stage_id);
    // The sink is frame-aware (siteA): frame-neutral stages match it, a
    // wrong-frame successor is a PPV007 verifier error.
    sink_id = graph.add(std::make_shared<FramedSink>(
        "siteA", [this](const core::Sample& s) {
          transcript << s.payload.get<core::RawFragment>()->bytes << ':'
                     << s.sequence << ';';
        }));
    graph.connect(stage_id, sink_id);
  }

  sim::Random random;
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  core::ComponentId source_id = core::kInvalidComponent;
  core::ComponentId link_id = core::kInvalidComponent;
  core::ComponentId stage_id = core::kInvalidComponent;
  core::ComponentId sink_id = core::kInvalidComponent;
  std::ostringstream transcript;
};

/// Push `total` fragments through a ChaosRig on `workers` workers,
/// hot-swapping the counting stage `swaps` times spread through the
/// traffic. Every swap installs a behaviorally identical successor, so
/// the transcript must be byte-identical to the swap-free run.
std::string run_chaos(std::size_t workers, int swaps, std::uint64_t seed,
                      int total = 2000) {
  ChaosRig rig(seed);
  exec::ExecutionEngine engine(workers);
  const exec::LaneId lane = engine.create_lane("chaos");
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  int pushed = 0;
  const int per_phase = total / (swaps + 1);
  for (int phase = 0; phase <= swaps; ++phase) {
    const int n = phase == swaps ? total - pushed : per_phase;
    for (int i = 0; i < n; ++i) {
      const int value = pushed++;
      engine.post(lane, [&rig, value] {
        rig.source->push(core::RawFragment{"s" + std::to_string(value)});
      });
    }
    if (phase < swaps) {
      // Swap while the lane still drains the phase's traffic.
      const auto result = reconf.replace(
          rig.stage_id, std::make_shared<CountingStage>(
                            phase % 2 == 0 ? "CountingV2" : "CountingV1"));
      EXPECT_TRUE(result.ok()) << result.error;
    }
  }
  engine.run_until_idle();
  EXPECT_EQ(engine.failed(), 0u);
  EXPECT_EQ(reconf.commits(), static_cast<std::uint64_t>(swaps));
  return rig.transcript.str();
}

}  // namespace

// --- Hot swap ----------------------------------------------------------------

TEST(Reconfig, HandoffTransfersStateAndLogicalTime) {
  ChaosRig rig(7, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  for (int i = 0; i < 5; ++i) rig.source->push(core::RawFragment{"a"});
  const auto result =
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"));
  ASSERT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(result.epoch, 1u);
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "V2");
  for (int i = 0; i < 5; ++i) rig.source->push(core::RawFragment{"a"});

  // Counts run 1..10 with no reset and no gap, and the sink's per-producer
  // sequence numbers stay continuous across the swap.
  EXPECT_EQ(rig.transcript.str(),
            "a#1:1;a#2:2;a#3:3;a#4:4;a#5:5;"
            "a#6:6;a#7:7;a#8:8;a#9:9;a#10:10;");
}

TEST(Reconfig, ZeroLossSwapUnderTrafficMatchesNoSwapRun) {
  const std::string baseline = run_chaos(/*workers=*/0, /*swaps=*/0, 1234);
  ASSERT_FALSE(baseline.empty());
  const std::string swapped = run_chaos(/*workers=*/8, /*swaps=*/3, 1234);
  EXPECT_EQ(swapped, baseline)
      << "hot swap under traffic changed the delivered sample stream";
}

TEST(Reconfig, RejectedSwapLeavesTranscriptByteIdentical) {
  ChaosRig control(9, /*flaky=*/false);
  ChaosRig rig(9, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  for (int i = 0; i < 4; ++i) {
    control.source->push(core::RawFragment{"x"});
    rig.source->push(core::RawFragment{"x"});
  }
  const auto result =
      reconf.replace(rig.stage_id, std::make_shared<WrongFrameStage>());
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kRejected);
  EXPECT_GE(result.report.errors(), 1u);
  EXPECT_EQ(reconf.rejects(), 1u);
  EXPECT_EQ(rig.graph.epoch(), 0u);  // No commit, no epoch advance.
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "CountingV1");
  for (int i = 0; i < 4; ++i) {
    control.source->push(core::RawFragment{"x"});
    rig.source->push(core::RawFragment{"x"});
  }
  EXPECT_EQ(rig.transcript.str(), control.transcript.str());
}

TEST(Reconfig, StructurallyImpossibleSwapIsRejected) {
  ChaosRig rig(3, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  // A source has no inputs: every inbound edge of the victim becomes
  // unrealizable, which core::ProcessingGraph::replace refuses outright.
  auto bad = std::make_shared<core::SourceComponent>(
      "Bad", std::vector<core::DataSpec>{core::provide<Tick>()});
  const auto result = reconf.replace(rig.stage_id, bad);
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kRejected);
  EXPECT_FALSE(result.error.empty());
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "CountingV1");
}

TEST(Reconfig, FailedHandoffAbortsWithIncumbentInstalled) {
  ChaosRig rig(5, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  for (int i = 0; i < 3; ++i) rig.source->push(core::RawFragment{"b"});
  const auto result =
      reconf.replace(rig.stage_id, std::make_shared<ExplodingRestore>());
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kAborted);
  EXPECT_NE(result.error.find("refuses"), std::string::npos);
  EXPECT_EQ(reconf.aborts(), 1u);
  EXPECT_EQ(rig.graph.epoch(), 0u);
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "CountingV1");
  // The incumbent keeps working after the aborted swap.
  rig.source->push(core::RawFragment{"b"});
  EXPECT_NE(rig.transcript.str().find("b#4"), std::string::npos);
}

// --- Rollback ----------------------------------------------------------------

TEST(Reconfig, RollbackRestoresPredecessorsNewestFirst) {
  ChaosRig rig(11, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"))
          .ok());
  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V3"))
          .ok());
  EXPECT_EQ(rig.graph.epoch(), 2u);
  EXPECT_EQ(reconf.rollback_epochs(), (std::vector<std::uint64_t>{0u, 1u}));

  const auto result = reconf.rollback(0);
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "CountingV1");
  EXPECT_EQ(reconf.rollbacks(), 1u);
  EXPECT_TRUE(reconf.rollback_epochs().empty());
  EXPECT_GT(rig.graph.epoch(), 2u);  // A rollback is itself a reconfig.
}

TEST(Reconfig, EveryRollbackTriggersFlightDumpWithReconfigEvents) {
  ChaosRig rig(13, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();

  obs::FlightRecorder recorder(256);
  const std::uint32_t ring = recorder.add_lane("graph");
  rig.graph.set_flight_recorder(&recorder, ring);
  std::vector<std::string> dump_reasons;
  recorder.set_dump_handler(
      [&](const std::string& reason, const obs::FlightRecorder&) {
        dump_reasons.push_back(reason);
      });

  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);
  for (int i = 0; i < 3; ++i) rig.source->push(core::RawFragment{"r"});
  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"))
          .ok());
  ASSERT_TRUE(reconf.rollback(0).ok());

  ASSERT_FALSE(dump_reasons.empty());
  EXPECT_NE(dump_reasons.back().find("rollback"), std::string::npos);

  // The dump carries the protocol's kReconfig events: the committed swap
  // and the rolled_back reversal.
  std::vector<std::string> phases;
  for (const obs::FlightEvent& event : recorder.merged_events()) {
    if (event.type == obs::FlightEventType::kReconfig) {
      phases.emplace_back(event.detail);
    }
  }
  EXPECT_NE(std::find(phases.begin(), phases.end(), "committed"),
            phases.end());
  EXPECT_NE(std::find(phases.begin(), phases.end(), "rolled_back"),
            phases.end());
}

TEST(Reconfig, RollbackBeyondBoundedHistoryFails) {
  ChaosRig rig(17, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::ReconfigOptions options;
  options.history = 2;
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane, options);

  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(reconf
                    .replace(rig.stage_id,
                             std::make_shared<CountingStage>(
                                 "V" + std::to_string(i + 2)))
                    .ok());
  }
  // Epoch 0's record fell off the two-deep history.
  const auto result = reconf.rollback(0);
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kAborted);
  EXPECT_NE(result.error.find("bounded undo history"), std::string::npos);
  // Rolling back within the window still works.
  EXPECT_TRUE(reconf.rollback(1).ok());
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "V2");
}

TEST(Reconfig, RollbackPreservesDisplacedState) {
  ChaosRig rig(19, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  for (int i = 0; i < 5; ++i) rig.source->push(core::RawFragment{"c"});
  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"))
          .ok());
  for (int i = 0; i < 2; ++i) rig.source->push(core::RawFragment{"c"});
  ASSERT_TRUE(reconf.rollback(0).ok());
  // V1 returns with the count it held when displaced (5); the samples the
  // successor processed are not replayed (they were delivered exactly
  // once), so the next count is 6.
  rig.source->push(core::RawFragment{"c"});
  const std::string transcript = rig.transcript.str();
  EXPECT_NE(transcript.find("c#6:6;c#7:7;"), std::string::npos);
  EXPECT_NE(transcript.find("c#6:8;"), std::string::npos)
      << transcript;  // Rolled-back V1 continues at 6 on sequence 8.
}

// --- Metrics -----------------------------------------------------------------

TEST(Reconfig, OutcomeSeriesReadTheReconfiguratorsCounts) {
  ChaosRig rig(29, /*flaky=*/false);
  rig.graph.enable_observability();
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  // (commits, rejects, aborts, rollbacks) as the registry exports them.
  const auto series = [&rig] {
    const obs::MetricsSnapshot snap = rig.graph.metrics();
    std::vector<std::uint64_t> out;
    for (const char* name :
         {"perpos_reconfig_commits_total", "perpos_reconfig_rejects_total",
          "perpos_reconfig_aborts_total", "perpos_reconfig_rollbacks_total"}) {
      const auto* counter = snap.find_counter(name);
      EXPECT_NE(counter, nullptr) << name;
      out.push_back(counter != nullptr ? counter->value : ~0ull);
    }
    return out;
  };
  const auto own = [&reconf] {
    return std::vector<std::uint64_t>{reconf.commits(), reconf.rejects(),
                                      reconf.aborts(), reconf.rollbacks()};
  };

  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"))
          .ok());
  EXPECT_EQ(
      reconf.replace(rig.stage_id, std::make_shared<WrongFrameStage>())
          .outcome,
      reconfig::SwapOutcome::kRejected);
  EXPECT_EQ(
      reconf.replace(rig.stage_id, std::make_shared<ExplodingRestore>())
          .outcome,
      reconfig::SwapOutcome::kAborted);
  ASSERT_TRUE(reconf.rollback(0).ok());
  EXPECT_EQ(own(), (std::vector<std::uint64_t>{1, 1, 1, 1}));
  EXPECT_EQ(series(), own());

  // A re-enabled graph counts from the re-enable, as its own counts do.
  rig.graph.disable_observability();
  rig.graph.enable_observability();
  EXPECT_EQ(series(), (std::vector<std::uint64_t>{0, 0, 0, 0}));
  ASSERT_TRUE(
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V3"))
          .ok());
  EXPECT_EQ(series(), (std::vector<std::uint64_t>{1, 0, 0, 0}));
  EXPECT_EQ(reconf.commits(), 2u);
}

// --- A/B tee -----------------------------------------------------------------

TEST(Reconfig, TeePromotesSuccessorWhenTranscriptsMatch) {
  ChaosRig rig(23, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  for (int i = 0; i < 3; ++i) rig.source->push(core::RawFragment{"t"});
  const std::size_t before = rig.graph.size();
  auto begun = reconf.begin_tee(rig.stage_id,
                                std::make_shared<CountingStage>("V2"),
                                /*compare=*/{}, /*quota=*/4);
  ASSERT_EQ(begun.outcome, reconfig::SwapOutcome::kTeeing) << begun.error;
  EXPECT_TRUE(reconf.tee_active());
  EXPECT_EQ(rig.graph.size(), before + 1);  // Shadow.

  for (int i = 0; i < 4; ++i) rig.source->push(core::RawFragment{"t"});
  const auto result = reconf.poll_tee();
  EXPECT_TRUE(result.ok()) << result.error;
  EXPECT_FALSE(reconf.tee_active());
  EXPECT_EQ(rig.graph.size(), before);  // Shadow gone.
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "V2");
  // The promoted successor carried the incumbent's count (7), not the
  // shadow-warmup count.
  rig.source->push(core::RawFragment{"t"});
  EXPECT_NE(rig.transcript.str().find("t#8"), std::string::npos);
}

TEST(Reconfig, TeeDivergenceAbortsAndRemovesShadow) {
  ChaosRig rig(29, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);

  obs::FlightRecorder recorder(256);
  const std::uint32_t ring = recorder.add_lane("graph");
  rig.graph.set_flight_recorder(&recorder, ring);

  const std::size_t before = rig.graph.size();
  auto begun = reconf.begin_tee(
      rig.stage_id, std::make_shared<DivergentStage>(),
      [](const core::Sample& a, const core::Sample& b) {
        return a.payload.get<core::RawFragment>()->bytes ==
               b.payload.get<core::RawFragment>()->bytes;
      },
      /*quota=*/8);
  ASSERT_EQ(begun.outcome, reconfig::SwapOutcome::kTeeing) << begun.error;

  for (int i = 0; i < 3; ++i) rig.source->push(core::RawFragment{"d"});
  const auto result = reconf.poll_tee();
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kAborted);
  EXPECT_NE(result.error.find("diverged"), std::string::npos);
  EXPECT_FALSE(reconf.tee_active());
  EXPECT_EQ(rig.graph.size(), before);
  EXPECT_EQ(rig.graph.info(rig.stage_id).kind, "CountingV1");
  EXPECT_GE(recorder.triggers(), 1u);
  // The incumbent's traffic was never disturbed by the shadow.
  EXPECT_EQ(rig.transcript.str(), "d#1:1;d#2:2;d#3:3;");
}

TEST(Reconfig, TeeOnSourceIsRefused) {
  ChaosRig rig(31, /*flaky=*/false);
  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);
  const auto result = reconf.begin_tee(
      rig.source_id, std::make_shared<CountingStage>("V2"), {}, 4);
  EXPECT_EQ(result.outcome, reconfig::SwapOutcome::kAborted);
  EXPECT_NE(result.error.find("source"), std::string::npos);
  EXPECT_FALSE(reconf.tee_active());
}

// --- Probation ---------------------------------------------------------------

TEST(Reconfig, ProbationRollsBackSilentSuccessor) {
  sim::Scheduler scheduler;
  core::ProcessingGraph graph(&scheduler.clock());
  auto source = std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
  const auto source_id = graph.add(source);
  const auto stage_id = graph.add(std::make_shared<CountingStage>("V1"));
  graph.connect(source_id, stage_id);
  const auto sink_id = graph.add(std::make_shared<core::ApplicationSink>(
      "Sink",
      std::vector<core::InputRequirement>{core::require<core::RawFragment>()},
      nullptr));
  graph.connect(stage_id, sink_id);

  exec::ExecutionEngine engine(0);
  const exec::LaneId lane = engine.create_lane();
  core::WatchdogConfig cfg;
  cfg.check_interval = sim::SimTime::from_millis(500);
  cfg.degraded_after_s = 1.0;
  cfg.stale_after_s = 2.0;
  cfg.dead_after_s = 60.0;
  core::Watchdog dog(graph, scheduler, cfg);

  reconfig::ReconfigOptions options;
  options.probation_checks = 10;  // 5 s window at 500 ms checks.
  reconfig::LiveReconfigurator reconf(graph, engine, lane, options);
  reconf.enable_probation(dog);

  // Feed the stage so it is healthy at swap time, swap at t=1s, then let
  // the successor fall silent: stale at ~3s, well inside the window.
  for (double t = 0.2; t < 1.0; t += 0.2) {
    scheduler.schedule_at(sim::SimTime::from_seconds(t), [&] {
      source->push(core::RawFragment{"p"});
    });
  }
  scheduler.schedule_at(sim::SimTime::from_seconds(1.0), [&] {
    const auto result =
        reconf.replace(stage_id, std::make_shared<CountingStage>("V2"));
    EXPECT_TRUE(result.ok()) << result.error;
  });
  dog.start();
  scheduler.run_until(sim::SimTime::from_seconds(8.0));
  dog.stop();

  EXPECT_EQ(reconf.rollbacks(), 1u);
  EXPECT_EQ(graph.info(stage_id).kind, "V1");
}

// --- Churn soak --------------------------------------------------------------

TEST(Reconfig, ChurnSoakSwapAndRollbackUnderFlakyTraffic) {
  // Swap back and forth repeatedly while FlakyLink drops/duplicates/
  // reorders traffic at 8 workers; the transcript must stay byte-identical
  // to the churn-free single-threaded run. CI re-runs this under TSan.
  const std::string baseline = run_chaos(0, 0, 4321);
  const std::string churned = run_chaos(8, 7, 4321);
  EXPECT_EQ(churned, baseline);
}

TEST(Reconfig, SanitizerStaysQuietDuringProtocolMutations) {
  ChaosRig rig(37, /*flaky=*/false);
  exec::ExecutionEngine engine(4);
  const exec::LaneId lane = engine.create_lane();
  sanitize::GraphSanitizer sanitizer;
  sanitizer.attach(rig.graph);
  sanitizer.watch_engine(engine);
  sanitizer.unbind_thread();  // Pushes come from a worker, swaps from here.

  reconfig::LiveReconfigurator reconf(rig.graph, engine, lane);
  reconf.set_sanitizer(&sanitizer);
  for (int i = 0; i < 200; ++i) {
    engine.post(lane, [&rig] { rig.source->push(core::RawFragment{"q"}); });
  }
  const auto result =
      reconf.replace(rig.stage_id, std::make_shared<CountingStage>("V2"));
  EXPECT_TRUE(result.ok()) << result.error;
  engine.run_until_idle();
  // The fenced, quiesced swap must not look like a mutation-during-drain.
  for (const auto& diagnostic : sanitizer.report().diagnostics) {
    EXPECT_NE(diagnostic.rule_id, "PPS006") << diagnostic.message;
  }
  sanitizer.detach();
}
