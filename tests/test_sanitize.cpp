// Tests for the runtime Graph Sanitizer (perpos::sanitize): the chaos
// scenarios of the PPS rule family — lane hijack, clock regression,
// emission-depth blowup, queue watermarks, pool hygiene — plus the
// PERPOS_SANITIZE environment mode and the static+runtime mixed SARIF
// report.

#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/sim/clock.hpp"
#include "perpos/sanitize/sanitizer.hpp"
#include "perpos/verify/emit.hpp"
#include "perpos/verify/verify.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

namespace core = perpos::core;
namespace exec = perpos::exec;
namespace san = perpos::sanitize;
namespace sim = perpos::sim;
namespace vfy = perpos::verify;

namespace {

struct V0 {
  int value = 0;
};

std::shared_ptr<core::SourceComponent> make_source() {
  return std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<V0>()});
}

std::shared_ptr<core::ApplicationSink> make_sink(std::string name = "Sink") {
  return std::make_shared<core::ApplicationSink>(
      std::move(name),
      std::vector<core::InputRequirement>{core::require<V0>()});
}

/// A clock that runs backwards: each read returns an earlier time than the
/// previous one — the temporal fault PPS002 exists to catch.
class BackwardsClock final : public sim::Clock {
 public:
  sim::SimTime now() const noexcept override {
    t_ = t_ - sim::SimTime::from_millis(10);
    return t_;
  }

 private:
  mutable sim::SimTime t_ = sim::SimTime::from_seconds(100.0);
};

bool has_rule(const vfy::Report& report, const std::string& rule) {
  return !report.by_rule(rule).empty();
}

}  // namespace

// --- PPS001 lane ownership ---------------------------------------------------

TEST(Sanitize, ForeignThreadDispatchIsCaught) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto sink = g.add(make_sink());
  g.connect(src, sink);

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  sanitizer.bind_to_current_thread();

  // Well-behaved dispatch from the bound thread: silent.
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  EXPECT_EQ(sanitizer.violations(), 0u);

  // The lane hijack: another thread drives the same graph.
  std::thread hijacker(
      [&g, src] { g.component_as<core::SourceComponent>(src)->push(V0{2}); });
  hijacker.join();

  const vfy::Report report = sanitizer.report();
  ASSERT_TRUE(has_rule(report, "PPS001"));
  EXPECT_EQ(report.by_rule("PPS001")[0]->severity, vfy::Severity::kError);
  EXPECT_FALSE(report.ok());
}

TEST(Sanitize, FirstUseBindingAcceptsASingleThread) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto sink = g.add(make_sink());
  g.connect(src, sink);

  san::GraphSanitizer sanitizer;  // bind_on_first_use = true.
  sanitizer.attach(g);
  for (int i = 0; i < 10; ++i) {
    g.component_as<core::SourceComponent>(src)->push(V0{i});
  }
  EXPECT_EQ(sanitizer.violations(), 0u);
}

// --- PPS002 time regression --------------------------------------------------

TEST(Sanitize, BackwardsClockIsCaught) {
  BackwardsClock clock;
  core::ProcessingGraph g(&clock);
  const auto src = g.add(make_source());
  const auto sink = g.add(make_sink());
  g.connect(src, sink);

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  g.component_as<core::SourceComponent>(src)->push(V0{2});

  const vfy::Report report = sanitizer.report();
  ASSERT_TRUE(has_rule(report, "PPS002"));
  EXPECT_EQ(report.by_rule("PPS002")[0]->severity, vfy::Severity::kWarning);
  // Dedupe: a clock stuck in reverse reports once per producer, not once
  // per sample.
  g.component_as<core::SourceComponent>(src)->push(V0{3});
  EXPECT_EQ(sanitizer.report().by_rule("PPS002").size(), 1u);
}

TEST(Sanitize, MonotonicClockIsClean) {
  sim::SimClock clock;
  core::ProcessingGraph g(&clock);
  const auto src = g.add(make_source());
  const auto sink = g.add(make_sink());
  g.connect(src, sink);

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  for (int i = 0; i < 5; ++i) {
    clock.advance_to(sim::SimTime::from_millis(i * 100));
    g.component_as<core::SourceComponent>(src)->push(V0{i});
  }
  EXPECT_FALSE(has_rule(sanitizer.report(), "PPS002"));
}

TEST(Sanitize, ProduceHookAddedDataIsNotATimeRegression) {
  // A produce hook that adds data emits from inside its host's emission:
  // the added sample is stamped after its parent but leaves the port
  // first. Each origin stays monotonic, so PPS002 stays quiet.
  struct AddOnProduce final : core::ComponentFeature {
    std::string_view name() const override { return "added"; }
    std::vector<const core::TypeInfo*> added_types() const override {
      return {core::type_of<V0>()};
    }
    bool emits_in_produce() const override { return true; }
    bool produce(core::Sample& sample) override {
      if (!sample.feature_added()) {
        context().emit(core::Payload::make(V0{0}));
      }
      return true;
    }
  };
  sim::SimClock clock;
  core::ProcessingGraph g(&clock);
  const auto src = g.add(make_source());
  g.connect(src, g.add(make_sink()));
  g.attach_feature(src, std::make_shared<AddOnProduce>());
  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  for (int i = 0; i < 5; ++i) {
    clock.advance_to(sim::SimTime::from_millis(i * 100));
    g.component_as<core::SourceComponent>(src)->push(V0{i});
  }
  EXPECT_FALSE(has_rule(sanitizer.report(), "PPS002"));
}

// --- PPS004 emission-depth blowup ---------------------------------------------

TEST(Sanitize, CascadeBlowupIsCaughtAndDeduped) {
  // One emission fanning out into 12 deliveries with a cascade bound of 8:
  // the blowup fires PPS004. Re-triggering the same blowup must not grow
  // the report — violations dedupe per (rule, site).
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  for (int i = 0; i < 12; ++i) {
    const auto sink = g.add(make_sink("App" + std::to_string(i)));
    g.connect(src, sink);
  }

  san::SanitizerConfig config;
  config.max_cascade = 8;
  san::GraphSanitizer sanitizer(config);
  sanitizer.attach(g);
  g.component_as<core::SourceComponent>(src)->push(V0{1});

  const vfy::Report first = sanitizer.report();
  ASSERT_GE(first.by_rule("PPS004").size(), 1u);
  EXPECT_EQ(first.by_rule("PPS004")[0]->severity, vfy::Severity::kError);

  g.component_as<core::SourceComponent>(src)->push(V0{2});
  EXPECT_EQ(sanitizer.report().by_rule("PPS004").size(),
            first.by_rule("PPS004").size());
}

TEST(Sanitize, BoundedCascadeIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  for (int i = 0; i < 4; ++i) {
    const auto sink = g.add(make_sink("App" + std::to_string(i)));
    g.connect(src, sink);
  }
  san::SanitizerConfig config;
  config.max_cascade = 8;
  san::GraphSanitizer sanitizer(config);
  sanitizer.attach(g);
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  EXPECT_EQ(sanitizer.violations(), 0u);
}

// --- PPS003 pool double release ----------------------------------------------

TEST(Sanitize, PoolDoubleReleaseBecomesADiagnostic) {
  core::ProcessingGraph g;
  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  // The pool reports through the observer seam; exercise it directly.
  static_cast<core::GraphObserver&>(sanitizer).on_pool_double_release();
  const vfy::Report report = sanitizer.report();
  ASSERT_TRUE(has_rule(report, "PPS003"));
  EXPECT_EQ(report.by_rule("PPS003")[0]->severity, vfy::Severity::kError);
}

// --- PPS005 queue watermarks -------------------------------------------------

TEST(Sanitize, EngineLaneWatermarkFires) {
  exec::ExecutionEngine engine(0);  // Inline mode: tasks queue until drained.
  const exec::LaneId lane = engine.create_lane("tracker-1");

  san::GraphSanitizer sanitizer;
  sanitizer.watch_engine(engine, /*limit=*/3);
  for (int i = 0; i < 8; ++i) {
    engine.post(lane, [] {});
  }
  engine.run_until_idle();

  const vfy::Report report = sanitizer.report();
  ASSERT_EQ(report.by_rule("PPS005").size(), 1u);
  EXPECT_NE(report.by_rule("PPS005")[0]->message.find("tracker-1"),
            std::string::npos);
}

TEST(Sanitize, DispatchQueueWatermarkFires) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  for (int i = 0; i < 12; ++i) {
    const auto sink = g.add(make_sink("App" + std::to_string(i)));
    g.connect(src, sink);
  }
  san::SanitizerConfig config;
  config.max_queue_depth = 4;  // 12 queued deliveries blow through this.
  san::GraphSanitizer sanitizer(config);
  sanitizer.attach(g);
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  EXPECT_TRUE(has_rule(sanitizer.report(), "PPS005"));
}

// --- Lifecycle, report mixing, environment mode -------------------------------

TEST(Sanitize, DetachStopsObservation) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto sink = g.add(make_sink());
  g.connect(src, sink);

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  EXPECT_TRUE(g.has_observer(sanitizer));
  sanitizer.detach();
  EXPECT_FALSE(g.has_observer(sanitizer));

  std::thread foreign(
      [&g, src] { g.component_as<core::SourceComponent>(src)->push(V0{1}); });
  foreign.join();
  EXPECT_EQ(sanitizer.violations(), 0u);
}

// --- PPS006 mutation during drain --------------------------------------------

TEST(Sanitize, MutationWithTasksInFlightIsCaught) {
  exec::ExecutionEngine engine(0);  // Inline: posted tasks stay queued.
  const auto lane = engine.create_lane();
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  g.connect(src, g.add(make_sink()));

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  sanitizer.watch_engine(engine);
  sanitizer.unbind_thread();

  engine.post(lane, [] {});  // One runnable task: the lane is mid-drain.
  g.add(make_sink("Late"));  // Mutation races the drain.
  EXPECT_TRUE(has_rule(sanitizer.report(), "PPS006"));

  engine.run_until_idle();
}

TEST(Sanitize, MutationBehindAFenceIsClean) {
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane();
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  g.connect(src, g.add(make_sink()));

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  sanitizer.watch_engine(engine);
  sanitizer.unbind_thread();

  engine.post(lane, [] {});
  engine.fence(lane);  // Held tasks leave `outstanding` — proper quiesce.
  g.add(make_sink("Late"));
  EXPECT_FALSE(has_rule(sanitizer.report(), "PPS006"));
  engine.unfence(lane);
  engine.run_until_idle();
}

TEST(Sanitize, MutationInsideQuiesceWindowIsExempt) {
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane();
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  g.connect(src, g.add(make_sink()));

  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  sanitizer.watch_engine(engine);
  sanitizer.unbind_thread();

  engine.post(lane, [] {});  // Runnable work NOT behind a fence...
  sanitizer.begin_quiesce();
  sanitizer.begin_quiesce();  // Windows nest.
  g.add(make_sink("Late"));   // ...but the protocol vouches for this one.
  sanitizer.end_quiesce();
  g.add(make_sink("Later"));  // Still inside the outer window.
  sanitizer.end_quiesce();
  EXPECT_FALSE(has_rule(sanitizer.report(), "PPS006"));

  g.add(make_sink("TooLate"));  // Window closed: this one is a race.
  EXPECT_TRUE(has_rule(sanitizer.report(), "PPS006"));
  engine.run_until_idle();
}

TEST(Sanitize, TeardownChurnWhileFlightRecorderDumps) {
  // Dump handlers iterate merged_events() while worker lanes are still
  // recording into the ring and whole graphs are being torn down; the
  // recorder must stay internally consistent through the churn.
  exec::ExecutionEngine engine(4);
  perpos::obs::FlightRecorder recorder(128);
  std::atomic<std::size_t> dumped_events{0};
  recorder.set_dump_handler(
      [&](const std::string&, const perpos::obs::FlightRecorder& r) {
        dumped_events += r.merged_events().size();
      });

  struct ChurnRig {
    core::ProcessingGraph graph;
    core::SourceComponent* source = nullptr;
  };
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    auto rig = std::make_shared<ChurnRig>();
    const auto src = rig->graph.add(make_source());
    rig->graph.connect(src, rig->graph.add(make_sink()));
    const auto ring =
        recorder.add_lane("churn-" + std::to_string(round));
    rig->graph.set_flight_recorder(&recorder, ring,
                                   static_cast<std::uint32_t>(round));
    rig->source = rig->graph.component_as<core::SourceComponent>(src);
    auto lane = engine.executor(engine.create_lane());
    for (int i = 0; i < 10; ++i) {
      lane([rig] { rig->source->push(V0{1}); });
    }
    recorder.trigger("churn round " + std::to_string(round));
    // Teardown on the owning lane while other lanes still drain and dump.
    lane([rig = std::move(rig)]() mutable { rig.reset(); });
  }
  engine.run_until_idle();
  EXPECT_EQ(recorder.triggers(), static_cast<std::uint64_t>(kRounds));
  EXPECT_GT(dumped_events.load(), 0u);
}

TEST(Sanitize, ClearResetsFindingsAndDedupe) {
  core::ProcessingGraph g;
  san::GraphSanitizer sanitizer;
  sanitizer.attach(g);
  static_cast<core::GraphObserver&>(sanitizer).on_pool_double_release();
  EXPECT_EQ(sanitizer.violations(), 1u);
  sanitizer.clear();
  EXPECT_EQ(sanitizer.violations(), 0u);
  static_cast<core::GraphObserver&>(sanitizer).on_pool_double_release();
  EXPECT_EQ(sanitizer.violations(), 1u);  // Dedupe key was cleared too.
}

TEST(Sanitize, MixedStaticAndRuntimeSarifReport) {
  // The acceptance scenario: seed several runtime violations, combine the
  // sanitizer's findings with a static analysis of the same graph, and
  // emit ONE SARIF report carrying both PPV and PPS results with rule
  // metadata resolved from the shared catalog.
  BackwardsClock clock;
  core::ProcessingGraph g(&clock);
  const auto src = g.add(make_source());
  for (int i = 0; i < 12; ++i) {
    const auto sink = g.add(make_sink("App" + std::to_string(i)));
    g.connect(src, sink);
  }
  g.add(make_sink("Starved"));  // Static finding: PPV001.

  san::SanitizerConfig config;
  config.max_cascade = 8;
  san::GraphSanitizer sanitizer(config);
  sanitizer.attach(g);
  sanitizer.bind_to_current_thread();

  // Chaos: cascade blowup + clock regression from the bound thread...
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  g.component_as<core::SourceComponent>(src)->push(V0{2});
  // ...and a lane hijack from a foreign thread.
  std::thread hijacker(
      [&g, src] { g.component_as<core::SourceComponent>(src)->push(V0{3}); });
  hijacker.join();

  vfy::Report combined = vfy::verify(g);
  const vfy::Report runtime = sanitizer.report();
  ASSERT_TRUE(has_rule(runtime, "PPS001"));
  ASSERT_TRUE(has_rule(runtime, "PPS002"));
  ASSERT_TRUE(has_rule(runtime, "PPS004"));
  combined.diagnostics.insert(combined.diagnostics.end(),
                              runtime.diagnostics.begin(),
                              runtime.diagnostics.end());

  const std::string sarif = vfy::to_sarif(
      combined, vfy::RuleRegistry::default_catalog(), "live:graph");
  EXPECT_NE(sarif.find("\"ruleId\":\"PPV001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"PPS001\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"PPS002\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\":\"PPS004\""), std::string::npos);
  // The runtime ids resolve against the shared catalog's rule metadata, so
  // each appears both in the rules[] array and in its result.
  EXPECT_NE(sarif.find("\"id\":\"PPS001\""), std::string::npos);
}

TEST(Sanitize, EnvironmentModeInstallsTheSanitizer) {
  core::ProcessingGraph g;
  ::unsetenv("PERPOS_SANITIZE");
  EXPECT_FALSE(san::GraphSanitizer::env_enabled());
  EXPECT_EQ(san::GraphSanitizer::install_from_env(g), nullptr);

  ::setenv("PERPOS_SANITIZE", "graph", 1);
  EXPECT_TRUE(san::GraphSanitizer::env_enabled());
  auto installed = san::GraphSanitizer::install_from_env(g);
  ASSERT_NE(installed, nullptr);
  EXPECT_TRUE(g.has_observer(*installed));
  installed.reset();  // Destructor detaches.
  // A sanitizer still registered would hear this mutation after its death
  // (a use-after-free under ASan).
  g.add(make_source());

  ::setenv("PERPOS_SANITIZE", "foo, graph ,bar", 1);
  EXPECT_TRUE(san::GraphSanitizer::env_enabled());
  ::setenv("PERPOS_SANITIZE", "address", 1);
  EXPECT_FALSE(san::GraphSanitizer::env_enabled());
  ::unsetenv("PERPOS_SANITIZE");
}

// --- Flight-recorder wiring ---------------------------------------------------

TEST(Sanitize, ViolationRecordsFlightEventAndTriggersDump) {
  BackwardsClock clock;
  core::ProcessingGraph g(&clock);
  const auto src = g.add(make_source());
  g.connect(src, g.add(make_sink()));

  perpos::obs::FlightRecorder recorder(64);
  std::vector<std::string> reasons;
  recorder.set_dump_handler(
      [&](const std::string& reason, const perpos::obs::FlightRecorder&) {
        reasons.push_back(reason);
      });

  san::GraphSanitizer sanitizer;
  sanitizer.set_flight_recorder(&recorder);
  sanitizer.attach(g);
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  g.component_as<core::SourceComponent>(src)->push(V0{2});  // Time regressed.

  ASSERT_TRUE(has_rule(sanitizer.report(), "PPS002"));
  bool saw_finding = false;
  for (const auto& e : recorder.merged_events()) {
    if (e.type != perpos::obs::FlightEventType::kSanitizerFinding) continue;
    saw_finding = true;
    EXPECT_NE(std::string(e.detail).find("PPS002"), std::string::npos);
  }
  EXPECT_TRUE(saw_finding);
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_NE(reasons[0].find("PPS002"), std::string::npos);

  // The deduped repeat of the same violation must not re-trigger the dump.
  g.component_as<core::SourceComponent>(src)->push(V0{3});
  EXPECT_EQ(recorder.triggers(), 1u);
}
