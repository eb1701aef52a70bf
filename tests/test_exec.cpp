// Tests for the parallel execution engine (perpos::exec) and for the
// hot-path properties the engine relies on in core:
//  - lane serialization and post-order execution,
//  - per-lane determinism across worker counts (byte-identical per-graph
//    delivery sequences with 0, 1 and 8 workers),
//  - the deep-pipeline regression (10k-component chain must not overflow
//    the call stack now that dispatch is an explicit work queue, nor when
//    its provenance chain is freed),
//  - multi-lane chaos: concurrent lane creation / posting / teardown of
//    graphs while other lanes are draining (run under TSan in CI),
//  - the scheduler hand-off (drive() drains lanes between events),
//  - zero-allocation hot-path guards (engine drain, instrumented dispatch).

#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/introspection.hpp"
#include "perpos/sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace core = perpos::core;
namespace exec = perpos::exec;
namespace obs = perpos::obs;
namespace sim = perpos::sim;

namespace {

struct Tick {
  int value = 0;
};
struct Tock {
  int value = 0;
};

std::shared_ptr<core::SourceComponent> tick_source() {
  return std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<Tick>()});
}

std::shared_ptr<core::LambdaComponent> add_one_stage() {
  return std::make_shared<core::LambdaComponent>(
      "AddOne", std::vector<core::InputRequirement>{core::require<Tick>()},
      std::vector<core::DataSpec>{core::provide<Tick>()},
      [](const core::Sample& s, const core::ComponentContext& ctx) {
        ctx.emit(core::Payload::make(Tick{s.payload.get<Tick>()->value + 1}));
      });
}

/// One single-graph positioning process: Src -> AddOne^depth -> Sink,
/// recording every delivered value into a transcript string.
struct GraphRig {
  explicit GraphRig(std::size_t depth) {
    source_id = graph.add(tick_source());
    core::ComponentId prev = source_id;
    for (std::size_t i = 0; i < depth; ++i) {
      const auto stage = graph.add(add_one_stage());
      graph.connect(prev, stage);
      prev = stage;
    }
    auto sink = std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
        [this](const core::Sample& s) {
          transcript << s.payload.get<Tick>()->value << ':' << s.sequence
                     << ';';
        });
    sink_id = graph.add(sink);
    graph.connect(prev, sink_id);
    source = graph.component_as<core::SourceComponent>(source_id);
  }

  core::ProcessingGraph graph;
  core::ComponentId source_id = core::kInvalidComponent;
  core::ComponentId sink_id = core::kInvalidComponent;
  core::SourceComponent* source = nullptr;
  std::ostringstream transcript;
};

}  // namespace

// --- Engine basics -----------------------------------------------------------

TEST(Engine, InlineModeRunsTasksOnRunUntilIdle) {
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane("a");
  int ran = 0;
  engine.post(lane, [&] { ++ran; });
  engine.post(lane, [&] { ++ran; });
  EXPECT_EQ(ran, 0);  // Inline mode queues until drained.
  engine.run_until_idle();
  EXPECT_EQ(ran, 2);
  EXPECT_EQ(engine.executed(), 2u);
  EXPECT_EQ(engine.outstanding(), 0u);
}

TEST(Engine, LaneTasksRunInPostOrder) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    exec::ExecutionEngine engine(workers);
    const auto lane = engine.create_lane();
    std::vector<int> order;
    for (int i = 0; i < 100; ++i) {
      engine.post(lane, [&order, i] { order.push_back(i); });
    }
    engine.run_until_idle();
    ASSERT_EQ(order.size(), 100u) << "workers=" << workers;
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Engine, TasksPostedFromTasksAreExecuted) {
  exec::ExecutionEngine engine(2);
  const auto lane = engine.create_lane();
  std::atomic<int> ran{0};
  engine.post(lane, [&] {
    ++ran;
    engine.post(lane, [&] {
      ++ran;
      engine.post(lane, [&] { ++ran; });
    });
  });
  engine.run_until_idle();
  EXPECT_EQ(ran.load(), 3);
}

TEST(Engine, LanesNeverRunConcurrentlyWithThemselves) {
  exec::ExecutionEngine engine(8);
  const auto lane = engine.create_lane();
  std::atomic<int> inside{0};
  std::atomic<bool> overlapped{false};
  for (int i = 0; i < 500; ++i) {
    engine.post(lane, [&] {
      if (inside.fetch_add(1) != 0) overlapped = true;
      inside.fetch_sub(1);
    });
  }
  engine.run_until_idle();
  EXPECT_FALSE(overlapped.load());
}

TEST(Engine, ExecutorPostsWithoutLookup) {
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane();
  auto executor = engine.executor(lane);
  int ran = 0;
  executor([&] { ++ran; });
  engine.run_until_idle();
  EXPECT_EQ(ran, 1);
  EXPECT_THROW(engine.executor(42), std::invalid_argument);
  EXPECT_THROW(engine.post(42, [] {}), std::invalid_argument);
}

TEST(Engine, MetricsReflectActivity) {
  exec::ExecutionEngine engine(0);
  perpos::obs::MetricsRegistry registry;
  engine.enable_metrics(&registry);
  const auto lane = engine.create_lane("metered");
  engine.post(lane, [] {});
  engine.post(lane, [] {});
  engine.run_until_idle();
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.find_counter("perpos_exec_tasks_posted_total")->value, 2u);
  EXPECT_EQ(snap.find_counter("perpos_exec_tasks_executed_total")->value, 2u);
  EXPECT_EQ(snap.find_gauge("perpos_exec_queue_depth")->value, 0.0);
  EXPECT_EQ(snap.find_gauge("perpos_exec_lanes")->value, 1.0);
}

// --- Task exceptions ---------------------------------------------------------

TEST(Engine, ThrowingTaskSurfacesOnRunUntilIdleAndLaneContinues) {
  // Components are allowed to throw from on_input, so lane tasks routing
  // graph work may throw. The engine must neither std::terminate (worker
  // mode) nor wedge the lane (inline mode): remaining tasks still run and
  // the first error is rethrown from run_until_idle.
  for (const std::size_t workers : {std::size_t{0}, std::size_t{2}}) {
    exec::ExecutionEngine engine(workers);
    const auto lane = engine.create_lane();
    std::atomic<int> ran{0};
    engine.post(lane, [&] { ++ran; });
    engine.post(lane, [] { throw std::runtime_error("component failed"); });
    engine.post(lane, [&] { ++ran; });
    EXPECT_THROW(engine.run_until_idle(), std::runtime_error)
        << "workers=" << workers;
    EXPECT_EQ(ran.load(), 2) << "workers=" << workers;
    EXPECT_EQ(engine.outstanding(), 0u);
    EXPECT_EQ(engine.executed(), 3u);
    EXPECT_EQ(engine.failed(), 1u);
    // The error is delivered exactly once, and the lane accepts new work.
    engine.run_until_idle();
    engine.post(lane, [&] { ++ran; });
    engine.run_until_idle();
    EXPECT_EQ(ran.load(), 3) << "workers=" << workers;
  }
}

TEST(Engine, FirstTaskErrorWinsWhenSeveralThrow) {
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane();
  engine.post(lane, [] { throw std::runtime_error("first"); });
  engine.post(lane, [] { throw std::logic_error("second"); });
  try {
    engine.run_until_idle();
    FAIL() << "expected the first task error to be rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
  EXPECT_EQ(engine.failed(), 2u);  // Both counted, only the first rethrown.
  engine.run_until_idle();         // The second error was dropped.
}

TEST(Engine, FailedTasksAreCountedInMetrics) {
  exec::ExecutionEngine engine(0);
  perpos::obs::MetricsRegistry registry;
  engine.enable_metrics(&registry);
  const auto lane = engine.create_lane();
  engine.post(lane, [] {});
  engine.post(lane, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(engine.run_until_idle(), std::runtime_error);
  const auto snap = registry.snapshot();
  EXPECT_EQ(snap.find_counter("perpos_exec_tasks_executed_total")->value, 2u);
  EXPECT_EQ(snap.find_counter("perpos_exec_tasks_failed_total")->value, 1u);
  EXPECT_EQ(snap.find_gauge("perpos_exec_queue_depth")->value, 0.0);
}

// --- Determinism across worker counts ---------------------------------------

TEST(Determinism, PerGraphTranscriptsAreIdenticalForAnyWorkerCount) {
  constexpr std::size_t kGraphs = 6;
  constexpr std::size_t kDepth = 8;
  constexpr int kSamples = 40;

  const auto run = [&](std::size_t workers) {
    std::vector<std::unique_ptr<GraphRig>> rigs;
    for (std::size_t g = 0; g < kGraphs; ++g) {
      rigs.push_back(std::make_unique<GraphRig>(kDepth));
    }
    exec::ExecutionEngine engine(workers);
    std::vector<std::function<void(exec::Task)>> lanes;
    for (std::size_t g = 0; g < kGraphs; ++g) {
      lanes.push_back(engine.executor(engine.create_lane()));
    }
    for (int i = 0; i < kSamples; ++i) {
      for (std::size_t g = 0; g < kGraphs; ++g) {
        GraphRig* rig = rigs[g].get();
        lanes[g]([rig, i] { rig->source->push(Tick{i}); });
      }
    }
    engine.run_until_idle();
    std::vector<std::string> transcripts;
    for (const auto& rig : rigs) transcripts.push_back(rig->transcript.str());
    return transcripts;
  };

  const auto baseline = run(0);
  for (const auto& t : baseline) EXPECT_FALSE(t.empty());
  EXPECT_EQ(run(1), baseline);
  EXPECT_EQ(run(8), baseline);
}

// --- Deep pipelines ----------------------------------------------------------

TEST(DeepPipeline, TenThousandStageChainDoesNotOverflowTheStack) {
  // With the old recursive dispatcher this nested ~6 frames per stage and
  // blew the 8 MB default stack around a few thousand stages; the explicit
  // work queue makes depth a heap concern only.
  GraphRig rig(10'000);
  rig.source->push(Tick{0});
  const std::string t = rig.transcript.str();
  EXPECT_EQ(t, "10000:1;");
  rig.source->push(Tick{100});
  // Sequence numbers are per-emitting-component and monotone, so the second
  // traversal arrives at the sink as sequence 2.
  EXPECT_EQ(rig.transcript.str(), "10000:1;10100:2;");
}

TEST(DeepPipeline, RetainedChainOutlivesTheGraphWithoutRecursion) {
  // A sample the application keeps holds its whole 10k-level provenance
  // chain. Dropping it after the graph died frees the chain iteratively.
  core::Sample kept;
  {
    GraphRig rig(10'000);
    rig.source->push(Tick{0});
    kept = *rig.graph.component_as<core::ApplicationSink>(rig.sink_id)->last();
  }
  std::size_t levels = 0;
  for (const core::Sample* node = &kept; node->inputs;
       node = &node->inputs->front()) {
    ++levels;
  }
  EXPECT_EQ(levels, 10'000u);
  kept = core::Sample{};
  EXPECT_FALSE(kept.inputs);
}

// --- Chaos: concurrent deploy/teardown while lanes drain ---------------------

TEST(Chaos, GraphTeardownAndLaneChurnWhileOtherLanesDrain) {
  // Lanes hammer their own graphs while the main thread concurrently
  // creates new lanes, posts to them, and tears whole graphs down (each
  // teardown posted to the owning lane — same rule a deployment follows).
  // TSan in CI checks the engine's synchronization; the assertions here
  // check nothing is lost.
  exec::ExecutionEngine engine(4);
  constexpr int kChurnRounds = 50;
  std::atomic<std::uint64_t> delivered{0};

  // Long-lived lanes draining steadily.
  std::vector<std::unique_ptr<GraphRig>> steady;
  std::vector<std::function<void(exec::Task)>> steady_lanes;
  for (int g = 0; g < 3; ++g) {
    steady.push_back(std::make_unique<GraphRig>(4));
    steady_lanes.push_back(engine.executor(engine.create_lane()));
  }
  for (int i = 0; i < 200; ++i) {
    for (std::size_t g = 0; g < steady.size(); ++g) {
      GraphRig* rig = steady[g].get();
      steady_lanes[g]([rig, &delivered] {
        rig->source->push(Tick{1});
        ++delivered;
      });
    }
  }

  // Churn: bring up a graph on a fresh lane, feed it, tear it down — all
  // while the steady lanes are still draining.
  for (int round = 0; round < kChurnRounds; ++round) {
    auto rig = std::make_shared<GraphRig>(3);
    auto lane = engine.executor(engine.create_lane());
    for (int i = 0; i < 20; ++i) {
      lane([rig, &delivered] {
        rig->source->push(Tick{1});
        ++delivered;
      });
    }
    // Teardown on the owning lane: the shared_ptr dies inside the task,
    // destroying the graph (running every on_teardown) while other lanes
    // are mid-drain.
    lane([rig = std::move(rig)]() mutable { rig.reset(); });
  }

  engine.run_until_idle();
  EXPECT_EQ(delivered.load(), 3u * 200u + kChurnRounds * 20u);
  for (const auto& rig : steady) {
    EXPECT_EQ(rig->graph.deliveries(), 200u * 5u);  // 4 stages + sink
  }
}

// --- Lane fencing (the reconfiguration quiesce point) ------------------------

TEST(Fence, WaitsOutInFlightTaskAndHoldsBacklog) {
  exec::ExecutionEngine engine(4);
  const auto lane = engine.create_lane("fenced");
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  std::atomic<bool> first_done{false};
  std::atomic<int> backlog_ran{0};
  engine.post(lane, [&] {
    started = true;
    while (!release.load()) std::this_thread::yield();
    first_done = true;
  });
  for (int i = 0; i < 8; ++i) engine.post(lane, [&] { ++backlog_ran; });
  // Only once the task is genuinely in flight is the fence obliged to
  // wait it out (a fence may legally hold a not-yet-started backlog).
  while (!started.load()) std::this_thread::yield();

  std::thread releaser([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    release = true;
  });
  engine.fence(lane);  // Must block until the in-flight task retires.
  releaser.join();
  EXPECT_TRUE(first_done.load());
  EXPECT_EQ(backlog_ran.load(), 0);  // Backlog held behind the fence.
  EXPECT_TRUE(engine.fenced(lane));

  engine.unfence(lane);
  engine.run_until_idle();
  EXPECT_EQ(backlog_ran.load(), 8);
}

TEST(Fence, HeldTasksAreExcludedFromRunUntilIdle) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    exec::ExecutionEngine engine(workers);
    const auto fenced_lane = engine.create_lane("fenced");
    const auto open_lane = engine.create_lane("open");
    engine.fence(fenced_lane);
    int held_ran = 0, open_ran = 0;
    for (int i = 0; i < 4; ++i) {
      engine.post(fenced_lane, [&] { ++held_ran; });
      engine.post(open_lane, [&] { ++open_ran; });
    }
    // run_until_idle waits only for runnable work: it must return with
    // the fenced backlog untouched instead of deadlocking on it.
    engine.run_until_idle();
    EXPECT_EQ(open_ran, 4) << "workers=" << workers;
    EXPECT_EQ(held_ran, 0) << "workers=" << workers;
    EXPECT_EQ(engine.outstanding(), 0u) << "workers=" << workers;
    engine.unfence(fenced_lane);
    engine.run_until_idle();
    EXPECT_EQ(held_ran, 4) << "workers=" << workers;
  }
}

TEST(Fence, PostOrderSurvivesAFenceCycle) {
  for (const std::size_t workers : {std::size_t{0}, std::size_t{4}}) {
    exec::ExecutionEngine engine(workers);
    const auto lane = engine.create_lane();
    std::vector<int> order;
    for (int i = 0; i < 50; ++i) {
      engine.post(lane, [&order, i] { order.push_back(i); });
    }
    engine.fence(lane);
    for (int i = 50; i < 100; ++i) {  // Posted while fenced: held.
      engine.post(lane, [&order, i] { order.push_back(i); });
    }
    engine.unfence(lane);
    engine.run_until_idle();
    ASSERT_EQ(order.size(), 100u) << "workers=" << workers;
    for (int i = 0; i < 100; ++i) EXPECT_EQ(order[i], i);
  }
}

TEST(Fence, FenceAndUnfenceAreIdempotent) {
  exec::ExecutionEngine engine(2);
  const auto lane = engine.create_lane();
  engine.fence(lane);
  engine.fence(lane);  // Second fence is a no-op, not a deadlock.
  EXPECT_TRUE(engine.fenced(lane));
  int ran = 0;
  engine.post(lane, [&] { ++ran; });
  engine.unfence(lane);
  engine.unfence(lane);  // Second unfence is a no-op.
  EXPECT_FALSE(engine.fenced(lane));
  engine.run_until_idle();
  EXPECT_EQ(ran, 1);
}

// --- Graph mutation racing an active drain -----------------------------------

namespace {

/// A no-op passthrough feature; exists so detach_feature has something
/// real to tear off while the lane is mid-drain.
class TagFeature final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "tag"; }
  bool produce(core::Sample&) override {
    ++produced;
    return true;
  }
  int produced = 0;
};

}  // namespace

TEST(Fence, RemoveUnderFenceRacesActiveDrainSafely) {
  // A sink hangs off the middle of the pipeline; traffic is mid-drain on
  // 4 workers when the main thread fences, remove()s the side sink, and
  // unfences. The held backlog then flows through the mutated graph.
  exec::ExecutionEngine engine(4);
  const auto lane = engine.create_lane();
  GraphRig rig(4);
  std::atomic<int> side_count{0};
  const auto side = rig.graph.add(std::make_shared<core::ApplicationSink>(
      "SideSink", std::vector<core::InputRequirement>{core::require<Tick>()},
      [&](const core::Sample&) { ++side_count; }));
  rig.graph.connect(rig.source_id, side);

  for (int i = 0; i < 100; ++i) {
    engine.post(lane, [&rig] { rig.source->push(Tick{1}); });
  }
  engine.fence(lane);  // Quiesce: at most one in-flight task, now retired.
  const int seen_before = side_count.load();
  rig.graph.remove(side);
  engine.unfence(lane);
  for (int i = 0; i < 100; ++i) {
    engine.post(lane, [&rig] { rig.source->push(Tick{1}); });
  }
  engine.run_until_idle();
  // The side sink saw exactly the pre-fence deliveries and nothing after.
  EXPECT_EQ(side_count.load(), seen_before);
  // The main pipeline delivered every sample, before and after.
  const std::string transcript = rig.transcript.str();
  EXPECT_EQ(static_cast<int>(std::count(transcript.begin(),
                                        transcript.end(), ';')),
            200);
}

TEST(Fence, DetachFeatureUnderFenceRacesActiveDrainSafely) {
  exec::ExecutionEngine engine(4);
  const auto lane = engine.create_lane();
  GraphRig rig(2);
  auto tag = std::make_shared<TagFeature>();
  rig.graph.attach_feature(rig.source_id, tag);

  for (int i = 0; i < 100; ++i) {
    engine.post(lane, [&rig] { rig.source->push(Tick{1}); });
  }
  engine.fence(lane);
  const int produced_before = tag->produced;
  rig.graph.detach_feature(rig.source_id, "tag");
  engine.unfence(lane);
  for (int i = 0; i < 100; ++i) {
    engine.post(lane, [&rig] { rig.source->push(Tick{1}); });
  }
  engine.run_until_idle();
  EXPECT_EQ(tag->produced, produced_before);  // Hook gone after detach.
  const std::string transcript = rig.transcript.str();
  EXPECT_EQ(static_cast<int>(std::count(transcript.begin(),
                                        transcript.end(), ';')),
            200);
}

// --- Scheduler hand-off ------------------------------------------------------

TEST(Drive, EngineDrainsLanesBetweenSchedulerEvents) {
  exec::ExecutionEngine engine(4);
  const auto lane = engine.create_lane();
  auto executor = engine.executor(lane);
  sim::Scheduler scheduler;
  std::vector<std::string> log;  // Written only from `lane` or post-drain.
  for (int i = 0; i < 5; ++i) {
    scheduler.schedule_after(sim::SimTime::from_seconds(i + 1.0),
                             [&, i] {
                               executor([&log, i] {
                                 log.push_back("task" + std::to_string(i));
                               });
                             });
  }
  const std::size_t events = engine.drive(scheduler);
  EXPECT_EQ(events, 5u);
  // drive() drains to idle after every event, so each event's task lands
  // before the next event fires — in event order.
  ASSERT_EQ(log.size(), 5u);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(log[i], "task" + std::to_string(i));
  // The hook is restored: later scheduler use does not touch the engine.
  scheduler.schedule_after(sim::SimTime::from_seconds(1.0), [] {});
  EXPECT_EQ(scheduler.run_all(), 1u);
}

// --- Translucency plane: engine counts, flight recorder, introspection ------

// Allocation accounting for the hot-path guards below: the global operator
// new is replaced with a counting pass-through. Counting is off by default
// and enabled only around the measured region, so the rest of this binary
// is unaffected. The nothrow forms are replaced too (std::stable_sort
// takes its buffer through them): every form the replaced deletes free
// must come from malloc, or a sanitizer's allocator reports a mismatch.
//
// GCC cannot see that the replaced operator new is malloc-backed and warns
// that operator delete frees a non-malloc pointer; the pairing is correct
// by construction here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
namespace {
std::atomic<std::uint64_t> g_allocations{0};
std::atomic<bool> g_count_allocations{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size > 0 ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

const obs::LaneIntrospection* find_lane(const obs::IntrospectionSnapshot& snap,
                                        const std::string& name) {
  for (const auto& lane : snap.lanes) {
    if (lane.name == name) return &lane;
  }
  return nullptr;
}

std::uint64_t collected_counter(const obs::MetricsRegistry& registry,
                                std::string_view name) {
  const obs::MetricsSnapshot snap = registry.snapshot();
  const obs::CounterSnapshot* counter = snap.find_counter(name);
  return counter != nullptr ? counter->value : ~std::uint64_t{0};
}

/// Post 256 captureless tasks and drain them once to let the lane queue
/// and the ready deque grow their blocks; then count the allocations of
/// draining another 256.
std::uint64_t steady_state_drain_allocations(exec::ExecutionEngine& engine,
                                             exec::LaneId lane) {
  for (int i = 0; i < 256; ++i) engine.post(lane, [] {});
  engine.run_until_idle();
  for (int i = 0; i < 256; ++i) engine.post(lane, [] {});
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  engine.run_until_idle();
  g_count_allocations.store(false, std::memory_order_relaxed);
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

TEST(Engine, IntrospectAccountsInlineDrains) {
  exec::ExecutionEngine engine(0);
  const auto alpha = engine.create_lane("alpha");
  const auto beta = engine.create_lane("beta");
  std::atomic<int> ran{0};
  for (int i = 0; i < 5; ++i) engine.post(alpha, [&] { ++ran; });
  for (int i = 0; i < 3; ++i) engine.post(beta, [&] { ++ran; });
  engine.run_until_idle();
  EXPECT_EQ(ran.load(), 8);

  const auto snap = engine.introspect();
  const auto* a = find_lane(snap, "alpha");
  const auto* b = find_lane(snap, "beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->tasks, 5u);
  EXPECT_EQ(b->tasks, 3u);
  // All 5 posts landed before the inline drain started, so the lane's
  // high-water mark is the full burst.
  EXPECT_EQ(a->queue_peak, 5u);
  // Inline mode counts everything on the single inline worker slot, one
  // drain per lane at least.
  ASSERT_EQ(snap.worker_stats.size(), 1u);
  EXPECT_EQ(snap.worker_stats[0].tasks, 8u);
  EXPECT_GE(snap.worker_stats[0].drains, 2u);
}

TEST(Engine, LateMetricsAttachSeesExistingLanes) {
  exec::ExecutionEngine engine(0);
  const auto alpha = engine.create_lane("alpha");
  const auto beta = engine.create_lane("beta");
  obs::MetricsRegistry registry;
  engine.enable_metrics(&registry);  // Lanes already exist.
  engine.post(alpha, [] {});
  engine.post(beta, [] {});
  engine.run_until_idle();

  const auto snap = engine.introspect();
  const auto* a = find_lane(snap, "alpha");
  const auto* b = find_lane(snap, "beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(a->tasks, 1u);
  EXPECT_EQ(b->tasks, 1u);
  const obs::MetricsSnapshot metrics = registry.snapshot();
  ASSERT_NE(metrics.find_gauge("perpos_exec_lanes"), nullptr);
  EXPECT_EQ(metrics.find_gauge("perpos_exec_lanes")->value, 2.0);
  EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_executed_total"),
            2u);
}

TEST(Engine, IntrospectConsistentAtIdleForAnyWorkerCount) {
  // run_until_idle() returning must imply the engine has counted every
  // drained batch (it retires a batch only after counting it), so lane
  // and worker totals exactly match executed() — for 1 worker and for
  // more workers than lanes.
  for (const std::size_t workers : {std::size_t{1}, std::size_t{8}}) {
    exec::ExecutionEngine engine(workers);
    std::vector<exec::LaneId> lanes;
    for (int i = 0; i < 4; ++i) {
      lanes.push_back(engine.create_lane("lane-" + std::to_string(i)));
    }
    std::atomic<int> ran{0};
    for (int i = 0; i < 200; ++i) {
      engine.post(lanes[static_cast<std::size_t>(i) % lanes.size()],
                  [&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    engine.run_until_idle();
    EXPECT_EQ(ran.load(), 200) << "workers=" << workers;

    const auto snap = engine.introspect();
    std::uint64_t lane_tasks = 0;
    std::uint64_t worker_tasks = 0;
    for (const auto& lane : snap.lanes) {
      EXPECT_EQ(lane.queue_depth, 0u) << "workers=" << workers;
      EXPECT_FALSE(lane.active) << "workers=" << workers;
      lane_tasks += lane.tasks;
    }
    for (const auto& worker : snap.worker_stats) worker_tasks += worker.tasks;
    EXPECT_EQ(snap.worker_stats.size(), workers + 1);
    EXPECT_EQ(lane_tasks, 200u) << "workers=" << workers;
    EXPECT_EQ(worker_tasks, 200u) << "workers=" << workers;
    EXPECT_EQ(engine.executed(), 200u) << "workers=" << workers;
    EXPECT_EQ(snap.tasks_executed, 200u) << "workers=" << workers;
    EXPECT_EQ(snap.tasks_posted, 200u) << "workers=" << workers;
  }
}

TEST(Engine, ScrapesDuringDrainsAgreeAtIdle) {
  // The counts have one writer each and are read without locks by
  // introspect() and the metrics collector while 4 workers drain 8 lanes
  // (the data-race check is TSan's). At idle every view agrees.
  exec::ExecutionEngine engine(4);
  obs::MetricsRegistry registry;
  engine.enable_metrics(&registry);
  std::vector<exec::LaneId> lanes;
  for (int i = 0; i < 8; ++i) {
    lanes.push_back(engine.create_lane("lane-" + std::to_string(i)));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot metrics = registry.snapshot();
      const obs::IntrospectionSnapshot snap = engine.introspect();
      EXPECT_NE(metrics.find_counter("perpos_exec_tasks_executed_total"),
                nullptr);
      EXPECT_EQ(snap.lanes.size(), 8u);
      scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });
  constexpr int kRounds = 20;
  constexpr int kTasksPerLane = 50;
  std::atomic<int> ran{0};
  for (int round = 0; round < kRounds; ++round) {
    for (int t = 0; t < kTasksPerLane; ++t) {
      for (const auto lane : lanes) {
        engine.post(lane, [&] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
    }
    if (round % 4 == 0) engine.run_until_idle();
  }
  engine.run_until_idle();
  while (scrapes.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  scraper.join();

  constexpr std::uint64_t kTotal = kRounds * kTasksPerLane * 8;
  EXPECT_EQ(ran.load(), static_cast<int>(kTotal));
  const auto snap = engine.introspect();
  std::uint64_t lane_tasks = 0;
  std::uint64_t worker_tasks = 0;
  for (const auto& lane : snap.lanes) lane_tasks += lane.tasks;
  for (const auto& worker : snap.worker_stats) worker_tasks += worker.tasks;
  EXPECT_EQ(lane_tasks, kTotal);
  EXPECT_EQ(worker_tasks, kTotal);
  EXPECT_EQ(engine.executed(), kTotal);
  EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_executed_total"),
            kTotal);
  EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_posted_total"),
            kTotal);
}

TEST(Engine, DestroyedEngineLeavesNoCollectorBehind) {
  // The registry may outlive the engine: its collector goes with it.
  obs::MetricsRegistry registry;
  {
    exec::ExecutionEngine engine(0);
    engine.enable_metrics(&registry);
    engine.post(engine.create_lane(), [] {});
    engine.run_until_idle();
    EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_executed_total"),
              1u);
  }
  const obs::MetricsSnapshot snap = registry.snapshot();
  EXPECT_EQ(snap.find_counter("perpos_exec_tasks_executed_total"), nullptr);
}

TEST(Engine, TasksPostedCountsHeldTasks) {
  // Tasks posted to a fenced lane are held, not outstanding; they are
  // still posted, and fence()/unfence() moving them in and out of the
  // idle accounting must not move the posted count.
  exec::ExecutionEngine engine(0);
  obs::MetricsRegistry registry;
  engine.enable_metrics(&registry);
  const auto lane = engine.create_lane("held");
  engine.fence(lane);
  for (int i = 0; i < 3; ++i) engine.post(lane, [] {});
  EXPECT_EQ(engine.introspect().tasks_posted, 3u);
  EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_posted_total"),
            3u);
  engine.unfence(lane);
  engine.run_until_idle();
  EXPECT_EQ(engine.executed(), 3u);
  EXPECT_EQ(engine.introspect().tasks_posted, 3u);
  EXPECT_EQ(collected_counter(registry, "perpos_exec_tasks_posted_total"),
            3u);
}

TEST(Engine, BareHotPathDoesNotAllocate) {
  // Steady state: draining 256 captureless tasks must not touch the
  // allocator at all.
  exec::ExecutionEngine engine(0);
  const auto lane = engine.create_lane("hot");
  EXPECT_EQ(steady_state_drain_allocations(engine, lane), 0u);
}

TEST(Engine, InstrumentedHotPathDoesNotAllocate) {
  // The engine's counts are relaxed stores on preallocated lane and worker
  // slots, metrics are read at scrape time and the recorder only sees
  // rare events, so attaching both keeps the drain path allocation-free.
  exec::ExecutionEngine engine(0);
  obs::MetricsRegistry registry;
  obs::FlightRecorder recorder(64);
  engine.enable_metrics(&registry);
  engine.set_flight_recorder(&recorder);
  const auto lane = engine.create_lane("hot");
  EXPECT_EQ(steady_state_drain_allocations(engine, lane), 0u);
}

namespace {

/// A consume hook that keeps every sample: it gives its host the hooked
/// delivery shape (the slot is popped before the hooks run).
class PassThrough final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "pass"; }
  bool consume(core::Sample&) override { return true; }
};

}  // namespace

TEST(DispatchHotPath, InstrumentedRelayChainAllocatesOnlyPayloads) {
  // Metrics, latency and an SLO are observers: deliveries keep their shape
  // — consumed in place, or popped first only for a consume-hooked
  // consumer. Provenance buffers come from the graph's pool and metric
  // handles are cached, so in steady state each hop allocates exactly one
  // object: the Payload it emits. Recording — the flow trace — writes
  // preallocated ring slots and adds nothing.
  obs::ObservabilityConfig instrumented;
  instrumented.metrics = true;
  instrumented.timing = false;
  instrumented.latency = true;
  instrumented.latency_slo_us = 1e9;
  obs::ObservabilityConfig recorded;
  recorded.metrics = false;
  recorded.timing = false;
  recorded.recording = true;
  for (const bool hooked : {false, true}) {
    for (const obs::ObservabilityConfig& cfg : {instrumented, recorded}) {
      SCOPED_TRACE(std::string(hooked ? "hooked, " : "in place, ") +
                   (cfg.recording ? "recording" : "metrics+latency"));
      constexpr int kDepth = 16;
      core::ProcessingGraph graph;
      const auto src = graph.add(tick_source());
      core::ComponentId prev = src;
      for (int i = 0; i < kDepth; ++i) {
        const auto stage = graph.add(add_one_stage());
        if (hooked) {
          graph.attach_feature(stage, std::make_shared<PassThrough>());
        }
        graph.connect(prev, stage);
        prev = stage;
      }
      int received = 0;
      const auto sink = graph.add(std::make_shared<core::ApplicationSink>(
          "Sink", std::vector<core::InputRequirement>{core::require<Tick>()},
          [&received](const core::Sample&) { ++received; }));
      graph.connect(prev, sink);
      graph.enable_observability(cfg);
      auto* source = graph.component_as<core::SourceComponent>(src);

      // Warm-up: grow the dispatch stack, the pending buffers and the pool.
      for (int i = 0; i < 64; ++i) source->push(Tick{i});
      constexpr int kPushes = 100;
      g_allocations.store(0, std::memory_order_relaxed);
      g_count_allocations.store(true, std::memory_order_relaxed);
      for (int i = 0; i < kPushes; ++i) source->push(Tick{i});
      g_count_allocations.store(false, std::memory_order_relaxed);
      EXPECT_EQ(received, 64 + kPushes);
      // One emission per hop: the source plus every relay.
      EXPECT_EQ(g_allocations.load(std::memory_order_relaxed),
                static_cast<std::uint64_t>(kPushes * (kDepth + 1)));
    }
  }
}

TEST(DispatchHotPath, FanOutWithPartialRejectionAllocatesOnlyPayloads) {
  // A stage fanning out to two consumers queues both deliveries in place
  // on the dispatch stack. Its relay consumer rejects every other sample (a
  // Tock it does not accept); the rejected copy returns its provenance to
  // the pool. In steady state only the emitted payloads are allocated, bare
  // and with metrics + latency on, in either delivery shape.
  obs::ObservabilityConfig instrumented;
  instrumented.metrics = true;
  instrumented.timing = false;
  instrumented.latency = true;
  for (const bool hooked : {false, true}) {
    for (const bool observed : {false, true}) {
      SCOPED_TRACE(std::string(hooked ? "hooked, " : "in place, ") +
                   (observed ? "metrics+latency" : "bare"));
      core::ProcessingGraph graph;
      const auto src = graph.add(tick_source());
      const auto split = graph.add(std::make_shared<core::LambdaComponent>(
          "TickTock",
          std::vector<core::InputRequirement>{core::require<Tick>()},
          std::vector<core::DataSpec>{core::provide<Tick>(),
                                      core::provide<Tock>()},
          [](const core::Sample& s, const core::ComponentContext& ctx) {
            const int v = s.payload.get<Tick>()->value;
            if (v % 2 == 0) {
              ctx.emit(core::Payload::make(Tick{v}));
            } else {
              ctx.emit(core::Payload::make(Tock{v}));
            }
          }));
      const auto all = graph.add(std::make_shared<core::ApplicationSink>());
      const auto relay = graph.add(add_one_stage());
      if (hooked) graph.attach_feature(relay, std::make_shared<PassThrough>());
      int relayed = 0;
      const auto tail = graph.add(std::make_shared<core::ApplicationSink>(
          "Tail", std::vector<core::InputRequirement>{core::require<Tick>()},
          [&relayed](const core::Sample&) { ++relayed; }));
      graph.connect(src, split);
      graph.connect(split, all);
      graph.connect(split, relay);
      graph.connect(relay, tail);
      if (observed) graph.enable_observability(instrumented);
      auto* source = graph.component_as<core::SourceComponent>(src);

      for (int i = 0; i < 64; ++i) source->push(Tick{i});
      constexpr int kPushes = 100;
      g_allocations.store(0, std::memory_order_relaxed);
      g_count_allocations.store(true, std::memory_order_relaxed);
      for (int i = 0; i < kPushes; ++i) source->push(Tick{i});
      g_count_allocations.store(false, std::memory_order_relaxed);
      EXPECT_EQ(relayed, 32 + kPushes / 2);
      // Source and split emit every push; the relay only the even half.
      EXPECT_EQ(g_allocations.load(std::memory_order_relaxed),
                static_cast<std::uint64_t>(2 * kPushes + kPushes / 2));
    }
  }
}

TEST(DispatchHotPath, LatestValueSinkKeepsItsChainAndAllocatesOnlyPayloads) {
  // An ApplicationSink keeps the last sample it received and, through it,
  // that sample's whole provenance chain. Replacing it returns the previous
  // chain to the pool, so the lean path recycles every buffer while the
  // retained chain stays intact.
  constexpr int kDepth = 16;
  core::ProcessingGraph graph;
  const auto src = graph.add(tick_source());
  core::ComponentId prev = src;
  for (int i = 0; i < kDepth; ++i) {
    const auto stage = graph.add(add_one_stage());
    graph.connect(prev, stage);
    prev = stage;
  }
  auto sink = std::make_shared<core::ApplicationSink>();
  graph.connect(prev, graph.add(sink));
  auto* source = graph.component_as<core::SourceComponent>(src);

  for (int i = 0; i < 64; ++i) source->push(Tick{i});
  constexpr int kPushes = 100;
  g_allocations.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  for (int i = 0; i < kPushes; ++i) source->push(Tick{i});
  g_count_allocations.store(false, std::memory_order_relaxed);
  EXPECT_EQ(g_allocations.load(std::memory_order_relaxed),
            static_cast<std::uint64_t>(kPushes * (kDepth + 1)));

  ASSERT_TRUE(sink->last().has_value());
  const core::Sample* node = &*sink->last();
  EXPECT_EQ(node->payload.get<Tick>()->value, kPushes - 1 + kDepth);
  int levels = 0;
  while (node->inputs) {
    ASSERT_EQ(node->inputs->size(), 1u);
    node = &node->inputs->front();
    ++levels;
  }
  EXPECT_EQ(levels, kDepth);
  EXPECT_EQ(node->producer, src);
  EXPECT_EQ(node->payload.get<Tick>()->value, kPushes - 1);
}

namespace {

/// Drives a 3-graph deployment through an engine with the flight recorder
/// attached and serializes every graph lane's retained events — minus the
/// wall-clock timestamps — into one transcript string.
std::string flight_transcript(std::size_t workers) {
  obs::FlightRecorder recorder(4096);
  exec::ExecutionEngine engine(workers);
  engine.set_flight_recorder(&recorder);
  constexpr int kGraphs = 3;
  constexpr int kSamples = 40;
  std::vector<std::unique_ptr<GraphRig>> rigs;
  std::vector<std::function<void(exec::Task)>> post;
  std::vector<std::uint32_t> rec_lanes;
  for (int g = 0; g < kGraphs; ++g) {
    rigs.push_back(std::make_unique<GraphRig>(2));
    const auto ring = recorder.add_lane("graph-" + std::to_string(g));
    rigs.back()->graph.set_flight_recorder(&recorder, ring,
                                           static_cast<std::uint32_t>(g));
    rec_lanes.push_back(ring);
    post.push_back(engine.executor(engine.create_lane()));
  }
  for (int i = 0; i < kSamples; ++i) {
    for (int g = 0; g < kGraphs; ++g) {
      GraphRig* rig = rigs[static_cast<std::size_t>(g)].get();
      post[static_cast<std::size_t>(g)](
          [rig, i] { rig->source->push(Tick{i}); });
    }
  }
  engine.run_until_idle();

  std::ostringstream out;
  const auto events = recorder.merged_events();
  for (const std::uint32_t ring : rec_lanes) {
    out << "== " << recorder.lane_name(ring) << '\n';
    for (const auto& e : events) {
      if (e.lane != ring) continue;
      out << obs::flight_event_type_name(e.type) << ' ' << e.graph << ' '
          << e.component << ' ' << e.a << ' ' << e.b << ' ' << e.detail
          << '\n';
    }
  }
  return out.str();
}

}  // namespace

TEST(EngineFlightRecorder, PerLaneTranscriptsIdenticalAcrossWorkerCounts) {
  // The recorder rides the same determinism contract as the graphs: with
  // one ring per graph lane, the event sequence each ring captures is
  // byte-identical for 0, 1 and 8 workers (only timestamps differ).
  const std::string inline_run = flight_transcript(0);
  const std::string one_worker = flight_transcript(1);
  const std::string eight_workers = flight_transcript(8);
  EXPECT_NE(inline_run.find("emit"), std::string::npos);
  EXPECT_NE(inline_run.find("deliver"), std::string::npos);
  EXPECT_EQ(inline_run, one_worker);
  EXPECT_EQ(one_worker, eight_workers);
}

TEST(EngineFlightRecorder, TaskFailureRecordsEventAndTriggersDump) {
  obs::FlightRecorder recorder(64);
  int dumps = 0;
  std::string dump_reason;
  recorder.set_dump_handler(
      [&](const std::string& reason, const obs::FlightRecorder&) {
        ++dumps;
        dump_reason = reason;
      });
  exec::ExecutionEngine engine(0);
  engine.set_flight_recorder(&recorder);
  const auto lane = engine.create_lane("crashy");
  engine.post(lane, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(engine.run_until_idle(), std::runtime_error);
  EXPECT_EQ(engine.failed(), 1u);
  EXPECT_EQ(dumps, 1);
  EXPECT_NE(dump_reason.find("boom"), std::string::npos);

  // The recorded event carries both the lane name and the error message.
  bool saw_failure = false;
  for (const auto& e : recorder.merged_events()) {
    if (e.type != obs::FlightEventType::kTaskFailed) continue;
    saw_failure = true;
    const std::string detail = e.detail;
    EXPECT_NE(detail.find("crashy"), std::string::npos);
    EXPECT_NE(detail.find("boom"), std::string::npos);
  }
  EXPECT_TRUE(saw_failure);
}

TEST(EngineFlightRecorder, TaskFailureEventNamesItsLane) {
  // kTaskFailed's `a` is the failing task's LaneId — with a recorder and
  // nothing else attached.
  obs::FlightRecorder recorder(64);
  exec::ExecutionEngine engine(0);
  engine.set_flight_recorder(&recorder);
  engine.create_lane("calm");
  const auto crashy = engine.create_lane("crashy");
  ASSERT_EQ(crashy, 1u);
  engine.post(crashy, [] { throw std::runtime_error("boom"); });
  EXPECT_THROW(engine.run_until_idle(), std::runtime_error);
  int failures = 0;
  for (const auto& e : recorder.merged_events()) {
    if (e.type != obs::FlightEventType::kTaskFailed) continue;
    ++failures;
    EXPECT_EQ(e.a, 1u);
  }
  EXPECT_EQ(failures, 1);
}

TEST(EngineFlightRecorder, WatermarkCrossingIsRecorded) {
  obs::FlightRecorder recorder(64);
  exec::ExecutionEngine engine(0);
  engine.set_flight_recorder(&recorder);
  std::atomic<int> crossings{0};
  engine.set_queue_watermark(
      2, [&](const std::string&, std::size_t) { ++crossings; });
  const auto lane = engine.create_lane("deep");
  for (int i = 0; i < 5; ++i) engine.post(lane, [] {});
  engine.run_until_idle();
  EXPECT_EQ(crossings.load(), 1);

  bool saw_watermark = false;
  for (const auto& e : recorder.merged_events()) {
    if (e.type != obs::FlightEventType::kWatermark) continue;
    saw_watermark = true;
    EXPECT_EQ(e.a, 3u);  // The crossing depth: limit 2 exceeded at 3.
  }
  EXPECT_TRUE(saw_watermark);
}
