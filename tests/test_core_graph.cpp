// Tests for the Process Structure Layer: graph manipulation, realizability
// checking, synchronous delivery, logical time and provenance.

#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/obs/flight_recorder.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace core = perpos::core;
using core::Payload;
using core::Sample;

namespace {

struct IntValue {
  int value = 0;
};
struct DoubleValue {
  double value = 0.0;
};

/// A transform that doubles IntValue payloads.
std::shared_ptr<core::LambdaComponent> make_doubler() {
  return std::make_shared<core::LambdaComponent>(
      "Doubler",
      std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [](const Sample& s, const core::ComponentContext& ctx) {
        ctx.emit(Payload::make(IntValue{s.payload.as<IntValue>().value * 2}));
      });
}

std::shared_ptr<core::SourceComponent> make_int_source() {
  return std::make_shared<core::SourceComponent>(
      "IntSource", std::vector<core::DataSpec>{core::provide<IntValue>()});
}

}  // namespace

TEST(Payload, MakeAndAccess) {
  const Payload p = Payload::make(IntValue{7});
  EXPECT_FALSE(p.empty());
  EXPECT_TRUE(p.is<IntValue>());
  EXPECT_FALSE(p.is<DoubleValue>());
  EXPECT_EQ(p.as<IntValue>().value, 7);
  EXPECT_EQ(p.get<DoubleValue>(), nullptr);
  EXPECT_THROW(p.as<DoubleValue>(), std::bad_cast);
}

TEST(Payload, EmptyPayload) {
  const Payload p;
  EXPECT_TRUE(p.empty());
  EXPECT_EQ(p.type(), nullptr);
}

TEST(TypeInfo, InternedIdentity) {
  EXPECT_EQ(core::type_of<IntValue>(), core::type_of<IntValue>());
  EXPECT_NE(core::type_of<IntValue>(), core::type_of<DoubleValue>());
}

TEST(TypeInfo, ExplicitNames) {
  EXPECT_EQ(core::type_of<core::PositionFix>()->name(), "PositionFix");
  EXPECT_EQ(core::type_of<core::RawFragment>()->name(), "RawFragment");
}

TEST(Graph, AddAndInfo) {
  core::ProcessingGraph g;
  const auto id = g.add(make_int_source());
  EXPECT_TRUE(g.has(id));
  EXPECT_EQ(g.size(), 1u);
  const core::ComponentInfo info = g.info(id);
  EXPECT_EQ(info.kind, "IntSource");
  EXPECT_TRUE(info.producers.empty());
  EXPECT_TRUE(info.consumers.empty());
}

TEST(Graph, AddNullThrows) {
  core::ProcessingGraph g;
  EXPECT_THROW(g.add(nullptr), std::invalid_argument);
}

TEST(Graph, AddTwiceThrows) {
  core::ProcessingGraph g1, g2;
  auto c = make_int_source();
  g1.add(c);
  EXPECT_THROW(g2.add(c), std::invalid_argument);
}

TEST(Graph, ConnectDeliversData) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto src_id = g.add(source);
  const auto sink_id = g.add(sink);
  g.connect(src_id, sink_id);

  source->push(IntValue{42});
  ASSERT_TRUE(sink->last().has_value());
  EXPECT_EQ(sink->last()->payload.as<IntValue>().value, 42);
  EXPECT_EQ(sink->received(), 1u);
  EXPECT_EQ(g.deliveries(), 1u);
}

TEST(Graph, PipelineTransforms) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(make_doubler());
  const auto c = g.add(make_doubler());
  const auto d = g.add(sink);
  g.connect(a, b);
  g.connect(b, c);
  g.connect(c, d);
  source->push(IntValue{3});
  EXPECT_EQ(sink->last()->payload.as<IntValue>().value, 12);
}

TEST(Graph, TypeMismatchConnectionRejected) {
  core::ProcessingGraph g;
  const auto src = g.add(std::make_shared<core::SourceComponent>(
      "DblSource",
      std::vector<core::DataSpec>{core::provide<DoubleValue>()}));
  const auto doubler = g.add(make_doubler());  // Requires IntValue.
  EXPECT_THROW(g.connect(src, doubler), std::invalid_argument);
}

TEST(Graph, SelfLoopRejected) {
  core::ProcessingGraph g;
  const auto d = g.add(make_doubler());
  EXPECT_THROW(g.connect(d, d), std::invalid_argument);
}

TEST(Graph, DuplicateEdgeRejected) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  const auto a = g.add(source);
  const auto b = g.add(make_doubler());
  g.connect(a, b);
  EXPECT_THROW(g.connect(a, b), std::invalid_argument);
}

TEST(Graph, CycleRejected) {
  core::ProcessingGraph g;
  const auto a = g.add(make_doubler());
  const auto b = g.add(make_doubler());
  const auto c = g.add(make_doubler());
  g.connect(a, b);
  g.connect(b, c);
  EXPECT_THROW(g.connect(c, a), std::invalid_argument);
  EXPECT_THROW(g.connect(b, a), std::invalid_argument);
}

TEST(Graph, DisconnectStopsDelivery) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(sink);
  g.connect(a, b);
  source->push(IntValue{1});
  g.disconnect(a, b);
  source->push(IntValue{2});
  EXPECT_EQ(sink->received(), 1u);
}

TEST(Graph, DisconnectMissingEdgeThrows) {
  core::ProcessingGraph g;
  const auto a = g.add(make_int_source());
  const auto b = g.add(make_doubler());
  EXPECT_THROW(g.disconnect(a, b), std::invalid_argument);
}

TEST(Graph, RemoveDisconnectsEdges) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto mid = g.add(make_doubler());
  const auto b = g.add(sink);
  g.connect(a, mid);
  g.connect(mid, b);
  g.remove(mid);
  EXPECT_FALSE(g.has(mid));
  EXPECT_EQ(g.size(), 2u);
  EXPECT_TRUE(g.info(a).consumers.empty());
  EXPECT_TRUE(g.info(b).producers.empty());
  source->push(IntValue{5});
  EXPECT_EQ(sink->received(), 0u);
}

TEST(Graph, RemovedComponentEmitsNowhere) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  const auto a = g.add(source);
  g.remove(a);
  EXPECT_NO_THROW(source->push(IntValue{1}));  // Detached: emits into void.
}

TEST(Graph, InsertBetweenSplicesNode) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(sink);
  g.connect(a, b);
  const auto mid = g.add(make_doubler());
  g.insert_between(mid, a, b);
  source->push(IntValue{10});
  EXPECT_EQ(sink->last()->payload.as<IntValue>().value, 20);
  EXPECT_EQ(g.info(a).consumers, std::vector<core::ComponentId>{mid});
}

TEST(Graph, InsertBetweenMissingEdgeThrows) {
  core::ProcessingGraph g;
  const auto a = g.add(make_int_source());
  const auto b = g.add(std::make_shared<core::ApplicationSink>());
  const auto mid = g.add(make_doubler());
  EXPECT_THROW(g.insert_between(mid, a, b), std::invalid_argument);
}

TEST(Graph, InsertBetweenRestoresEdgeOnFailure) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(sink);
  g.connect(a, b);
  // A node that cannot accept IntValue: splicing must fail and restore.
  const auto bad = g.add(std::make_shared<core::LambdaComponent>(
      "DoubleOnly",
      std::vector<core::InputRequirement>{core::require<DoubleValue>()},
      std::vector<core::DataSpec>{core::provide<DoubleValue>()}, nullptr));
  EXPECT_THROW(g.insert_between(bad, a, b), std::invalid_argument);
  source->push(IntValue{4});
  EXPECT_EQ(sink->received(), 1u);  // Original edge still works.
}

TEST(Graph, FanOutDeliversToAllAcceptingConsumers) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink1 = std::make_shared<core::ApplicationSink>("App1");
  auto sink2 = std::make_shared<core::ApplicationSink>("App2");
  const auto a = g.add(source);
  const auto s1 = g.add(sink1);
  const auto s2 = g.add(sink2);
  g.connect(a, s1);
  g.connect(a, s2);
  source->push(IntValue{9});
  EXPECT_EQ(sink1->received(), 1u);
  EXPECT_EQ(sink2->received(), 1u);
}

TEST(Graph, MergeReceivesFromMultipleProducers) {
  core::ProcessingGraph g;
  auto s1 = make_int_source();
  auto s2 = make_int_source();
  std::vector<int> seen;
  const auto merge = g.add(std::make_shared<core::LambdaComponent>(
      "Merge", std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [&](const Sample& s, const core::ComponentContext&) {
        seen.push_back(s.payload.as<IntValue>().value);
      }));
  const auto a = g.add(s1);
  const auto b = g.add(s2);
  g.connect(a, merge);
  g.connect(b, merge);
  s1->push(IntValue{1});
  s2->push(IntValue{2});
  EXPECT_EQ(seen, (std::vector<int>{1, 2}));
}

TEST(Graph, SourcesAndSinks) {
  core::ProcessingGraph g;
  const auto a = g.add(make_int_source());
  const auto m = g.add(make_doubler());
  const auto z = g.add(std::make_shared<core::ApplicationSink>());
  g.connect(a, m);
  g.connect(m, z);
  EXPECT_EQ(g.sources(), std::vector<core::ComponentId>{a});
  EXPECT_EQ(g.sinks(), std::vector<core::ComponentId>{z});
}

TEST(Graph, RevisionBumpsOnStructuralMutation) {
  core::ProcessingGraph g;
  const auto r0 = g.revision();
  const auto a = g.add(make_int_source());
  EXPECT_GT(g.revision(), r0);
  const auto b = g.add(make_doubler());
  const auto r1 = g.revision();
  g.connect(a, b);
  EXPECT_GT(g.revision(), r1);
  const auto r2 = g.revision();
  g.disconnect(a, b);
  EXPECT_GT(g.revision(), r2);
}

namespace {

/// A mutation-only observer that forwards to `fn`.
struct MutationProbe final : core::GraphObserver {
  explicit MutationProbe(std::function<void(const core::GraphMutation&)> f)
      : fn(std::move(f)) {}
  void on_mutation(const core::GraphMutation& m) override { fn(m); }
  std::function<void(const core::GraphMutation&)> fn;
};

}  // namespace

TEST(Graph, MutationObserverFiresUntilRemoved) {
  core::ProcessingGraph g;
  int fired = 0;
  MutationProbe probe([&](const core::GraphMutation&) { ++fired; });
  g.add_observer(probe);
  EXPECT_TRUE(g.has_observer(probe));
  EXPECT_THROW(g.add_observer(probe), std::invalid_argument);
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
  g.remove_observer(probe);
  EXPECT_FALSE(g.has_observer(probe));
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
}

// Regression tests for notification reentrancy: removing an observer from
// inside a callback must neither invalidate the walk (the historical
// iterator-invalidation crash) nor deliver to the removed entry.

TEST(Graph, SelfRemovingObserverKeepsItsSuccessorNotified) {
  core::ProcessingGraph g;
  int fired = 0;
  int successor_fired = 0;
  MutationProbe self([&](const core::GraphMutation&) {});
  self.fn = [&](const core::GraphMutation&) {
    ++fired;
    g.remove_observer(self);  // Self-detach mid-walk.
  };
  MutationProbe successor(
      [&](const core::GraphMutation&) { ++successor_fired; });
  g.add_observer(self);
  g.add_observer(successor);
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(successor_fired, 1);  // The walk did not skip past the hole.
  g.add(make_int_source());  // Tombstone compacted; never fires again.
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(successor_fired, 2);
}

TEST(Graph, ObserverMaySelfRemoveDuringNotification) {
  core::ProcessingGraph g;
  int fired = 0;
  MutationProbe self([&](const core::GraphMutation&) {});
  self.fn = [&](const core::GraphMutation&) {
    ++fired;
    g.remove_observer(self);
  };
  g.add_observer(self);
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
}

TEST(Graph, DetachingLaterObserverSuppressesItsInvocation) {
  core::ProcessingGraph g;
  int second_fired = 0;
  MutationProbe second([&](const core::GraphMutation&) { ++second_fired; });
  // The first observer removes the second before the walk reaches it: the
  // second must not see this mutation (tombstones are skipped in-walk).
  MutationProbe first(
      [&](const core::GraphMutation&) { g.remove_observer(second); });
  g.add_observer(first);
  g.add_observer(second);
  g.add(make_int_source());
  EXPECT_EQ(second_fired, 0);
}

TEST(Graph, ObserverMayMutateGraphReentrantly) {
  core::ProcessingGraph g;
  std::vector<core::GraphMutation::Kind> seen;
  bool nested = false;
  MutationProbe probe([&](const core::GraphMutation& m) {
    seen.push_back(m.kind);
    if (!nested) {
      nested = true;
      g.add(make_int_source());  // Nested mutation from inside the walk.
    }
  });
  g.add_observer(probe);
  g.add(make_int_source());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], core::GraphMutation::Kind::kAdd);
  EXPECT_EQ(seen[1], core::GraphMutation::Kind::kAdd);
}

TEST(Graph, ObserverRemovedByPeerMidWalkNeverFiresAgain) {
  core::ProcessingGraph g;
  int earlier_fired = 0;
  MutationProbe earlier([&](const core::GraphMutation&) { ++earlier_fired; });
  // Removes a peer the walk already visited.
  MutationProbe remover(
      [&](const core::GraphMutation&) { g.remove_observer(earlier); });
  g.add_observer(earlier);
  g.add_observer(remover);
  g.add(make_int_source());
  EXPECT_EQ(earlier_fired, 1);
  g.add(make_int_source());
  EXPECT_EQ(earlier_fired, 1);  // Never fires again.
}

TEST(Graph, ObserverAddedDuringNotificationHearsTheNextMutation) {
  core::ProcessingGraph g;
  int late_fired = 0;
  MutationProbe late([&](const core::GraphMutation&) { ++late_fired; });
  MutationProbe adder([&](const core::GraphMutation&) {
    if (!g.has_observer(late)) g.add_observer(late);
  });
  g.add_observer(adder);
  g.add(make_int_source());
  EXPECT_EQ(late_fired, 0);  // Registered mid-walk: not this mutation.
  g.add(make_int_source());
  EXPECT_EQ(late_fired, 1);
}

TEST(Graph, DispatchObserverSelfRemovesMidDispatch) {
  // The same walk serves dispatch events: an observer that leaves from
  // inside on_emit is not called again, and its peer keeps hearing.
  core::ProcessingGraph g;
  struct Probe final : core::GraphObserver {
    core::ProcessingGraph* graph = nullptr;
    bool leave = false;
    int emits = 0;
    void on_emit(const Sample&) override {
      ++emits;
      if (leave) graph->remove_observer(*this);
    }
  } leaver, stayer;
  leaver.graph = stayer.graph = &g;
  leaver.leave = true;
  g.add_observer(leaver, core::GraphObserver::kDispatch);
  g.add_observer(stayer, core::GraphObserver::kDispatch);
  const auto src = g.add(make_int_source());
  const auto sink = g.add(std::make_shared<core::ApplicationSink>());
  g.connect(src, sink);
  auto* source = g.component_as<core::SourceComponent>(src);
  source->push(IntValue{1});
  source->push(IntValue{2});
  EXPECT_EQ(leaver.emits, 1);
  EXPECT_EQ(stayer.emits, 2);
  EXPECT_FALSE(g.has_observer(leaver));
}

TEST(Graph, ObserversHearOnlyTheEventsTheySubscribeTo) {
  struct Probe final : core::GraphObserver {
    int mutations = 0;
    int emits = 0;
    int accepts = 0;
    int timings = 0;
    void on_mutation(const core::GraphMutation&) override { ++mutations; }
    void on_emit(const Sample&) override { ++emits; }
    void on_accept(const Sample&, core::ComponentId, std::size_t,
                   std::uint64_t) override {
      ++accepts;
    }
    void on_input_time(core::ComponentId, double) override { ++timings; }
  } structure, dispatch, accept_timed;
  core::ProcessingGraph g;
  g.add_observer(structure);
  g.add_observer(dispatch, core::GraphObserver::kDispatch);
  g.add_observer(accept_timed,
                 core::GraphObserver::kAccept | core::GraphObserver::kTiming);
  const auto src = g.add(make_int_source());
  const auto mid = g.add(make_doubler());
  g.connect(src, mid);
  g.connect(mid, g.add(std::make_shared<core::ApplicationSink>()));
  g.component_as<core::SourceComponent>(src)->push(IntValue{1});
  // Every observer hears the five mutations; dispatch events only reach
  // their subscribers (two emissions, two accepted deliveries).
  for (const Probe* p : {&structure, &dispatch, &accept_timed}) {
    EXPECT_EQ(p->mutations, 5);
  }
  EXPECT_EQ(structure.emits + structure.accepts + structure.timings, 0);
  EXPECT_EQ(dispatch.emits, 2);
  EXPECT_EQ(dispatch.accepts + dispatch.timings, 0);
  EXPECT_EQ(accept_timed.emits, 0);
  EXPECT_EQ(accept_timed.accepts, 2);
  EXPECT_EQ(accept_timed.timings, 2);
}

TEST(Graph, LogicalTimeIsPerProducerSequence) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(sink);
  g.connect(a, b);
  std::vector<std::uint64_t> sequences;
  sink->set_callback(
      [&](const Sample& s) { sequences.push_back(s.sequence); });
  for (int i = 0; i < 4; ++i) source->push(IntValue{i});
  EXPECT_EQ(sequences, (std::vector<std::uint64_t>{1, 2, 3, 4}));
}

TEST(Graph, ProvenanceRecordsConsumedInputs) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  // An accumulator that emits the sum after every 3 inputs — so each
  // output's provenance spans exactly 3 input sequence numbers.
  int sum = 0, count = 0;
  const auto a = g.add(source);
  const auto acc = g.add(std::make_shared<core::LambdaComponent>(
      "Accumulator",
      std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [&](const Sample& s, const core::ComponentContext& ctx) {
        sum += s.payload.as<IntValue>().value;
        if (++count % 3 == 0) {
          ctx.emit(Payload::make(IntValue{sum}));
          sum = 0;
        }
      }));
  const auto z = g.add(sink);
  g.connect(a, acc);
  g.connect(acc, z);

  for (int i = 1; i <= 6; ++i) source->push(IntValue{i});
  ASSERT_TRUE(sink->last().has_value());
  const Sample& out = *sink->last();
  EXPECT_EQ(out.payload.as<IntValue>().value, 4 + 5 + 6);
  EXPECT_EQ(out.sequence, 2u);           // Second emission of the accumulator.
  EXPECT_EQ(out.input_seq_min(), 4u);    // Built from source samples 4..6.
  EXPECT_EQ(out.input_seq_max(), 6u);
  ASSERT_TRUE(out.inputs);
  EXPECT_EQ(out.inputs->size(), 3u);
}

TEST(Graph, DroppingComponentKeepsAtMostTheCapOfPendingInputs) {
  // A component that declares an output but drops its inputs (a filter
  // during an outage) keeps only the newest kMaxPendingInputs of them as
  // the provenance of its next emission, evicting the oldest half at a
  // time, marking each eviction in the flight ring and counting the
  // evicted inputs in perpos_provenance_evicted_total.
  constexpr std::size_t kCap = core::ProcessingGraph::kMaxPendingInputs;
  constexpr int kDropped = 3 * static_cast<int>(kCap) + 7;
  core::ProcessingGraph g;
  perpos::obs::ObservabilityConfig cfg;
  cfg.metrics = true;
  cfg.recording = true;
  cfg.recorder_capacity = 1 << 15;  // Every event of the run stays.
  g.enable_observability(cfg);
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  int seen = 0;
  const auto a = g.add(source);
  const auto filter = g.add(std::make_shared<core::LambdaComponent>(
      "DropAllButLast",
      std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [&seen](const Sample& s, const core::ComponentContext& ctx) {
        if (++seen > kDropped) ctx.emit(s.payload);
      }));
  const auto z = g.add(sink);
  g.connect(a, filter);
  g.connect(filter, z);
  for (int i = 0; i <= kDropped; ++i) source->push(IntValue{i});

  ASSERT_TRUE(sink->last().has_value());
  const Sample& out = *sink->last();
  ASSERT_TRUE(out.inputs);
  EXPECT_LE(out.inputs->size(), kCap);
  EXPECT_EQ(out.inputs->back().sequence,
            static_cast<std::uint64_t>(kDropped + 1));
  EXPECT_EQ(out.inputs->back().payload.as<IntValue>().value, kDropped);
  EXPECT_EQ(out.cached_seq_min, out.inputs->front().sequence);
  EXPECT_EQ(out.cached_seq_max, out.inputs->back().sequence);

  std::size_t marks = 0;
  for (const auto& e : g.flight_recorder()->merged_events()) {
    if (e.type != perpos::obs::FlightEventType::kMark ||
        std::string_view(e.detail) != "provenance.evict") {
      continue;
    }
    ++marks;
    EXPECT_EQ(e.component, filter);
    EXPECT_EQ(e.a, kCap / 2);
  }
  // Evictions at delivery kCap + 1, then every kCap / 2 deliveries.
  EXPECT_EQ(marks, 5u);

  const perpos::obs::MetricsSnapshot snap = g.metrics();
  const auto* evicted = snap.find_counter("perpos_provenance_evicted_total",
                                          "component",
                                          std::to_string(filter));
  ASSERT_NE(evicted, nullptr);
  // Every input the filter received but its emission no longer cites.
  EXPECT_EQ(evicted->value, kDropped + 1 - out.inputs->size());
  EXPECT_EQ(evicted->value, marks * (kCap / 2));
}

TEST(Graph, SampleTimestampsComeFromClock) {
  perpos::sim::SimClock clock;
  clock.advance_to(perpos::sim::SimTime::from_seconds(12.0));
  core::ProcessingGraph g(&clock);
  auto source = make_int_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = g.add(source);
  const auto b = g.add(sink);
  g.connect(a, b);
  source->push(IntValue{1});
  EXPECT_DOUBLE_EQ(sink->last()->timestamp.seconds(), 12.0);
}

TEST(Graph, MutationDuringDispatchThrows) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  const auto a = g.add(source);
  const auto b = g.add(std::make_shared<core::LambdaComponent>(
      "Mutator",
      std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [&g](const Sample&, const core::ComponentContext&) {
        g.add(std::make_shared<core::ApplicationSink>());  // Forbidden.
      }));
  g.connect(a, b);
  EXPECT_THROW(source->push(IntValue{1}), std::logic_error);
}

TEST(Graph, UnknownIdsThrow) {
  core::ProcessingGraph g;
  EXPECT_THROW(g.info(99), std::invalid_argument);
  EXPECT_THROW(g.remove(99), std::invalid_argument);
  EXPECT_THROW(g.component(99), std::invalid_argument);
  const auto a = g.add(make_int_source());
  EXPECT_THROW(g.connect(a, 99), std::invalid_argument);
}

TEST(Graph, ComponentAsTypedAccess) {
  core::ProcessingGraph g;
  const auto a = g.add(make_int_source());
  EXPECT_NE(g.component_as<core::SourceComponent>(a), nullptr);
  EXPECT_EQ(g.component_as<core::ApplicationSink>(a), nullptr);
}

TEST(Graph, EmittedCountTracked) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  const auto a = g.add(source);
  source->push(IntValue{1});
  source->push(IntValue{2});
  EXPECT_EQ(g.info(a).emitted, 2u);
}

TEST(Graph, ExceptionInComponentLeavesGraphConsistent) {
  // A component throwing in on_input must not corrupt dispatch state:
  // subsequent deliveries work and mutation is possible again.
  core::ProcessingGraph g;
  auto source = make_int_source();
  bool bomb_armed = true;
  const auto a = g.add(source);
  const auto b = g.add(std::make_shared<core::LambdaComponent>(
      "Bomb", std::vector<core::InputRequirement>{core::require<IntValue>()},
      std::vector<core::DataSpec>{core::provide<IntValue>()},
      [&](const Sample& s, const core::ComponentContext& ctx) {
        if (bomb_armed) throw std::runtime_error("boom");
        ctx.emit(s.payload);
      }));
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto z = g.add(sink);
  g.connect(a, b);
  g.connect(b, z);

  EXPECT_THROW(source->push(IntValue{1}), std::runtime_error);
  // Dispatch depth unwound: structural mutation works again.
  EXPECT_NO_THROW(g.add(std::make_shared<core::ApplicationSink>()));
  bomb_armed = false;
  EXPECT_NO_THROW(source->push(IntValue{2}));
  EXPECT_EQ(sink->last()->payload.as<IntValue>().value, 2);
}

TEST(Graph, ExceptionInFeatureHookPropagatesCleanly) {
  core::ProcessingGraph g;
  auto source = make_int_source();
  const auto a = g.add(source);
  class ThrowingFeature final : public core::ComponentFeature {
   public:
    std::string_view name() const override { return "Thrower"; }
    bool produce(Sample&) override { throw std::runtime_error("hook"); }
  };
  g.attach_feature(a, std::make_shared<ThrowingFeature>());
  EXPECT_THROW(source->push(IntValue{1}), std::runtime_error);
  g.detach_feature(a, "Thrower");
  EXPECT_NO_THROW(source->push(IntValue{2}));
}
