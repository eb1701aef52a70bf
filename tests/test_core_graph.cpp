// Tests for the Process Structure Layer: graph manipulation, realizability
// checking, synchronous delivery, logical time and provenance.

#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
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

TEST(Graph, MutationObserverFiresUntilRemoved) {
  core::ProcessingGraph g;
  int fired = 0;
  const auto token =
      g.add_mutation_observer([&](const core::GraphMutation&) { ++fired; });
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
  g.remove_mutation_observer(token);
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
  std::size_t token = 0;
  token = g.add_mutation_observer([&](const core::GraphMutation&) {
    ++fired;
    g.remove_mutation_observer(token);  // Self-detach mid-walk.
  });
  g.add_mutation_observer(
      [&](const core::GraphMutation&) { ++successor_fired; });
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
  std::size_t token = 0;
  token = g.add_mutation_observer([&](const core::GraphMutation&) {
    ++fired;
    g.remove_mutation_observer(token);
  });
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
  g.add(make_int_source());
  EXPECT_EQ(fired, 1);
}

TEST(Graph, DetachingLaterObserverSuppressesItsInvocation) {
  core::ProcessingGraph g;
  int second_fired = 0;
  std::size_t second = 0;
  g.add_mutation_observer([&](const core::GraphMutation&) {
    // First observer removes the second before the walk reaches it: the
    // second must not see this mutation (tombstones are skipped in-walk).
    if (second != 0) g.remove_mutation_observer(second);
  });
  second = g.add_mutation_observer(
      [&](const core::GraphMutation&) { ++second_fired; });
  g.add(make_int_source());
  EXPECT_EQ(second_fired, 0);
}

TEST(Graph, ObserverMayMutateGraphReentrantly) {
  core::ProcessingGraph g;
  std::vector<core::GraphMutation::Kind> seen;
  bool nested = false;
  g.add_mutation_observer([&](const core::GraphMutation& m) {
    seen.push_back(m.kind);
    if (!nested) {
      nested = true;
      g.add(make_int_source());  // Nested mutation from inside the walk.
    }
  });
  g.add(make_int_source());
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0], core::GraphMutation::Kind::kAdd);
  EXPECT_EQ(seen[1], core::GraphMutation::Kind::kAdd);
}

TEST(Graph, ObserverRemovedByPeerMidWalkNeverFiresAgain) {
  core::ProcessingGraph g;
  int earlier_fired = 0;
  const auto earlier = g.add_mutation_observer(
      [&](const core::GraphMutation&) { ++earlier_fired; });
  g.add_mutation_observer([&](const core::GraphMutation&) {
    // Removes a peer the walk already visited.
    g.remove_mutation_observer(earlier);
  });
  g.add(make_int_source());
  EXPECT_EQ(earlier_fired, 1);
  g.add(make_int_source());
  EXPECT_EQ(earlier_fired, 1);  // Never fires again.
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
