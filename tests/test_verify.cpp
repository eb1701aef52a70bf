// Tests for the static analyzer (perpos::verify): one positive and one
// negative case per rule, the emitters (text / JSON / SARIF golden), the
// config front end (verify_config / assemble_verified), strict deployment,
// and a property test tying the analyzer's verdict to runtime behaviour.

#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/locmodel/resolver.hpp"
#include "perpos/runtime/config.hpp"
#include "perpos/runtime/distribution.hpp"
#include "perpos/verify/budget.hpp"
#include "perpos/verify/emit.hpp"
#include "perpos/verify/incremental.hpp"
#include "perpos/verify/verify.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/fingerprint.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

namespace core = perpos::core;
namespace rt = perpos::runtime;
namespace vfy = perpos::verify;
namespace sim = perpos::sim;

namespace {

// Test-local payload types. UncodableValue deliberately has no payload
// codec coverage; V0..V2 drive the property test.
struct UncodableValue {
  int value = 0;
};
struct V0 {
  int value = 0;
};
struct V1 {
  int value = 0;
};
struct V2 {
  int value = 0;
};

template <typename T>
std::shared_ptr<core::SourceComponent> make_source(std::string kind = "Src") {
  return std::make_shared<core::SourceComponent>(
      std::move(kind), std::vector<core::DataSpec>{core::provide<T>()});
}

/// In -> Out transform that re-emits a default Out for every input.
template <typename In, typename Out>
std::shared_ptr<core::LambdaComponent> make_transform(
    std::string kind = "Xform") {
  return std::make_shared<core::LambdaComponent>(
      std::move(kind),
      std::vector<core::InputRequirement>{core::require<In>()},
      std::vector<core::DataSpec>{core::provide<Out>()},
      [](const core::Sample&, const core::ComponentContext& ctx) {
        ctx.emit(core::Payload::make(Out{}));
      });
}

template <typename T>
std::shared_ptr<core::ApplicationSink> make_sink(std::string name = "Sink") {
  return std::make_shared<core::ApplicationSink>(
      std::move(name),
      std::vector<core::InputRequirement>{core::require<T>()});
}

/// Minimal node builder for hand-built models (states a live graph cannot
/// enter, e.g. cycles).
vfy::NodeModel node(core::ComponentId id, std::string name,
                    std::vector<core::InputRequirement> reqs,
                    std::vector<core::DataSpec> caps) {
  vfy::NodeModel n;
  n.id = id;
  n.name = std::move(name);
  n.kind = n.name;
  n.requirements = std::move(reqs);
  n.capabilities = std::move(caps);
  return n;
}

}  // namespace

// --- Catalog ---------------------------------------------------------------

TEST(Catalog, AllRulesWithStableIds) {
  const vfy::RuleRegistry& catalog = vfy::RuleRegistry::default_catalog();
  // PPV000..PPV015 static rules + PPS001..PPS006 runtime sanitizer ids +
  // PPQ001..PPQ005 quantitative budget rules + PPM001..PPM005 protocol
  // model-checker ids, except the retired PPM004.
  ASSERT_EQ(catalog.rules().size(), 31u);
  std::vector<std::string> expected;
  for (int i = 0; i <= 15; ++i) {
    char id[8];
    std::snprintf(id, sizeof id, "PPV%03d", i);
    expected.push_back(id);
  }
  for (int i = 1; i <= 6; ++i) {
    char id[8];
    std::snprintf(id, sizeof id, "PPS%03d", i);
    expected.push_back(id);
  }
  for (int i = 1; i <= 5; ++i) {
    char id[8];
    std::snprintf(id, sizeof id, "PPQ%03d", i);
    expected.push_back(id);
  }
  for (int i = 1; i <= 5; ++i) {
    if (i == 4) continue;  // PPM004 is retired and stays reserved.
    char id[8];
    std::snprintf(id, sizeof id, "PPM%03d", i);
    expected.push_back(id);
  }
  for (const std::string& id : expected) {
    const vfy::Rule* rule = catalog.find(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_EQ(rule->id(), id);
    EXPECT_FALSE(rule->name().empty());
    EXPECT_FALSE(rule->description().empty());
  }
  EXPECT_EQ(catalog.find("PPV999"), nullptr);
  EXPECT_EQ(catalog.find("PPM004"), nullptr);
}

TEST(Catalog, EveryRuleIsFullyDocumented) {
  // The completeness guard behind `perpos-verify --explain`: every rule
  // in the catalog — present and future — must carry a non-empty name,
  // description, a meaningful severity, and an explain sketch. A new rule
  // landing without its sketch fails here, not in a user's terminal.
  const vfy::RuleRegistry& catalog = vfy::RuleRegistry::default_catalog();
  for (const auto& rule : catalog.rules()) {
    const std::string id(rule->id());
    EXPECT_FALSE(rule->name().empty()) << id;
    EXPECT_FALSE(rule->description().empty()) << id;
    EXPECT_TRUE(rule->default_severity() == vfy::Severity::kNote ||
                rule->default_severity() == vfy::Severity::kWarning ||
                rule->default_severity() == vfy::Severity::kError)
        << id;
    EXPECT_FALSE(vfy::rule_sketch(rule->id()).empty())
        << id << " has no --explain sketch (see kSketches in rules.cpp)";
  }
  EXPECT_TRUE(vfy::rule_sketch("PPX123").empty());
}

TEST(Catalog, ExpectedSeveritiesForQuantitativeRules) {
  const vfy::RuleRegistry& catalog = vfy::RuleRegistry::default_catalog();
  const std::map<std::string, vfy::Severity> expected = {
      {"PPQ001", vfy::Severity::kError},
      {"PPQ002", vfy::Severity::kWarning},
      {"PPQ003", vfy::Severity::kError},
      {"PPQ004", vfy::Severity::kWarning},
      {"PPQ005", vfy::Severity::kError},
  };
  for (const auto& [id, severity] : expected) {
    const vfy::Rule* rule = catalog.find(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_EQ(rule->default_severity(), severity) << id;
  }
  // Lane totals span weak components, so the lane-scoped PPQ rules must
  // opt out of the incremental verifier's per-component replay.
  EXPECT_FALSE(catalog.find("PPQ001")->local());
  EXPECT_FALSE(catalog.find("PPQ002")->local());
  EXPECT_TRUE(catalog.find("PPQ003")->local());
  EXPECT_TRUE(catalog.find("PPQ004")->local());
  EXPECT_TRUE(catalog.find("PPQ005")->local());
}

TEST(Catalog, RuntimeRulesNeverFireStatically) {
  // The PPS ids exist for --list-rules and SARIF metadata; their check()
  // is a no-op — findings come from the live GraphSanitizer only.
  core::ProcessingGraph g;
  g.add(make_sink<V0>("Starved"));  // Plenty wrong statically.
  const vfy::Report report = vfy::verify(g);
  for (int i = 1; i <= 6; ++i) {
    EXPECT_TRUE(report.by_rule("PPS00" + std::to_string(i)).empty());
  }
}

TEST(Catalog, DuplicateIdRejected) {
  // default_catalog construction would have thrown already if ids clashed;
  // check the guard directly through the registry surface.
  class Dup final : public vfy::Rule {
   public:
    std::string_view id() const noexcept override { return "PPV001"; }
    std::string_view name() const noexcept override { return "dup"; }
    std::string_view description() const noexcept override { return "dup"; }
    vfy::Severity default_severity() const noexcept override {
      return vfy::Severity::kNote;
    }
    void check(const vfy::GraphModel&, const vfy::Options&,
               vfy::Report&) const override {}
  };
  vfy::RuleRegistry registry;
  registry.add(std::make_unique<Dup>());
  EXPECT_THROW(registry.add(std::make_unique<Dup>()), std::invalid_argument);
}

TEST(Catalog, DisabledRulesAreSkipped) {
  core::ProcessingGraph g;
  g.add(make_sink<V0>("Starved"));
  vfy::Options options;
  options.disabled_rules = {"PPV001"};
  const vfy::Report report = vfy::verify(g, options);
  EXPECT_TRUE(report.by_rule("PPV001").empty());
}

// --- PPV001 requirement starvation -----------------------------------------

TEST(Starvation, UnconnectedMandatoryInputIsError) {
  core::ProcessingGraph g;
  g.add(make_sink<V0>());
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV001").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV001")[0]->severity, vfy::Severity::kError);
  EXPECT_FALSE(report.ok());
}

TEST(Starvation, SatisfiedInputIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV001").empty());
}

TEST(Starvation, PartiallyStarvedMultiRequirementSinkIsWarning) {
  // connect() accepts when ANY capability satisfies ANY requirement, so a
  // two-requirement sink wired to a producer of only one of them is legal
  // edge by edge — and permanently starves the other input. This is the
  // whole-graph view the analyzer adds (see graph.hpp's accept semantics).
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(std::make_shared<core::ApplicationSink>(
      "TwoInputs", std::vector<core::InputRequirement>{
                       core::require<V0>(), core::require<V1>()}));
  g.connect(src, sink);
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV001").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV001")[0]->severity, vfy::Severity::kWarning);
  EXPECT_TRUE(report.ok());  // Warnings do not fail verification.
}

TEST(Starvation, OptionalRequirementsAreExempt) {
  core::ProcessingGraph g;
  g.add(std::make_shared<core::ApplicationSink>(
      "Optional", std::vector<core::InputRequirement>{
                      core::require<V0>("", /*optional=*/true)}));
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV001").empty());
}

// --- PPV002 wildcard ambiguity ---------------------------------------------

TEST(WildcardAmbiguity, ResolvedEdgeWithSeveralCandidatesWarns) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "a", {}, {core::provide<V0>()}));
  model.nodes.push_back(node(1, "b", {}, {core::provide<V1>()}));
  model.nodes.push_back(node(2, "app", {core::require_any()}, {}));
  model.edges.push_back({0, 2, /*resolved=*/true});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV002").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV002")[0]->severity, vfy::Severity::kWarning);
}

TEST(WildcardAmbiguity, SingleCandidateOrExplicitEdgeIsClean) {
  // One candidate: unambiguous even when resolver-chosen.
  vfy::GraphModel one;
  one.nodes.push_back(node(0, "a", {}, {core::provide<V0>()}));
  one.nodes.push_back(node(1, "app", {core::require_any()}, {}));
  one.edges.push_back({0, 1, /*resolved=*/true});
  EXPECT_TRUE(vfy::verify_model(one).by_rule("PPV002").empty());

  // Explicitly connected wildcard: the author chose; no ambiguity.
  core::ProcessingGraph g;
  const auto a = g.add(make_source<V0>("A"));
  g.add(make_source<V1>("B"));
  const auto app = g.add(std::make_shared<core::ApplicationSink>());
  g.connect(a, app);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV002").empty());
}

TEST(WildcardAmbiguity, DisconnectedWildcardWithCandidatesWarns) {
  core::ProcessingGraph g;
  g.add(make_source<V0>("A"));
  g.add(make_source<V1>("B"));
  g.add(std::make_shared<core::ApplicationSink>());
  const vfy::Report report = vfy::verify(g);
  EXPECT_EQ(report.by_rule("PPV002").size(), 1u);
}

// --- PPV003 dead outputs ---------------------------------------------------

TEST(DeadOutput, UnacceptedCapabilityWarns) {
  core::ProcessingGraph g;
  const auto src = g.add(std::make_shared<core::SourceComponent>(
      "TwoCaps", std::vector<core::DataSpec>{core::provide<V0>(),
                                             core::provide<V1>()}));
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV003").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV003")[0]->severity, vfy::Severity::kWarning);
  EXPECT_NE(report.by_rule("PPV003")[0]->message.find("V1"),
            std::string::npos);
}

TEST(DeadOutput, DanglingProducerIsNote) {
  core::ProcessingGraph g;
  g.add(make_source<V0>());
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV003").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV003")[0]->severity, vfy::Severity::kNote);
}

TEST(DeadOutput, FullyConsumedOutputsAreClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV003").empty());
}

// --- PPV004 unreachable components -----------------------------------------

TEST(Unreachable, SourcelessSubgraphWarns) {
  // A transform with only an optional input heads a subgraph no source
  // feeds. PPV001 stays silent (nothing mandatory is starved), so this is
  // PPV004's catch.
  core::ProcessingGraph g;
  const auto head = g.add(std::make_shared<core::LambdaComponent>(
      "OptionalHead",
      std::vector<core::InputRequirement>{
          core::require<V0>("", /*optional=*/true)},
      std::vector<core::DataSpec>{core::provide<V1>()}, nullptr));
  const auto sink = g.add(make_sink<V1>());
  g.connect(head, sink);
  const vfy::Report report = vfy::verify(g);
  EXPECT_EQ(report.by_rule("PPV004").size(), 2u);  // Head and sink.
  EXPECT_TRUE(report.ok());
}

TEST(Unreachable, SourceFedChainIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto mid = g.add(make_transform<V0, V1>());
  const auto sink = g.add(make_sink<V1>());
  g.connect(src, mid);
  g.connect(mid, sink);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV004").empty());
}

TEST(Unreachable, FullyStarvedNodeIsLeftToPPV001) {
  core::ProcessingGraph g;
  g.add(make_sink<V0>());
  const vfy::Report report = vfy::verify(g);
  EXPECT_TRUE(report.by_rule("PPV004").empty());
  EXPECT_EQ(report.by_rule("PPV001").size(), 1u);
}

// --- PPV005 merge fan-in ---------------------------------------------------

TEST(MergeFanIn, SingleInputFusionIsNote) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "src", {}, {core::provide<V0>()}));
  vfy::NodeModel fusion =
      node(1, "fusion", {core::require<V0>()}, {core::provide<V0>()});
  fusion.is_merge = true;
  model.nodes.push_back(fusion);
  model.edges.push_back({0, 1, false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV005").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV005")[0]->severity, vfy::Severity::kNote);
}

TEST(MergeFanIn, MultiInputFusionIsClean) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "a", {}, {core::provide<V0>()}));
  model.nodes.push_back(node(1, "b", {}, {core::provide<V0>()}));
  vfy::NodeModel fusion =
      node(2, "fusion", {core::require<V0>()}, {core::provide<V0>()});
  fusion.is_merge = true;
  model.nodes.push_back(fusion);
  model.edges.push_back({0, 2, false});
  model.edges.push_back({1, 2, false});
  EXPECT_TRUE(vfy::verify_model(model).by_rule("PPV005").empty());
}

TEST(MergeFanIn, InterleavingIntoNonMergingTransformWarns) {
  core::ProcessingGraph g;
  const auto a = g.add(make_source<V0>("A"));
  const auto b = g.add(make_source<V0>("B"));
  const auto mid = g.add(make_transform<V0, V1>());
  const auto sink = g.add(make_sink<V1>());
  g.connect(a, mid);
  g.connect(b, mid);
  g.connect(mid, sink);
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV005").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV005")[0]->severity, vfy::Severity::kWarning);
}

// --- PPV006 cycles ----------------------------------------------------------

TEST(Cycle, DirectedCycleIsError) {
  // A live ProcessingGraph refuses cycles at connect() time; the model can
  // still represent one (another front end, a bug), and the analyzer must
  // catch it rather than loop.
  vfy::GraphModel model;
  model.nodes.push_back(
      node(0, "a", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes.push_back(
      node(1, "b", {core::require<V0>()}, {core::provide<V0>()}));
  model.edges.push_back({0, 1, false});
  model.edges.push_back({1, 0, false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV006").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV006")[0]->severity, vfy::Severity::kError);
  EXPECT_NE(report.by_rule("PPV006")[0]->message.find("a -> b -> a"),
            std::string::npos);
}

TEST(Cycle, AcyclicChainIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto mid = g.add(make_transform<V0, V1>());
  const auto sink = g.add(make_sink<V1>());
  g.connect(src, mid);
  g.connect(mid, sink);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV006").empty());
}

// --- PPV007 coordinate-frame consistency ------------------------------------

namespace {

/// src(RssiScan) -> WifiPositioner(db) -> RoomResolver(building) -> sink.
vfy::Report verify_wifi_chain(const std::string& db_frame) {
  static const perpos::locmodel::Building building =
      perpos::locmodel::make_two_room_building();
  static perpos::wifi::FingerprintDatabase db;  // Structure only; no data.
  db.set_frame_id(db_frame);
  core::ProcessingGraph g;
  const auto src = g.add(make_source<perpos::wifi::RssiScan>("Scanner"));
  const auto pos = g.add(std::make_shared<perpos::wifi::WifiPositioner>(db));
  const auto res =
      g.add(std::make_shared<perpos::locmodel::RoomResolver>(building));
  const auto sink = g.add(make_sink<core::RoomFix>());
  g.connect(src, pos);
  g.connect(pos, res);
  g.connect(res, sink);
  return vfy::verify(g);
}

}  // namespace

TEST(FrameMismatch, DifferentBuildingFramesAreAnError) {
  const vfy::Report report = verify_wifi_chain("some-other-building");
  ASSERT_EQ(report.by_rule("PPV007").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV007")[0]->severity, vfy::Severity::kError);
  EXPECT_TRUE(report.by_rule("PPV007")[0]->edge.has_value());
}

TEST(FrameMismatch, MatchingFramesAreClean) {
  const vfy::Report report = verify_wifi_chain(
      perpos::locmodel::make_two_room_building().name());
  EXPECT_TRUE(report.by_rule("PPV007").empty());
}

TEST(FrameMismatch, FrameNeutralEdgesAreExempt) {
  // Components without FrameAware annotations never trigger the rule.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV007").empty());
}

// --- PPV008 remoting boundaries ---------------------------------------------

TEST(RemotingBoundary, UncodableCrossHostEdgeIsError) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<UncodableValue>());
  const auto sink = g.add(make_sink<UncodableValue>());
  g.connect(src, sink);
  vfy::Options options;
  options.hosts = {{src, "device"}, {sink, "server"}};
  const vfy::Report report = vfy::verify(g, options);
  ASSERT_EQ(report.by_rule("PPV008").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV008")[0]->severity, vfy::Severity::kError);
}

TEST(RemotingBoundary, CodableCrossHostEdgeIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<core::PositionFix>());
  const auto sink = g.add(make_sink<core::PositionFix>());
  g.connect(src, sink);
  vfy::Options options;
  options.hosts = {{src, "device"}, {sink, "server"}};
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPV008").empty());
}

TEST(RemotingBoundary, CoLocatedUncodableEdgeIsClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<UncodableValue>());
  const auto sink = g.add(make_sink<UncodableValue>());
  g.connect(src, sink);
  vfy::Options options;
  options.hosts = {{src, "device"}, {sink, "device"}};
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPV008").empty());
}

// --- PPV009 cross-lane edges -------------------------------------------------

TEST(CrossLane, SynchronousEdgeAcrossLanesIsError) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  vfy::Options options;
  options.lanes = {{src, "lane-a"}, {sink, "lane-b"}};
  const vfy::Report report = vfy::verify(g, options);
  ASSERT_EQ(report.by_rule("PPV009").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV009")[0]->severity, vfy::Severity::kError);
  EXPECT_NE(report.by_rule("PPV009")[0]->message.find("lane-a"),
            std::string::npos);
}

TEST(CrossLane, SameLaneAndUnassignedEdgesAreClean) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto mid = g.add(make_sink<V0>());
  g.connect(src, mid);
  // Same lane: clean.
  vfy::Options options;
  options.lanes = {{src, "lane-a"}, {mid, "lane-a"}};
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPV009").empty());
  // One endpoint unassigned: clean (no lane plan claim to contradict).
  options.lanes = {{src, "lane-a"}};
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPV009").empty());
  // No plan at all: rule stays silent.
  options.lanes = {};
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPV009").empty());
}

TEST(CrossLane, RemotingEndpointsExemptTheLaneCut) {
  // A deployed link's edges (producer -> RemoteEgress on lane A, and
  // RemoteIngress -> consumer on lane B) never cross lanes themselves; but
  // a model snapshotted mid-plan may still pin an egress and its upstream
  // on different lanes — the link mediates that hop, so no finding.
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes.push_back(node(1, "RemoteEgress", {core::require_any()}, {}));
  model.edges.push_back({0, 1, false});
  vfy::Options options;
  options.lanes = {{0u, "lane-a"}, {1u, "lane-b"}};
  EXPECT_TRUE(vfy::verify_model(model, options).by_rule("PPV009").empty());
}

// --- PPV010 emit-amplification cycles -----------------------------------------

namespace {

/// Feedback region A -> B (edge), B -> A (deployment link), with the given
/// per-node emit multiplicities.
vfy::GraphModel feedback_model(double gain_a, double gain_b) {
  vfy::GraphModel model;
  model.nodes.push_back(
      node(0, "A", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes.push_back(
      node(1, "B", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes[0].emit_per_input = gain_a;
  model.nodes[1].emit_per_input = gain_b;
  model.edges.push_back({0, 1, false});
  model.links.push_back({1, 0, /*acked=*/false, /*ordered=*/true, "uplink"});
  return model;
}

/// A minimal configurable feature for the hook-annotation rules.
class TestFeature final : public core::ComponentFeature {
 public:
  explicit TestFeature(std::string name, std::vector<std::string> deps = {},
                       bool consume_emits = false)
      : name_(std::move(name)),
        deps_(std::move(deps)),
        consume_emits_(consume_emits) {}
  std::string_view name() const override { return name_; }
  std::vector<std::string> required_features() const override { return deps_; }
  bool emits_in_consume() const override { return consume_emits_; }

 private:
  std::string name_;
  std::vector<std::string> deps_;
  bool consume_emits_;
};

}  // namespace

TEST(EmitAmplification, AmplifyingLinkClosedLoopIsError) {
  const vfy::Report report = vfy::verify_model(feedback_model(2.0, 1.0));
  ASSERT_EQ(report.by_rule("PPV010").size(), 1u);
  const vfy::Diagnostic& d = *report.by_rule("PPV010")[0];
  EXPECT_EQ(d.severity, vfy::Severity::kError);
  // Reported at the strongest amplifier of the region.
  EXPECT_EQ(d.component, std::optional<core::ComponentId>(0u));
  EXPECT_NE(d.message.find("x2"), std::string::npos);
}

TEST(EmitAmplification, DampedOrBalancedLoopIsClean) {
  // Gain product exactly 1 (relay loop) and < 1 (decimated) both pass:
  // the queue cannot grow without bound.
  EXPECT_TRUE(
      vfy::verify_model(feedback_model(1.0, 1.0)).by_rule("PPV010").empty());
  EXPECT_TRUE(
      vfy::verify_model(feedback_model(2.0, 0.25)).by_rule("PPV010").empty());
}

TEST(EmitAmplification, EdgeOnlyCycleBelongsToPPV006) {
  // The same amplifying ring closed by a synchronous edge instead of a
  // link is PPV006's cycle error, not an amplification finding.
  vfy::GraphModel model = feedback_model(2.0, 1.0);
  model.links.clear();
  model.edges.push_back({1, 0, false});
  const vfy::Report report = vfy::verify_model(model);
  EXPECT_TRUE(report.by_rule("PPV010").empty());
  EXPECT_FALSE(report.by_rule("PPV006").empty());
}

// --- PPV011 hook-emit reentrancy ----------------------------------------------

TEST(HookReentrancy, ProduceEmissionAlwaysWarns) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes[0].hooks.push_back(
      {"Annotator", {}, /*emits_on_consume=*/false, /*emits_on_produce=*/true});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV011").size(), 1u);
  EXPECT_NE(report.by_rule("PPV011")[0]->message.find("produce()"),
            std::string::npos);
}

TEST(HookReentrancy, ConsumeEmissionOnFeedbackLoopWarns) {
  vfy::GraphModel model = feedback_model(1.0, 1.0);
  model.nodes[0].hooks.push_back(
      {"Echo", {}, /*emits_on_consume=*/true, /*emits_on_produce=*/false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV011").size(), 1u);
  EXPECT_NE(report.by_rule("PPV011")[0]->message.find("consume()"),
            std::string::npos);
}

TEST(HookReentrancy, ConsumeEmissionOnAcyclicPipelineIsClean) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes.push_back(
      node(1, "Sink", {core::require<V0>()}, {}));
  model.edges.push_back({0, 1, false});
  model.nodes[1].hooks.push_back(
      {"Echo", {}, /*emits_on_consume=*/true, /*emits_on_produce=*/false});
  EXPECT_TRUE(vfy::verify_model(model).by_rule("PPV011").empty());
}

// --- PPV012 non-monotonic merge inputs ----------------------------------------

namespace {

/// Source 0 fans out to transforms 1 and 2; both feed merge node 3.
vfy::GraphModel diamond_model() {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes.push_back(node(1, "FastPath", {core::require<V0>()},
                             {core::provide<V1>()}));
  model.nodes.push_back(node(2, "SlowPath", {core::require<V0>()},
                             {core::provide<V1>()}));
  model.nodes.push_back(node(3, "Fusion", {core::require<V1>()}, {}));
  model.nodes[3].is_merge = true;
  model.edges.push_back({0, 1, false});
  model.edges.push_back({0, 2, false});
  model.edges.push_back({1, 3, false});
  model.edges.push_back({2, 3, false});
  return model;
}

}  // namespace

TEST(NonMonotonicMerge, ReconvergentDiamondWarns) {
  const vfy::Report report = vfy::verify_model(diamond_model());
  ASSERT_GE(report.by_rule("PPV012").size(), 1u);
  const vfy::Diagnostic& d = *report.by_rule("PPV012")[0];
  EXPECT_EQ(d.severity, vfy::Severity::kWarning);
  EXPECT_EQ(d.component, std::optional<core::ComponentId>(3u));
  EXPECT_NE(d.message.find("reconverge"), std::string::npos);
}

TEST(NonMonotonicMerge, UnorderedLinkUpstreamOfMergeWarns) {
  // Two independent sources (no reconvergence), but one arrives over an
  // unordered deployment link — arrival order can invert logical time.
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "SrcA", {}, {core::provide<V1>()}));
  model.nodes.push_back(node(1, "Ingress", {core::require<V1>()},
                             {core::provide<V1>()}));
  model.nodes.push_back(node(2, "SrcB", {}, {core::provide<V1>()}));
  model.nodes.push_back(node(3, "Fusion", {core::require<V1>()}, {}));
  model.nodes[3].is_merge = true;
  model.links.push_back({0, 1, /*acked=*/false, /*ordered=*/false, "radio"});
  model.edges.push_back({1, 3, false});
  model.edges.push_back({2, 3, false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV012").size(), 1u);
  EXPECT_NE(report.by_rule("PPV012")[0]->message.find("'radio'"),
            std::string::npos);
}

TEST(NonMonotonicMerge, IndependentOrderedInputsAreClean) {
  vfy::GraphModel model = diamond_model();
  // Split the diamond: give each path its own source.
  model.edges.erase(model.edges.begin());  // Drop 0 -> 1.
  model.nodes.push_back(node(4, "Src2", {}, {core::provide<V0>()}));
  model.edges.push_back({4, 1, false});
  EXPECT_TRUE(vfy::verify_model(model).by_rule("PPV012").empty());
}

// --- PPV013 ack-cycle deadlock ------------------------------------------------

namespace {

vfy::GraphModel two_host_model() {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "DeviceOut", {}, {core::provide<V0>()}));
  model.nodes.push_back(node(1, "ServerIn", {core::require<V0>()},
                             {core::provide<V1>()}));
  model.nodes.push_back(node(2, "ServerOut", {}, {core::provide<V1>()}));
  model.nodes.push_back(node(3, "DeviceIn", {core::require<V1>()}, {}));
  model.nodes[0].host = "device";
  model.nodes[3].host = "device";
  model.nodes[1].host = "server";
  model.nodes[2].host = "server";
  return model;
}

}  // namespace

TEST(AckCycle, MutuallyAckedHostsWarn) {
  vfy::GraphModel model = two_host_model();
  model.links.push_back({0, 1, /*acked=*/true, /*ordered=*/true, "up"});
  model.links.push_back({2, 3, /*acked=*/true, /*ordered=*/true, "down"});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV013").size(), 1u);
  EXPECT_NE(report.by_rule("PPV013")[0]->message.find("device"),
            std::string::npos);
  EXPECT_NE(report.by_rule("PPV013")[0]->message.find("server"),
            std::string::npos);
}

TEST(AckCycle, OneWayAckedIsClean) {
  // Reliable uplink, fire-and-forget downlink: no ring, no finding.
  vfy::GraphModel model = two_host_model();
  model.links.push_back({0, 1, /*acked=*/true, /*ordered=*/true, "up"});
  model.links.push_back({2, 3, /*acked=*/false, /*ordered=*/true, "down"});
  EXPECT_TRUE(vfy::verify_model(model).by_rule("PPV013").empty());
}

// --- PPV014 lane starvation ---------------------------------------------------

namespace {

vfy::GraphModel sinks_on_lane(std::size_t count, const std::string& lane) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  for (std::size_t i = 1; i <= count; ++i) {
    model.nodes.push_back(
        node(static_cast<core::ComponentId>(i), "App" + std::to_string(i),
             {core::require<V0>()}, {}));
    model.nodes.back().lane = lane;
    model.edges.push_back({0, static_cast<core::ComponentId>(i), false});
  }
  return model;
}

}  // namespace

TEST(LaneStarvation, FiveSinksOnOneLaneWarn) {
  const vfy::Report report = vfy::verify_model(sinks_on_lane(5, "hot"));
  ASSERT_EQ(report.by_rule("PPV014").size(), 1u);
  EXPECT_NE(report.by_rule("PPV014")[0]->message.find("'hot'"),
            std::string::npos);
}

TEST(LaneStarvation, ThresholdSinksAreClean) {
  // Exactly max_sinks_per_lane (default 4) is accepted; the threshold is
  // "more than", not "at least".
  EXPECT_TRUE(
      vfy::verify_model(sinks_on_lane(4, "hot")).by_rule("PPV014").empty());
}

TEST(LaneStarvation, ThresholdIsTunable) {
  vfy::Options options;
  options.max_sinks_per_lane = 8;
  EXPECT_TRUE(vfy::verify_model(sinks_on_lane(5, "hot"), options)
                  .by_rule("PPV014")
                  .empty());
  options.max_sinks_per_lane = 2;
  EXPECT_EQ(vfy::verify_model(sinks_on_lane(3, "hot"), options)
                .by_rule("PPV014")
                .size(),
            1u);
}

// --- PPV015 hook-order violations ---------------------------------------------

TEST(HookOrder, MissingRequiredFeatureIsError) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes[0].hooks.push_back({"Smoother", {"Outliers"}, false, false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV015").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV015")[0]->severity, vfy::Severity::kError);
}

TEST(HookOrder, DependencyAttachedAfterDependantWarns) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes[0].hooks.push_back({"Smoother", {"Outliers"}, false, false});
  model.nodes[0].hooks.push_back({"Outliers", {}, false, false});
  const vfy::Report report = vfy::verify_model(model);
  ASSERT_EQ(report.by_rule("PPV015").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV015")[0]->severity, vfy::Severity::kWarning);
  EXPECT_NE(report.by_rule("PPV015")[0]->message.find("attachment order"),
            std::string::npos);
}

TEST(HookOrder, SatisfiedOrderIsClean) {
  vfy::GraphModel model;
  model.nodes.push_back(node(0, "Src", {}, {core::provide<V0>()}));
  model.nodes[0].hooks.push_back({"Outliers", {}, false, false});
  model.nodes[0].hooks.push_back({"Smoother", {"Outliers"}, false, false});
  EXPECT_TRUE(vfy::verify_model(model).by_rule("PPV015").empty());
}

TEST(HookOrder, DetachingADependencyOnALiveGraphIsCaught) {
  // attach_feature() enforces dependencies at attach time, but
  // detach_feature() does not re-check dependants — exactly the hole this
  // rule plugs on re-verification after an adaptation.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  g.attach_feature(src, std::make_shared<TestFeature>("Outliers"));
  g.attach_feature(src, std::make_shared<TestFeature>(
                            "Smoother", std::vector<std::string>{"Outliers"}));
  EXPECT_TRUE(vfy::verify(g).by_rule("PPV015").empty());
  g.detach_feature(src, "Outliers");
  const vfy::Report report = vfy::verify(g);
  ASSERT_EQ(report.by_rule("PPV015").size(), 1u);
  EXPECT_EQ(report.by_rule("PPV015")[0]->severity, vfy::Severity::kError);
}

// --- Strict deployment (runtime integration of the same check) ---------------

namespace {

class StrictDeployFixture : public ::testing::Test {
 protected:
  StrictDeployFixture()
      : net(scheduler, random), graph(&scheduler.clock()),
        deployment(graph, net) {
    device = deployment.add_host("device");
    server = deployment.add_host("server");
    net.set_link(device, server, {sim::SimTime::from_millis(10), 0.0, {}});
    net.set_link(server, device, {sim::SimTime::from_millis(10), 0.0, {}});
  }

  sim::Scheduler scheduler;
  sim::Random random{7};
  sim::Network net;
  core::ProcessingGraph graph;
  rt::DistributedDeployment deployment;
  sim::HostId device{}, server{};
};

}  // namespace

TEST_F(StrictDeployFixture, StrictDeployRefusesUncodableCut) {
  const auto src = graph.add(make_source<UncodableValue>());
  const auto sink = graph.add(make_sink<UncodableValue>());
  graph.connect(src, sink);
  deployment.assign(src, device);
  deployment.assign(sink, server);
  ASSERT_TRUE(deployment.strict());
  try {
    deployment.deploy();
    FAIL() << "deploy() must refuse an uncodable cut edge";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("PPV008"), std::string::npos);
  }
  // The graph must be left unmodified: no egress/ingress were spliced in.
  EXPECT_EQ(graph.size(), 2u);
}

TEST_F(StrictDeployFixture, NonStrictDeployKeepsOldBehaviour) {
  const auto src = graph.add(make_source<UncodableValue>());
  const auto sink = graph.add(make_sink<UncodableValue>());
  graph.connect(src, sink);
  deployment.assign(src, device);
  deployment.assign(sink, server);
  deployment.set_strict(false);
  EXPECT_NO_THROW(deployment.deploy());
  EXPECT_GT(graph.size(), 2u);  // Remoting pair spliced in.
}

TEST_F(StrictDeployFixture, HostsOfExposesThePartition) {
  const auto src = graph.add(make_source<core::PositionFix>());
  const auto sink = graph.add(make_sink<core::PositionFix>());
  graph.connect(src, sink);
  deployment.assign(src, device);
  deployment.assign(sink, server);
  const auto hosts = vfy::hosts_of(deployment);
  ASSERT_EQ(hosts.size(), 2u);
  EXPECT_EQ(hosts.at(src), "device");
  EXPECT_EQ(hosts.at(sink), "server");
  // Round-trip into the analyzer: codable cut, so clean.
  vfy::Options options;
  options.hosts = hosts;
  EXPECT_TRUE(vfy::verify(graph, options).by_rule("PPV008").empty());
}

// --- Config front end (PPV000, names, hosts, analyze-then-instantiate) -------

namespace {

rt::ComponentFactoryRegistry test_registry() {
  rt::ComponentFactoryRegistry registry;
  registry.register_kind("v0-source", [](const auto&) {
    return make_source<V0>("V0Source");
  });
  registry.register_kind("v1-source", [](const auto&) {
    return make_source<V1>("V1Source");
  });
  registry.register_kind("v0-to-v1", [](const auto&) {
    return make_transform<V0, V1>("V0ToV1");
  });
  registry.register_kind("v1-sink",
                         [](const auto&) { return make_sink<V1>("V1Sink"); });
  return registry;
}

}  // namespace

TEST(ConfigVerify, ParseErrorsBecomePPV000WithLine) {
  const vfy::ConfigVerification result = vfy::verify_config(
      "component a v0-source\ncomponent b no-such-kind\n", test_registry());
  ASSERT_EQ(result.report.by_rule("PPV000").size(), 1u);
  const vfy::Diagnostic& d = *result.report.by_rule("PPV000")[0];
  EXPECT_EQ(d.severity, vfy::Severity::kError);
  ASSERT_TRUE(d.line.has_value());
  EXPECT_EQ(*d.line, 2);
  EXPECT_FALSE(result.report.ok());
}

TEST(ConfigVerify, DiagnosticsUseConfigNames) {
  const vfy::ConfigVerification result =
      vfy::verify_config("component lonely v1-sink\n", test_registry());
  ASSERT_EQ(result.report.by_rule("PPV001").size(), 1u);
  EXPECT_EQ(result.report.by_rule("PPV001")[0]->component_name, "lonely");
}

TEST(ConfigVerify, HostLinesFeedTheRemotingRule) {
  const std::string config =
      "component src v0-source\n"
      "component mid v0-to-v1\n"
      "component app v1-sink\n"
      "connect src mid\n"
      "connect mid app\n"
      "host device src mid\n"
      "host server app\n";
  // V1 is a test-local type with no codec coverage: the mid -> app cut
  // must trip PPV008.
  const vfy::ConfigVerification result =
      vfy::verify_config(config, test_registry());
  ASSERT_EQ(result.report.by_rule("PPV008").size(), 1u);
  EXPECT_FALSE(result.report.ok());
}

TEST(ConfigVerify, CleanConfigIsOk) {
  const std::string config =
      "component src v0-source\n"
      "component mid v0-to-v1\n"
      "component app v1-sink\n"
      "connect src mid\n"
      "connect mid app\n";
  const vfy::ConfigVerification result =
      vfy::verify_config(config, test_registry());
  EXPECT_TRUE(result.report.ok());
  EXPECT_EQ(result.report.diagnostics.size(), 0u);
  EXPECT_TRUE(result.assembly.verify_requested == false);
}

TEST(ConfigVerify, LaneLinesFeedTheLaneRules) {
  const std::string config =
      "component src v0-source\n"
      "component mid v0-to-v1\n"
      "component app v1-sink\n"
      "connect src mid\n"
      "connect mid app\n"
      "lane ingest src mid\n"
      "lane ui app\n";
  // The mid -> app edge crosses lanes 'ingest'/'ui' synchronously: PPV009.
  const vfy::ConfigVerification result =
      vfy::verify_config(config, test_registry());
  ASSERT_EQ(result.report.by_rule("PPV009").size(), 1u);
  EXPECT_NE(result.report.by_rule("PPV009")[0]->message.find("ingest"),
            std::string::npos);
  EXPECT_FALSE(result.report.ok());
}

TEST(ConfigVerify, LaneAssignmentsRoundTripThroughExport) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  const std::map<core::ComponentId, std::string> lanes = {{src, "ingest"},
                                                          {sink, "ingest"}};
  const std::string exported =
      rt::export_config(g, nullptr, nullptr, &lanes);
  EXPECT_NE(exported.find("lane ingest"), std::string::npos);

  // Re-parse: the lane plan must survive the round trip by name.
  rt::ComponentFactoryRegistry registry;
  registry.register_kind("Src",
                         [](const auto&) { return make_source<V0>("Src"); });
  registry.register_kind("Sink",
                         [](const auto&) { return make_sink<V0>("Sink"); });
  core::ProcessingGraph g2;
  const rt::ConfigResult parsed =
      rt::assemble_from_config(exported, registry, g2);
  EXPECT_TRUE(parsed.errors.empty());
  ASSERT_EQ(parsed.lanes.size(), 2u);
  for (const auto& [name, lane] : parsed.lanes) EXPECT_EQ(lane, "ingest");
}

TEST(ConfigVerify, ConflictingLaneAssignmentIsAnError) {
  const vfy::ConfigVerification result = vfy::verify_config(
      "component app v1-sink\nlane a app\nlane b app\n", test_registry());
  bool conflict = false;
  for (const auto* d : result.report.by_rule("PPV000")) {
    conflict = conflict ||
               d->message.find("assigned to both") != std::string::npos;
  }
  EXPECT_TRUE(conflict);
}

TEST(AssembleVerified, ErrorsLeaveTheGraphUntouched) {
  core::ProcessingGraph g;
  const vfy::VerifiedAssembly out = vfy::assemble_verified(
      "component lonely v1-sink\n", test_registry(), g);
  EXPECT_FALSE(out.assembled);
  EXPECT_FALSE(out.result.has_value());
  EXPECT_EQ(g.size(), 0u);
}

TEST(AssembleVerified, CleanConfigAssembles) {
  core::ProcessingGraph g;
  const vfy::VerifiedAssembly out = vfy::assemble_verified(
      "component src v0-source\ncomponent app v1-sink\n"
      "component mid v0-to-v1\nresolve\n",
      test_registry(), g);
  ASSERT_TRUE(out.assembled);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(g.size(), 3u);
  // And the assembled pipeline actually flows.
  const core::ComponentId src = out.result->report.id_of("src");
  const core::ComponentId app = out.result->report.id_of("app");
  g.component_as<core::SourceComponent>(src)->push(V0{1});
  EXPECT_EQ(g.component_as<core::ApplicationSink>(app)->received(), 1u);
}

// --- Emitters ----------------------------------------------------------------

namespace {

vfy::Report starved_report() {
  core::ProcessingGraph g;
  g.add(make_sink<V0>("App"));
  return vfy::verify(g);
}

}  // namespace

TEST(Emit, TextIsCompilerStyle) {
  const std::string text = vfy::to_text(starved_report());
  EXPECT_NE(text.find("error[PPV001]"), std::string::npos);
  EXPECT_NE(text.find("  hint: "), std::string::npos);
  EXPECT_NE(text.find("1 error(s)"), std::string::npos);
}

TEST(Emit, JsonCarriesRuleSeverityAndSummary) {
  const std::string json = vfy::to_json(starved_report());
  EXPECT_NE(json.find("\"rule\":\"PPV001\""), std::string::npos);
  EXPECT_NE(json.find("\"severity\":\"error\""), std::string::npos);
  EXPECT_NE(json.find("\"summary\":{\"errors\":1"), std::string::npos);
}

TEST(Emit, JsonEscapesSpecials) {
  vfy::Report report;
  vfy::Diagnostic d;
  d.rule_id = "PPV000";
  d.severity = vfy::Severity::kError;
  d.message = "a \"quoted\"\nline\ttab \\ backslash";
  report.diagnostics.push_back(d);
  const std::string json = vfy::to_json(report);
  EXPECT_NE(json.find("a \\\"quoted\\\"\\nline\\ttab \\\\ backslash"),
            std::string::npos);
}

TEST(Emit, SarifGolden) {
  // Exact-output golden for the SARIF emitter against a one-rule registry
  // and a fully pinned diagnostic. Structural drift (schema URL, required
  // properties, location shape) must show up here as a diff.
  class GoldenRule final : public vfy::Rule {
   public:
    std::string_view id() const noexcept override { return "PPV001"; }
    std::string_view name() const noexcept override {
      return "requirement-starvation";
    }
    std::string_view description() const noexcept override {
      return "a mandatory input nothing satisfies";
    }
    vfy::Severity default_severity() const noexcept override {
      return vfy::Severity::kError;
    }
    void check(const vfy::GraphModel&, const vfy::Options&,
               vfy::Report&) const override {}
  };
  vfy::RuleRegistry registry;
  registry.add(std::make_unique<GoldenRule>());

  vfy::Report report;
  vfy::Diagnostic d;
  d.rule_id = "PPV001";
  d.severity = vfy::Severity::kError;
  d.message = "input 'PositionFix' of 'app' is starved.";
  d.component = 7;
  d.component_name = "app";
  d.fix_hint = "connect a producer.";
  report.diagnostics.push_back(d);

  const std::string expected =
      "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"perpos-verify\","
      "\"informationUri\":\"https://example.invalid/perpos\",\"rules\":["
      "{\"id\":\"PPV001\",\"name\":\"requirement-starvation\","
      "\"shortDescription\":{\"text\":\"a mandatory input nothing "
      "satisfies\"},\"defaultConfiguration\":{\"level\":\"error\"}}]}},"
      "\"results\":[{\"ruleId\":\"PPV001\",\"ruleIndex\":0,"
      "\"level\":\"error\",\"message\":{\"text\":\"input 'PositionFix' of "
      "'app' is starved. Hint: connect a producer.\"},\"locations\":[{"
      "\"physicalLocation\":{\"artifactLocation\":{\"uri\":"
      "\"examples/configs/pipeline.conf\"},\"region\":{\"startLine\":1}},"
      "\"logicalLocations\":[{\"name\":\"app\",\"kind\":\"member\"}]}]}]}]}";
  EXPECT_EQ(vfy::to_sarif(report, registry, "examples/configs/pipeline.conf"),
            expected);
}

TEST(Emit, SarifGoldenPPV009) {
  // Exact-output golden for a cross-lane finding: rule metadata from a
  // one-rule registry plus a pinned warning-severity diagnostic with an
  // edge location. Guards the lane-rule wire format CI consumes.
  class LaneRule final : public vfy::Rule {
   public:
    std::string_view id() const noexcept override { return "PPV009"; }
    std::string_view name() const noexcept override {
      return "cross-lane-edge";
    }
    std::string_view description() const noexcept override {
      return "a direct edge between execution lanes";
    }
    vfy::Severity default_severity() const noexcept override {
      return vfy::Severity::kError;
    }
    void check(const vfy::GraphModel&, const vfy::Options&,
               vfy::Report&) const override {}
  };
  vfy::RuleRegistry registry;
  registry.add(std::make_unique<LaneRule>());

  vfy::Report report;
  vfy::Diagnostic d;
  d.rule_id = "PPV009";
  d.severity = vfy::Severity::kError;
  d.message = "edge 'src' -> 'app' crosses lanes 'lane-a'/'lane-b'.";
  d.component = 3;
  d.component_name = "app";
  d.edge = std::make_pair<core::ComponentId, core::ComponentId>(2, 3);
  d.fix_hint = "route the hop through a deployment link.";
  report.diagnostics.push_back(d);

  const std::string expected =
      "{\"$schema\":\"https://raw.githubusercontent.com/oasis-tcs/"
      "sarif-spec/master/Schemata/sarif-schema-2.1.0.json\","
      "\"version\":\"2.1.0\",\"runs\":[{\"tool\":{\"driver\":{"
      "\"name\":\"perpos-verify\","
      "\"informationUri\":\"https://example.invalid/perpos\",\"rules\":["
      "{\"id\":\"PPV009\",\"name\":\"cross-lane-edge\","
      "\"shortDescription\":{\"text\":\"a direct edge between execution "
      "lanes\"},\"defaultConfiguration\":{\"level\":\"error\"}}]}},"
      "\"results\":[{\"ruleId\":\"PPV009\",\"ruleIndex\":0,"
      "\"level\":\"error\",\"message\":{\"text\":\"edge 'src' -> 'app' "
      "crosses lanes 'lane-a'/'lane-b'. Hint: route the hop through a "
      "deployment link.\"},\"locations\":[{"
      "\"physicalLocation\":{\"artifactLocation\":{\"uri\":"
      "\"examples/configs/lanes.conf\"},\"region\":{\"startLine\":1}},"
      "\"logicalLocations\":[{\"name\":\"app\",\"kind\":\"member\"}]}]}]}]}";
  EXPECT_EQ(vfy::to_sarif(report, registry, "examples/configs/lanes.conf"),
            expected);
}

TEST(Emit, SarifWithoutArtifactOmitsPhysicalLocation) {
  const std::string sarif = vfy::to_sarif(
      starved_report(), vfy::RuleRegistry::default_catalog());
  EXPECT_EQ(sarif.find("physicalLocation"), std::string::npos);
  EXPECT_NE(sarif.find("logicalLocations"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\":\"2.1.0\""), std::string::npos);
}

// --- Property: the analyzer's verdict predicts runtime behaviour --------------

TEST(Property, FindingFreeGraphsRunWithoutRejectedDeliveries) {
  // For random graphs assembled from typed sources, transforms and sinks:
  // whenever the analyzer reports neither errors nor warnings, pushing
  // samples through every source must cause zero rejected deliveries
  // (the runtime counter behind requirement mismatches). This ties the
  // static rules to the dynamic failure mode they claim to predict.
  int clean_graphs = 0;
  for (unsigned seed = 0; seed < 40; ++seed) {
    std::mt19937 rng(seed);
    auto chance = [&](double p) {
      return std::uniform_real_distribution<>(0.0, 1.0)(rng) < p;
    };
    auto pick = [&](int n) {
      return std::uniform_int_distribution<>(0, n - 1)(rng);
    };

    core::ProcessingGraph g;
    g.enable_observability();
    std::vector<core::ComponentId> order;
    std::vector<core::ComponentId> sources;
    std::vector<std::function<void()>> pushers;

    const int n_sources = 1 + pick(2);
    for (int i = 0; i < n_sources; ++i) {
      switch (pick(3)) {
        case 0: {
          auto s = make_source<V0>("S0");
          const auto id = g.add(s);
          pushers.push_back([s] { s->push(V0{}); });
          order.push_back(id);
          sources.push_back(id);
          break;
        }
        case 1: {
          auto s = make_source<V1>("S1");
          const auto id = g.add(s);
          pushers.push_back([s] { s->push(V1{}); });
          order.push_back(id);
          sources.push_back(id);
          break;
        }
        default: {
          auto s = make_source<V2>("S2");
          const auto id = g.add(s);
          pushers.push_back([s] { s->push(V2{}); });
          order.push_back(id);
          sources.push_back(id);
          break;
        }
      }
    }
    const int n_transforms = pick(4);
    for (int i = 0; i < n_transforms; ++i) {
      const int in = pick(3), out = pick(3);
      std::shared_ptr<core::ProcessingComponent> t;
      if (in == 0 && out == 1) t = make_transform<V0, V1>();
      else if (in == 0 && out == 2) t = make_transform<V0, V2>();
      else if (in == 1 && out == 0) t = make_transform<V1, V0>();
      else if (in == 1 && out == 2) t = make_transform<V1, V2>();
      else if (in == 2 && out == 0) t = make_transform<V2, V0>();
      else if (in == 2 && out == 1) t = make_transform<V2, V1>();
      else continue;  // Same-type pass-throughs add nothing here.
      order.push_back(g.add(t));
    }
    const int n_sinks = 1 + pick(2);
    std::vector<std::shared_ptr<core::ApplicationSink>> sinks;
    for (int i = 0; i < n_sinks; ++i) {
      std::shared_ptr<core::ApplicationSink> sink;
      switch (pick(3)) {
        case 0: sink = make_sink<V0>(); break;
        case 1: sink = make_sink<V1>(); break;
        default: sink = make_sink<V2>(); break;
      }
      sinks.push_back(sink);
      order.push_back(g.add(sink));
    }

    // Random forward edges; connect() rejects unrealizable ones, which is
    // part of the territory the analyzer must cope with.
    for (std::size_t i = 0; i < order.size(); ++i) {
      for (std::size_t j = i + 1; j < order.size(); ++j) {
        if (!chance(0.5)) continue;
        try {
          g.connect(order[i], order[j]);
        } catch (const std::exception&) {
          // Unrealizable or duplicate — skip.
        }
      }
    }

    const vfy::Report report = vfy::verify(g);
    if (!report.ok() || report.warnings() > 0) continue;
    ++clean_graphs;

    for (const auto& push : pushers) {
      push();
    }
    std::uint64_t rejected = 0;
    for (const auto& counter : g.metrics_registry()->snapshot().counters) {
      if (counter.name == "perpos_component_rejected_total") {
        rejected += counter.value;
      }
    }
    EXPECT_EQ(rejected, 0u) << "seed " << seed << ":\n"
                            << vfy::to_text(report);
    // Liveness: a finding-free verdict also implies every application sink
    // is fed (PPV001 covers its input, PPV004 its reachability).
    for (const auto& sink : sinks) {
      EXPECT_GE(sink->received(), 1u)
          << "seed " << seed << ":\n" << vfy::to_text(report);
    }
  }
  // The generator must actually exercise the clean path.
  EXPECT_GT(clean_graphs, 0);
}

// --- Incremental re-verification (adaptation-time rechecks) -------------------

namespace {

/// Order-insensitive verdict fingerprint for report equivalence checks.
std::multiset<std::string> verdicts(const vfy::Report& report) {
  std::multiset<std::string> out;
  for (const vfy::Diagnostic& d : report.diagnostics) {
    out.insert(d.rule_id + "|" +
               (d.component.has_value() ? std::to_string(*d.component)
                                        : std::string("-")) +
               "|" + d.message);
  }
  return out;
}

}  // namespace

TEST(Incremental, FullPassMatchesPlainVerify) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  g.add(make_sink<V1>("Starved"));  // Independent, deliberately broken.

  const auto iv = vfy::IncrementalVerifier::of(g);
  const vfy::Report incremental = iv->full();
  EXPECT_EQ(verdicts(incremental), verdicts(vfy::verify(g)));
  EXPECT_EQ(iv->nodes_visited(), 3u);
  EXPECT_EQ(iv->components_visited(), 2u);
}

TEST(Incremental, CleanRecheckReplaysCacheWithoutVisiting) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  g.add(make_sink<V1>("Starved"));

  const auto iv = vfy::IncrementalVerifier::of(g);
  const vfy::Report first = iv->full();
  const vfy::Report second = iv->recheck();
  EXPECT_EQ(verdicts(first), verdicts(second));
  // Nothing mutated: every component replays from cache.
  EXPECT_EQ(iv->nodes_visited(), 0u);
  EXPECT_EQ(iv->components_visited(), 0u);
}

TEST(Incremental, RecheckAfterInsertVisitsOnlyTheDirtySubgraph) {
  // Two independent pipelines; adapting one must not re-analyze the other.
  core::ProcessingGraph g;
  const auto src_a = g.add(make_source<V0>());
  const auto sink_a = g.add(make_sink<V0>("AppA"));
  g.connect(src_a, sink_a);
  const auto src_b = g.add(make_source<V1>());
  const auto sink_b = g.add(make_sink<V1>("AppB"));
  g.connect(src_b, sink_b);

  const auto iv = vfy::IncrementalVerifier::of(g);
  iv->full();
  EXPECT_EQ(iv->nodes_visited(), 4u);

  // The PSL-style adaptation: splice a filter into pipeline A's edge.
  const auto filter = g.add(make_transform<V0, V0>("Filter"));
  g.insert_between(filter, src_a, sink_a);

  const vfy::Report after = iv->recheck();
  // Only pipeline A (now 3 nodes) was analyzed; pipeline B replayed.
  EXPECT_EQ(iv->components_visited(), 1u);
  EXPECT_EQ(iv->nodes_visited(), 3u);
  // ...and the verdicts are exactly a full re-verification's.
  EXPECT_EQ(verdicts(after), verdicts(vfy::verify(g)));
}

TEST(Incremental, FeatureDetachDirtiesTheHostComponent) {
  // Feature mutations change no edge, so only the dirty mark (not the
  // cache key) can catch them — this is the regression test for that path.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  const auto other = g.add(make_source<V1>("Other"));
  const auto other_sink = g.add(make_sink<V1>("OtherApp"));
  g.connect(other, other_sink);
  g.attach_feature(src, std::make_shared<TestFeature>("Outliers"));
  g.attach_feature(src, std::make_shared<TestFeature>(
                            "Smoother", std::vector<std::string>{"Outliers"}));

  const auto iv = vfy::IncrementalVerifier::of(g);
  EXPECT_TRUE(iv->full().by_rule("PPV015").empty());

  g.detach_feature(src, "Outliers");
  const vfy::Report after = iv->recheck();
  ASSERT_EQ(after.by_rule("PPV015").size(), 1u);
  EXPECT_EQ(iv->components_visited(), 1u);
  EXPECT_EQ(iv->nodes_visited(), 2u);
  EXPECT_EQ(verdicts(after), verdicts(vfy::verify(g)));
}

TEST(Incremental, NonLocalRulesStillRunOnCleanComponents) {
  // PPV014 totals sinks per lane across weak components; a cached
  // component must not hide its contribution.
  core::ProcessingGraph g;
  std::vector<core::ComponentId> sinks;
  for (int i = 0; i < 5; ++i) {
    const auto src = g.add(make_source<V0>());
    const auto sink = g.add(make_sink<V0>("App" + std::to_string(i)));
    g.connect(src, sink);
    sinks.push_back(sink);
  }
  vfy::Options options;
  for (const auto id : sinks) options.lanes.emplace(id, "hot");

  const auto iv = vfy::IncrementalVerifier::of(g);
  iv->set_options(options);
  EXPECT_EQ(iv->full().by_rule("PPV014").size(), 1u);
  // No mutations: everything replays, yet the lane total still fires.
  const vfy::Report again = iv->recheck();
  EXPECT_EQ(again.by_rule("PPV014").size(), 1u);
  EXPECT_EQ(iv->nodes_visited(), 0u);
}

// --- PPQ quantitative budget rules -------------------------------------------

namespace {

/// src -> sink pipeline on one lane with an annotated source rate and sink
/// cost — the minimal overloadable fixture.
struct BudgetPipeline {
  core::ProcessingGraph g;
  core::ComponentId src;
  core::ComponentId sink;
  vfy::Options options;

  BudgetPipeline(double rate_hz, double cost_us) {
    src = g.add(make_source<V0>());
    sink = g.add(make_sink<V0>());
    g.connect(src, sink);
    options.lanes.emplace(src, "main");
    options.lanes.emplace(sink, "main");
    vfy::BudgetAnnotation rate;
    rate.rate_lo_hz = rate.rate_hi_hz = rate_hz;
    options.budget.annotations.emplace(src, rate);
    vfy::BudgetAnnotation cost;
    cost.cost_us = cost_us;
    options.budget.annotations.emplace(sink, cost);
  }
};

}  // namespace

TEST(BudgetRules, OverloadedLaneIsError) {
  // 2 kHz into a 1.5 ms/sample sink = 3 cores of work on a 1-core lane.
  BudgetPipeline p(2000.0, 1500.0);
  const vfy::Report report = vfy::verify(p.g, p.options);
  const auto findings = report.by_rule("PPQ001");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, vfy::Severity::kError);
  EXPECT_NE(findings[0]->message.find("'main'"), std::string::npos);
}

TEST(BudgetRules, LoadedButFeasibleLaneIsClean) {
  // Same shape at 40% utilization.
  BudgetPipeline p(2000.0, 200.0);
  const vfy::Report report = vfy::verify(p.g, p.options);
  EXPECT_TRUE(report.by_rule("PPQ001").empty());
}

TEST(BudgetRules, UnannotatedGraphsStayWithinDefaultBudgets) {
  // The PPQ family must not fire on configs that never opted into
  // rates/costs/SLOs — default 1 Hz sources against microsecond-scale
  // calibrated costs are always feasible.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  const vfy::Report report = vfy::verify(g);
  for (int i = 1; i <= 5; ++i) {
    EXPECT_TRUE(report.by_rule("PPQ00" + std::to_string(i)).empty()) << i;
  }
}

TEST(BudgetRules, QueueBoundGatedOnWatermark) {
  // One source bursting into a wide fan-out: 16-sample bursts each
  // delivered to 3 sinks = 48 queued deliveries per event.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  for (int i = 0; i < 3; ++i) {
    g.connect(src, g.add(make_sink<V0>("App" + std::to_string(i))));
  }
  vfy::Options options;
  options.budget.burst = 16.0;
  // Unwatermarked: PPQ002 has nothing to check against.
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPQ002").empty());
  options.budget.queue_watermark = 8;
  const vfy::Report report = vfy::verify(g, options);
  const auto findings = report.by_rule("PPQ002");
  ASSERT_FALSE(findings.empty());
  EXPECT_EQ(findings[0]->severity, vfy::Severity::kWarning);
  options.budget.queue_watermark = 4096;
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPQ002").empty());
}

TEST(BudgetRules, InfeasibleLatencySloIsError) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto mid = g.add(make_transform<V0, V1>());
  const auto sink = g.add(make_sink<V1>());
  g.connect(src, mid);
  g.connect(mid, sink);
  vfy::Options options;
  vfy::BudgetAnnotation slow;
  slow.cost_us = 9000.0;
  options.budget.annotations.emplace(mid, slow);
  options.budget.latency_slo_us = 5000.0;
  const vfy::Report report = vfy::verify(g, options);
  const auto findings = report.by_rule("PPQ003");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, vfy::Severity::kError);
  // Anchored at the path's sink, where the latency is owed.
  EXPECT_EQ(findings[0]->component, sink);
  // A feasible SLO over the same path is clean.
  options.budget.latency_slo_us = 50000.0;
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPQ003").empty());
  // No SLO declared: nothing to check.
  options.budget.latency_slo_us = 0.0;
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPQ003").empty());
}

TEST(BudgetRules, RateStarvedSinkIsWarning) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  vfy::Options options;
  vfy::BudgetAnnotation rate;
  rate.rate_lo_hz = rate.rate_hi_hz = 0.5;
  options.budget.annotations.emplace(src, rate);
  vfy::BudgetAnnotation need;
  need.min_rate_hz = 2.0;
  options.budget.annotations.emplace(sink, need);
  const vfy::Report report = vfy::verify(g, options);
  const auto findings = report.by_rule("PPQ004");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, vfy::Severity::kWarning);
  EXPECT_EQ(findings[0]->component, sink);
  // A satisfiable floor is clean.
  options.budget.annotations[sink].min_rate_hz = 0.25;
  EXPECT_TRUE(vfy::verify(g, options).by_rule("PPQ004").empty());
}

TEST(BudgetRules, CriticalFeedbackGainIsError) {
  // A feedback region at exactly unit gain never diverges in PPV010's
  // strict sense but never drains either: its queue bound is unbounded.
  // Only reportable when the region is actually scheduled (lane assigned)
  // or a watermark claims a bound exists.
  vfy::GraphModel model;
  model.nodes.push_back(node(1, "a", {core::require<V0>()},
                             {core::provide<V0>()}));
  model.nodes.push_back(node(2, "b", {core::require<V0>()},
                             {core::provide<V0>()}));
  model.nodes.back().emit_per_input = 1.0;
  model.edges.push_back({1, 2});
  model.edges.push_back({2, 1});
  vfy::Options options;
  options.budget.queue_watermark = 64;
  const vfy::Report report = vfy::verify_model(model, options);
  const auto findings = report.by_rule("PPQ005");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0]->severity, vfy::Severity::kError);
  // A damped loop (gain < 1) has a finite geometric bound: clean.
  model.nodes[0].emit_per_input = 0.5;
  EXPECT_TRUE(vfy::verify_model(model, options).by_rule("PPQ005").empty());
}

TEST(BudgetRules, ConfigBudgetLinesFeedTheRules) {
  // End to end through the config front end: `budget` lines must reach
  // the PPQ rules exactly like `lane` lines reach PPV009/PPV014.
  rt::ComponentFactoryRegistry registry;
  registry.register_kind("source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<V0>()});
  });
  registry.register_kind("sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "App", std::vector<core::InputRequirement>{core::require<V0>()});
  });
  const vfy::ConfigVerification result = vfy::verify_config(
      "component src source\n"
      "component app sink\n"
      "connect src app\n"
      "lane main src app\n"
      "budget src rate=2000\n"
      "budget app cost_us=1500\n"
      "budget * slo_us=1000\n",
      registry);
  EXPECT_EQ(result.report.by_rule("PPQ001").size(), 1u);
  EXPECT_EQ(result.report.by_rule("PPQ003").size(), 1u);
  // The effective options round out to the tools' quantitative report.
  const vfy::BudgetReport budget =
      vfy::analyze_budget(result.model, result.options);
  ASSERT_EQ(budget.lanes.size(), 1u);
  EXPECT_GT(budget.lanes[0].utilization.hi, 1.0);
}

// --- Incremental x PPQ: annotation mutations and lane-rule escape ------------

TEST(Incremental, BudgetAnnotationDirtiesOnlyTheAnnotatedComponent) {
  // Two independent pipelines; annotating one must re-run the local rules
  // on that pipeline alone (O(delta), counter-asserted), not the world.
  core::ProcessingGraph g;
  const auto src_a = g.add(make_source<V0>());
  const auto sink_a = g.add(make_sink<V0>("AppA"));
  g.connect(src_a, sink_a);
  const auto src_b = g.add(make_source<V1>());
  const auto sink_b = g.add(make_sink<V1>("AppB"));
  g.connect(src_b, sink_b);

  const auto iv = vfy::IncrementalVerifier::of(g);
  EXPECT_TRUE(iv->full().by_rule("PPQ004").empty());

  // Demand more rate than the default 1 Hz source supplies.
  vfy::BudgetAnnotation need;
  need.min_rate_hz = 5.0;
  iv->annotate_budget(sink_a, need);
  const vfy::Report after = iv->recheck();
  ASSERT_EQ(after.by_rule("PPQ004").size(), 1u);
  EXPECT_EQ(after.by_rule("PPQ004")[0]->component, sink_a);
  // Only pipeline A was re-analyzed; pipeline B replayed from cache.
  EXPECT_EQ(iv->components_visited(), 1u);
  EXPECT_EQ(iv->nodes_visited(), 2u);

  // The incremental verdicts match a from-scratch verification with the
  // same annotations.
  vfy::Options options;
  options.budget.annotations.emplace(sink_a, need);
  EXPECT_EQ(verdicts(after), verdicts(vfy::verify(g, options)));
}

TEST(Incremental, LanePPQRulesRunViaTheNonLocalPath) {
  // PPQ001 totals utilization per lane across weak components, so a fully
  // cached recheck must still recompute it — the same escape hatch PPV014
  // uses.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  vfy::Options options;
  options.lanes.emplace(src, "main");
  options.lanes.emplace(sink, "main");
  vfy::BudgetAnnotation rate;
  rate.rate_lo_hz = rate.rate_hi_hz = 2000.0;
  options.budget.annotations.emplace(src, rate);
  vfy::BudgetAnnotation cost;
  cost.cost_us = 1500.0;
  options.budget.annotations.emplace(sink, cost);

  const auto iv = vfy::IncrementalVerifier::of(g);
  iv->set_options(options);
  EXPECT_EQ(iv->full().by_rule("PPQ001").size(), 1u);
  // No mutations: everything replays, yet the lane total still fires.
  const vfy::Report again = iv->recheck();
  EXPECT_EQ(again.by_rule("PPQ001").size(), 1u);
  EXPECT_EQ(iv->nodes_visited(), 0u);
}

TEST(Incremental, CostAnnotationFlipsTheLaneVerdictOnRecheck) {
  // Annotation-driven adaptation end to end: a live graph goes over
  // budget when a component's measured cost is annotated upward, and the
  // incremental recheck reports it without a full pass.
  core::ProcessingGraph g;
  const auto src = g.add(make_source<V0>());
  const auto sink = g.add(make_sink<V0>());
  g.connect(src, sink);
  vfy::Options options;
  options.lanes.emplace(src, "main");
  options.lanes.emplace(sink, "main");
  vfy::BudgetAnnotation rate;
  rate.rate_lo_hz = rate.rate_hi_hz = 2000.0;
  options.budget.annotations.emplace(src, rate);

  const auto iv = vfy::IncrementalVerifier::of(g);
  iv->set_options(options);
  EXPECT_TRUE(iv->full().by_rule("PPQ001").empty());

  vfy::BudgetAnnotation cost;
  cost.cost_us = 1500.0;  // Profiler said: 1.5 ms per sample.
  iv->annotate_budget(sink, cost);
  EXPECT_EQ(iv->recheck().by_rule("PPQ001").size(), 1u);
}
