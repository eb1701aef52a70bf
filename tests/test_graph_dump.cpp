// Tests for the textual renderings of the three PerPos views (Fig. 2):
// dump_structure (PSL tree with features and capabilities, including
// feature-added ones), dump_channels (PCL channel lines with attached
// Channel Features) and to_dot (Graphviz export).

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/feature.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/core/graph_dump.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace core = perpos::core;
using core::Sample;

namespace {

struct Reading {
  int value = 0;
};
struct Quality {
  double q = 0.0;
};

}  // namespace

PERPOS_TYPE_NAME(Reading, "Reading");
PERPOS_TYPE_NAME(Quality, "Quality");

namespace {

/// Feature that adds a Quality capability to its host's output port.
class QualityFeature final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "Quality"; }
  std::vector<const core::TypeInfo*> added_types() const override {
    return {core::type_of<Quality>()};
  }
};

struct Rig {
  Rig() {
    source = std::make_shared<core::SourceComponent>(
        "Sensor", std::vector<core::DataSpec>{core::provide<Reading>()});
    relay = std::make_shared<core::LambdaComponent>(
        "Filter", std::vector<core::InputRequirement>{core::require<Reading>()},
        std::vector<core::DataSpec>{core::provide<Reading>()},
        [](const Sample& s, const core::ComponentContext& ctx) {
          ctx.emit(s.payload);
        });
    sink = std::make_shared<core::ApplicationSink>("App");
    source_id = graph.add(source);
    relay_id = graph.add(relay);
    sink_id = graph.add(sink);
    graph.connect(source_id, relay_id);
    graph.connect(relay_id, sink_id);
  }

  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  std::shared_ptr<core::LambdaComponent> relay;
  std::shared_ptr<core::ApplicationSink> sink;
  core::ComponentId source_id{}, relay_id{}, sink_id{};
};

}  // namespace

TEST(GraphDump, StructureRendersTreeFromSinkToSource) {
  Rig rig;
  const std::string psl = core::dump_structure(rig.graph);
  EXPECT_NE(psl.find("Process Structure Layer (3 components)"),
            std::string::npos);
  // All three components appear with their ids.
  EXPECT_NE(psl.find("Sensor #" + std::to_string(rig.source_id)),
            std::string::npos);
  EXPECT_NE(psl.find("Filter #" + std::to_string(rig.relay_id)),
            std::string::npos);
  EXPECT_NE(psl.find("App #" + std::to_string(rig.sink_id)),
            std::string::npos);
  // The tree is rooted at the application: the sink line comes first.
  EXPECT_LT(psl.find("App #"), psl.find("Filter #"));
  EXPECT_LT(psl.find("Filter #"), psl.find("Sensor #"));
  // Output capabilities are rendered with the registered type name.
  EXPECT_NE(psl.find("-> Reading"), std::string::npos);
}

TEST(GraphDump, StructureShowsFeatureAndAddedCapability) {
  Rig rig;
  rig.graph.attach_feature(rig.relay_id, std::make_shared<QualityFeature>());
  const std::string psl = core::dump_structure(rig.graph);
  // The feature name is listed on the host...
  EXPECT_NE(psl.find("{Quality}"), std::string::npos);
  // ...and the added capability appears feature-tagged on the output port.
  EXPECT_NE(psl.find("Quality@Quality"), std::string::npos);
  // The info() view agrees: the relay now offers two capabilities.
  const auto info = rig.graph.info(rig.relay_id);
  EXPECT_EQ(info.capabilities.size(), 2u);
}

TEST(GraphDump, ChannelsRenderPathAndFeatures) {
  Rig rig;
  core::ChannelManager channels(rig.graph);
  ASSERT_EQ(channels.channels().size(), 1u);
  std::string pcl = core::dump_channels(channels);
  EXPECT_NE(pcl.find("Process Channel Layer (1 channels)"),
            std::string::npos);
  // source ==[ intermediates ]==> sink, with the relay on the path.
  EXPECT_NE(pcl.find("Sensor #" + std::to_string(rig.source_id)),
            std::string::npos);
  EXPECT_NE(pcl.find("==[ Filter ]==>"), std::string::npos);
  EXPECT_NE(pcl.find("App #" + std::to_string(rig.sink_id)),
            std::string::npos);

  // Attached Channel Features are rendered in braces.
  class Probe final : public core::ChannelFeature {
   public:
    std::string_view name() const override { return "Probe"; }
    void apply(const core::DataTree&) override {}
  };
  channels.attach_feature(*channels.channels().front(),
                          std::make_shared<Probe>());
  pcl = core::dump_channels(channels);
  EXPECT_NE(pcl.find("{Probe}"), std::string::npos);
}

TEST(GraphDump, DotExportListsNodesAndEdges) {
  Rig rig;
  const std::string dot = core::to_dot(rig.graph);
  EXPECT_NE(dot.find("digraph perpos {"), std::string::npos);
  EXPECT_NE(dot.find("n" + std::to_string(rig.source_id) +
                     " [label=\"Sensor\"]"),
            std::string::npos);
  EXPECT_NE(dot.find("n" + std::to_string(rig.source_id) + " -> n" +
                     std::to_string(rig.relay_id)),
            std::string::npos);
  EXPECT_NE(dot.find("n" + std::to_string(rig.relay_id) + " -> n" +
                     std::to_string(rig.sink_id)),
            std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
}

TEST(GraphDump, FanOutRendersSharedProducerUnderEachSink) {
  core::ProcessingGraph graph;
  auto source = std::make_shared<core::SourceComponent>(
      "Sensor", std::vector<core::DataSpec>{core::provide<Reading>()});
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>("AppA")));
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>("AppB")));
  const std::string psl = core::dump_structure(graph);
  EXPECT_NE(psl.find("AppA"), std::string::npos);
  EXPECT_NE(psl.find("AppB"), std::string::npos);
  // The shared sensor is rendered under both application roots.
  std::size_t occurrences = 0;
  for (std::size_t pos = psl.find("Sensor #"); pos != std::string::npos;
       pos = psl.find("Sensor #", pos + 1)) {
    ++occurrences;
  }
  EXPECT_EQ(occurrences, 2u);
}
