#include "perpos/core/graph_dump.hpp"

#include <functional>
#include <sstream>

namespace perpos::core {

namespace {

bool is_channel_adapter(const std::string& name) {
  return name.rfind("__channel/", 0) == 0;
}

void render_node(const ProcessingGraph& graph, ComponentId id,
                 const std::string& indent, std::ostringstream& out) {
  const ComponentInfo info = graph.info(id);
  out << indent << "+- " << info.kind << " #" << id;

  std::string features;
  for (const std::string& f : info.feature_names) {
    if (is_channel_adapter(f)) continue;
    if (!features.empty()) features += ", ";
    features += f;
  }
  if (!features.empty()) out << "  {" << features << "}";

  std::string caps;
  for (const DataSpec& c : info.capabilities) {
    if (!caps.empty()) caps += ", ";
    caps += std::string(c.type->name());
    if (!c.feature_tag.empty()) caps += "@" + c.feature_tag;
  }
  if (!caps.empty()) out << "  -> " << caps;
  out << "\n";

  for (ComponentId producer : info.producers) {
    render_node(graph, producer, indent + "   ", out);
  }
}

}  // namespace

std::string dump_structure(const ProcessingGraph& graph) {
  std::ostringstream out;
  out << "Process Structure Layer (" << graph.size() << " components)\n";
  for (ComponentId sink : graph.sinks()) {
    render_node(graph, sink, "", out);
  }
  return out.str();
}

std::string dump_channels(ChannelManager& channels) {
  std::ostringstream out;
  const auto all = channels.channels();
  out << "Process Channel Layer (" << all.size() << " channels)\n";
  const ProcessingGraph& graph = channels.graph();
  for (const Channel* c : all) {
    out << c->name() << ": " << graph.component(c->source()).kind() << " #"
        << c->source() << " ==[";
    for (std::size_t i = 1; i < c->path().size(); ++i) {
      if (i > 1) out << " > ";
      out << " " << graph.component(c->path()[i]).kind();
    }
    if (c->path().size() > 1) out << " ";
    out << "]==> " << graph.component(c->sink()).kind() << " #" << c->sink();
    if (!c->features().empty()) {
      out << "  {";
      for (std::size_t i = 0; i < c->features().size(); ++i) {
        if (i != 0) out << ", ";
        out << c->features()[i]->name();
      }
      out << "}";
    }
    out << "\n";
  }
  return out.str();
}

std::string dump_positioning(const PositioningService& service) {
  std::ostringstream out;
  out << "Positioning Layer (" << service.providers().size()
      << " providers)\n";
  for (const auto& p : service.providers()) {
    out << "provider #" << p->sink_id() << " tech="
        << p->advertisement().technology
        << " acc=" << p->advertisement().typical_accuracy_m << "m";
    if (const auto fix = p->last_position()) {
      out << " last=" << to_string(*fix);
    } else {
      out << " last=<none>";
    }
    std::string features;
    for (const Channel* c : p->channels()) {
      for (const auto& f : c->features()) {
        if (!features.empty()) features += ", ";
        features += std::string(f->name());
      }
    }
    if (!features.empty()) out << "  features: {" << features << "}";
    out << "\n";
  }
  return out.str();
}

std::string to_dot(const ProcessingGraph& graph) {
  std::ostringstream out;
  out << "digraph perpos {\n  rankdir=LR;\n";
  for (ComponentId id : graph.components()) {
    const ComponentInfo info = graph.info(id);
    out << "  n" << id << " [label=\"" << info.kind << "\"];\n";
    for (ComponentId consumer : info.consumers) {
      out << "  n" << id << " -> n" << consumer << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

}  // namespace perpos::core
