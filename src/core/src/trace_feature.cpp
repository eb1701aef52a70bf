#include "perpos/core/trace_feature.hpp"

namespace perpos::core {

void TraceChannelFeature::apply(const DataTree& tree) {
  ++deliveries_;
  if (tree.empty()) {
    last_depth_ = last_size_ = 0;
    last_lag_ = 0;
    journey_.clear();
    return;
  }
  last_depth_ = tree.depth();
  last_size_ = tree.size();

  const Sample& output = tree.root().sample;
  const std::uint64_t lo = output.input_seq_min();
  last_lag_ = lo == 0 ? 0 : (output.sequence > lo ? output.sequence - lo : 0);

  // Spine of the tree: output first, following the first contributing
  // input at each layer down to the raw source.
  journey_.clear();
  const DataTreeNode* node = &tree.root();
  while (node != nullptr) {
    if (!journey_.empty()) journey_ += " <- ";
    const ComponentId producer = node->sample.producer;
    if (graph() != nullptr && graph()->has(producer)) {
      journey_ += std::string(graph()->component(producer).kind());
    } else {
      journey_ += "component";
    }
    journey_ += "#" + std::to_string(producer) + "(seq " +
                std::to_string(node->sample.sequence) + ")";
    node = node->children.empty() ? nullptr : &node->children.front();
  }

  obs::MetricsRegistry* registry =
      graph() != nullptr ? graph()->metrics_registry() : nullptr;
  if (registry == nullptr) {
    bound_serial_ = 0;
    return;
  }
  if (registry->serial() != bound_serial_) {
    const obs::Labels labels{{"channel", label_}};
    deliveries_counter_ =
        registry->counter("perpos_channel_deliveries_total", labels);
    depth_histogram_ = registry->histogram(
        "perpos_channel_tree_depth", labels, {1, 2, 3, 4, 6, 8, 12, 16, 24});
    size_histogram_ = registry->histogram(
        "perpos_channel_tree_size", labels,
        {1, 2, 4, 8, 16, 32, 64, 128, 256});
    bound_serial_ = registry->serial();
  }
  deliveries_counter_->inc();
  depth_histogram_->observe(static_cast<double>(last_depth_));
  size_histogram_->observe(static_cast<double>(last_size_));
}

}  // namespace perpos::core
