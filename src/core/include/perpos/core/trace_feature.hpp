#pragma once

#include "perpos/core/channel.hpp"

#include <cstdint>
#include <string>

/// \file trace_feature.hpp
/// A Channel Feature for observability — the paper's own PCL extension
/// mechanism (Fig. 5's Likelihood) applied to monitoring instead of
/// position quality. Attached to a channel, it sees every delivered data
/// element together with the Fig. 4 data tree that produced it and turns
/// that into channel-level telemetry: delivery counts, tree shape
/// (depth = processing layers, size = contributing samples), the logical
/// time lag between raw inputs and output, and a human-readable "journey"
/// of the last delivery. When the host graph has observability enabled the
/// feature also publishes into its MetricsRegistry, so channel metrics
/// appear in the same Prometheus/JSON export as component metrics.

namespace perpos::core {

class TraceChannelFeature final : public ChannelFeature {
 public:
  /// `channel_label` names the metric series ("GpsSensor-channel", ...).
  explicit TraceChannelFeature(std::string channel_label = "channel")
      : label_(std::move(channel_label)) {}

  std::string_view name() const override { return "Trace"; }

  void apply(const DataTree& tree) override;

  /// Data elements delivered through the channel since attachment.
  std::uint64_t deliveries() const noexcept { return deliveries_; }

  /// Shape of the last delivery's data tree.
  std::size_t last_tree_depth() const noexcept { return last_depth_; }
  std::size_t last_tree_size() const noexcept { return last_size_; }

  /// Logical-time lag of the last delivery: output sequence minus the
  /// lowest input sequence contributing to it (0 for raw sources).
  std::uint64_t last_logical_lag() const noexcept { return last_lag_; }

  /// The last delivery rendered as "Interpreter#2(seq 5) <- Parser#1(seq 9)
  /// <- GpsSensor#0(seq 14)": the spine of the data tree, output first.
  const std::string& last_journey() const noexcept { return journey_; }

  const std::string& channel_label() const noexcept { return label_; }

 private:
  std::string label_;
  std::uint64_t deliveries_ = 0;
  std::size_t last_depth_ = 0;
  std::size_t last_size_ = 0;
  std::uint64_t last_lag_ = 0;
  std::string journey_;

  // Cached registry handles; re-resolved when the graph's registry changes
  // (enable/disable cycles allocate a fresh registry, possibly at the old
  // one's address, so the cache keys on its serial; 0 = none).
  std::uint64_t bound_serial_ = 0;
  obs::Counter* deliveries_counter_ = nullptr;
  obs::Histogram* depth_histogram_ = nullptr;
  obs::Histogram* size_histogram_ = nullptr;
};

}  // namespace perpos::core
