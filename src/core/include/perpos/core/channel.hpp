#pragma once

#include "perpos/core/data_tree.hpp"
#include "perpos/core/graph.hpp"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

/// \file channel.hpp
/// The Process Channel Layer (paper Sec. 2.2).
///
/// The PCL is a derived view of the PSL graph in which only *data sources*,
/// *merging components* and the *application* appear as nodes; the linear
/// pipeline between two such nodes is collapsed into a Channel. Channels
/// are created dynamically when the middleware assembles the processing
/// components — here they are re-derived from the graph whenever its
/// structure changes, which keeps the causal connection.
///
/// A Channel groups the output of every internal processing step into
/// logically coherent DataTrees (Fig. 4) and can be extended with Channel
/// Features: a feature's apply(dataTree) runs every time the channel
/// delivers a data element, *before* the element reaches the channel sink —
/// semantically equivalent to a Component Feature attached to the last
/// Processing Component of the Channel, as the paper specifies.

namespace perpos::core {

class ChannelManager;
class Channel;

namespace detail {
struct ChannelRecord;  // Shared channel state that survives re-derivation.
}

/// Base class for Channel Features (paper Fig. 3b).
class ChannelFeature {
 public:
  virtual ~ChannelFeature() = default;

  /// Unique name among the features of one channel.
  virtual std::string_view name() const = 0;

  /// Called by the middleware each time the channel delivers a data
  /// element, with the data tree that produced it. Implementations update
  /// internal state here and expose custom query methods (e.g.
  /// getLikelihood) that the application calls afterwards.
  virtual void apply(const DataTree& tree) = 0;

  /// Component-feature names that must be present on some component of the
  /// channel for this feature to work (e.g. Likelihood requires "HDOP").
  /// Checked at attach time.
  virtual std::vector<std::string> required_component_features() const {
    return {};
  }

 protected:
  /// The graph the owning channel belongs to; valid while attached.
  ProcessingGraph* graph() const noexcept { return graph_; }

 private:
  friend class ChannelManager;
  ProcessingGraph* graph_ = nullptr;
};

/// A maximal linear stretch of the processing graph, from a source or
/// merge component (inclusive) to the next merge/application (the sink,
/// exclusive). Channel objects are owned by the ChannelManager and are
/// invalidated by structural graph mutations — re-fetch after mutating.
class Channel {
 public:
  /// First component of the channel (a source or a merging component).
  ComponentId source() const noexcept { return source_; }
  /// The component consuming the channel's output (merge or application).
  ComponentId sink() const noexcept { return sink_; }
  /// Components of the channel in flow order; front()==source(), back() is
  /// the last component before the sink (the channel end-point).
  const std::vector<ComponentId>& path() const noexcept { return path_; }
  /// The channel end-point (last component before the sink).
  ComponentId last() const noexcept { return path_.back(); }

  /// "<SourceKind>-channel", e.g. "GpsSensor-channel".
  const std::string& name() const noexcept { return name_; }

  /// Features attached to this channel.
  const std::vector<std::shared_ptr<ChannelFeature>>& features() const;

  /// The attached feature of dynamic type F, or nullptr.
  template <typename F>
  F* get_feature() const {
    for (const auto& f : features()) {
      if (auto* typed = dynamic_cast<F*>(f.get())) return typed;
    }
    return nullptr;
  }

  /// Time-scoped feature access (paper Fig. 5:
  /// `inputChannel.getFeature(position, Likelihood.class)`): returns the
  /// feature only if its state corresponds to exactly this channel output —
  /// i.e. apply() last ran for `output`. Returns nullptr for stale or
  /// foreign samples; this is the timing guarantee PoSIM lacks (Sec. 3.2).
  template <typename F>
  F* get_feature(const Sample& output) const {
    if (!is_current(output)) return nullptr;
    return get_feature<F>();
  }

  /// True if `output` is the most recent element delivered by this channel.
  bool is_current(const Sample& output) const noexcept;

  /// Build the Fig. 4 data tree for a channel output sample.
  DataTree data_tree(const Sample& output) const;

  /// The most recent output delivered by this channel, if any.
  std::optional<Sample> last_output() const;

 private:
  friend class ChannelManager;

  ComponentId source_ = kInvalidComponent;
  ComponentId sink_ = kInvalidComponent;
  std::vector<ComponentId> path_;
  std::string name_;
  std::shared_ptr<detail::ChannelRecord> record_;
};

/// Derives and owns the PCL view of one ProcessingGraph: the channel list,
/// channel features (which survive structural changes and are re-bound to
/// the new channel end-points), and the per-channel output tracking that
/// powers time-scoped feature access.
class ChannelManager {
 public:
  explicit ChannelManager(ProcessingGraph& graph);
  ~ChannelManager();

  ChannelManager(const ChannelManager&) = delete;
  ChannelManager& operator=(const ChannelManager&) = delete;

  /// All channels of the current graph structure, in a deterministic order
  /// (by source id, then sink id).
  std::vector<Channel*> channels();

  /// The channel whose source is `source`, or nullptr.
  Channel* channel_from_source(ComponentId source);

  /// Channels whose sink is `sink` (the inputs of a merge/application).
  std::vector<Channel*> channels_into(ComponentId sink);

  /// The channel containing `component` in its path, or nullptr.
  Channel* channel_containing(ComponentId component);

  /// Attach a Channel Feature to `channel`. Validates the feature's
  /// required component features exist on the channel. The feature is keyed
  /// by the channel's (source, sink) pair and survives structural changes
  /// that preserve those endpoints (e.g. inserting a filter component).
  void attach_feature(Channel& channel, std::shared_ptr<ChannelFeature> f);

  /// Detach a Channel Feature by name.
  void detach_feature(Channel& channel, std::string_view name);

  ProcessingGraph& graph() noexcept { return graph_; }

 private:
  friend class Channel;
  using ChannelKey = std::pair<ComponentId, ComponentId>;  // (source, sink)

  void refresh();

  ProcessingGraph& graph_;
  std::uint64_t seen_revision_ = ~0ull;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::map<ChannelKey, std::shared_ptr<detail::ChannelRecord>> records_;
  std::size_t observer_token_ = 0;
  bool refreshing_ = false;
};

}  // namespace perpos::core
