#include "perpos/core/channel.hpp"

#include <algorithm>
#include <stdexcept>

namespace perpos::core {

/// State of one channel identity (source, sink) that must survive
/// re-derivation of the channel view: attached features, the members set
/// used for data-tree construction, and the last delivered output.
namespace detail {
struct ChannelRecord {
  std::vector<std::shared_ptr<ChannelFeature>> features;
  std::unordered_set<ComponentId> members;
  std::optional<Sample> last_output;
  ComponentId adapter_host = kInvalidComponent;  ///< Where the adapter sits.
  std::string adapter_name;
};
}  // namespace detail

namespace {

/// The hidden Component Feature the manager attaches to a channel's last
/// component. It realizes the paper's semantics: a Channel Feature is
/// equivalent to a Component Feature on the last Processing Component of
/// the channel — apply() runs every time the channel delivers an element,
/// before the element reaches the sink.
class ChannelAdapter final : public ComponentFeature {
 public:
  ChannelAdapter(std::string name, std::shared_ptr<detail::ChannelRecord> record)
      : name_(std::move(name)), record_(std::move(record)) {}

  std::string_view name() const override { return name_; }

  bool produce(Sample& sample) override {
    // Feature-added side data is not a channel delivery.
    if (sample.feature_added()) return true;
    record_->last_output = sample;
    if (!record_->features.empty()) {
      const DataTree tree = DataTree::build(sample, record_->members);
      for (const auto& f : record_->features) f->apply(tree);
    }
    return true;
  }

 private:
  std::string name_;
  std::shared_ptr<detail::ChannelRecord> record_;
};

}  // namespace

// --- Channel ---------------------------------------------------------------

const std::vector<std::shared_ptr<ChannelFeature>>& Channel::features() const {
  return record_->features;
}

bool Channel::is_current(const Sample& output) const noexcept {
  if (!record_->last_output) return false;
  const Sample& last = *record_->last_output;
  return last.producer == output.producer && last.sequence == output.sequence;
}

DataTree Channel::data_tree(const Sample& output) const {
  return DataTree::build(output, record_->members);
}

std::optional<Sample> Channel::last_output() const {
  return record_->last_output;
}

// --- ChannelManager ----------------------------------------------------------

ChannelManager::ChannelManager(ProcessingGraph& graph) : graph_(graph) {
  graph_.add_observer(*this);
  refresh();
}

void ChannelManager::on_mutation(const GraphMutation& m) {
  // Channels follow the structure only: the adapters this manager attaches
  // report feature attach/detach, which must not re-derive the view.
  if (m.structural()) refresh();
}

ChannelManager::~ChannelManager() {
  graph_.remove_observer(*this);
  // Detach any adapters still installed.
  for (auto& [key, record] : records_) {
    if (record->adapter_host != kInvalidComponent &&
        graph_.has(record->adapter_host)) {
      graph_.detach_feature(record->adapter_host, record->adapter_name);
    }
    record->adapter_host = kInvalidComponent;
  }
}

void ChannelManager::refresh() {
  if (refreshing_) return;
  refreshing_ = true;
  seen_revision_ = graph_.revision();
  channels_.clear();

  const std::vector<ComponentId> ids = graph_.components();
  const auto is_major = [&](ComponentId id) {
    if (graph_.component(id).is_channel_endpoint()) return true;
    const ComponentInfo i = graph_.info(id);
    return !(i.producers.size() == 1 && i.consumers.size() == 1);
  };

  // For every edge u->v into a major node v, walk upstream through interior
  // (1-in/1-out) nodes to find the channel source.
  for (ComponentId v : ids) {
    if (!is_major(v)) continue;
    const ComponentInfo vi = graph_.info(v);
    for (ComponentId u : vi.producers) {
      std::vector<ComponentId> rev{u};
      ComponentId cur = u;
      while (!is_major(cur)) {
        cur = graph_.info(cur).producers.front();
        rev.push_back(cur);
      }
      auto channel = std::make_unique<Channel>();
      channel->path_.assign(rev.rbegin(), rev.rend());
      channel->source_ = channel->path_.front();
      channel->sink_ = v;
      channel->name_ =
          std::string(graph_.component(channel->source_).kind()) + "-channel";
      channels_.push_back(std::move(channel));
    }
  }

  std::sort(channels_.begin(), channels_.end(),
            [](const auto& a, const auto& b) {
              if (a->source_ != b->source_) return a->source_ < b->source_;
              return a->sink_ < b->sink_;
            });

  // Bind records and adapters: find-or-create the record for each channel's
  // (source, sink) identity, refresh its member set, and move the adapter
  // to the channel's current last component if the end-point changed.
  std::unordered_set<std::uint64_t> live_keys;
  for (auto& channel : channels_) {
    const ChannelKey key{channel->source_, channel->sink_};
    live_keys.insert((static_cast<std::uint64_t>(key.first) << 32) |
                     key.second);
    auto& record = records_[key];
    if (!record) {
      record = std::make_shared<detail::ChannelRecord>();
      record->adapter_name = "__channel/" + std::to_string(key.first) + "->" +
                             std::to_string(key.second);
    }
    record->members =
        std::unordered_set<ComponentId>(channel->path_.begin(),
                                        channel->path_.end());
    const ComponentId want_host = channel->path_.back();
    if (record->adapter_host != want_host) {
      if (record->adapter_host != kInvalidComponent &&
          graph_.has(record->adapter_host)) {
        graph_.detach_feature(record->adapter_host, record->adapter_name);
      }
      graph_.attach_feature(
          want_host, std::make_shared<ChannelAdapter>(record->adapter_name,
                                                      record));
      record->adapter_host = want_host;
    }
    channel->record_ = record;
  }

  // Channels that disappeared: remove their adapters (features are kept in
  // the record in case the channel identity reappears).
  for (auto& [key, record] : records_) {
    const std::uint64_t packed =
        (static_cast<std::uint64_t>(key.first) << 32) | key.second;
    if (live_keys.contains(packed)) continue;
    if (record->adapter_host != kInvalidComponent &&
        graph_.has(record->adapter_host)) {
      graph_.detach_feature(record->adapter_host, record->adapter_name);
    }
    record->adapter_host = kInvalidComponent;
  }
  refreshing_ = false;
}

std::vector<Channel*> ChannelManager::channels() {
  if (graph_.revision() != seen_revision_) refresh();
  std::vector<Channel*> out;
  out.reserve(channels_.size());
  for (const auto& c : channels_) out.push_back(c.get());
  return out;
}

Channel* ChannelManager::channel_from_source(ComponentId source) {
  for (Channel* c : channels()) {
    if (c->source() == source) return c;
  }
  return nullptr;
}

std::vector<Channel*> ChannelManager::channels_into(ComponentId sink) {
  std::vector<Channel*> out;
  for (Channel* c : channels()) {
    if (c->sink() == sink) out.push_back(c);
  }
  return out;
}

Channel* ChannelManager::channel_containing(ComponentId component) {
  for (Channel* c : channels()) {
    if (std::find(c->path().begin(), c->path().end(), component) !=
        c->path().end()) {
      return c;
    }
  }
  return nullptr;
}

void ChannelManager::attach_feature(Channel& channel,
                                    std::shared_ptr<ChannelFeature> f) {
  if (!f) throw std::invalid_argument("null channel feature");
  for (const auto& existing : channel.record_->features) {
    if (existing->name() == f->name()) {
      throw std::invalid_argument("channel feature '" +
                                  std::string(f->name()) +
                                  "' already attached");
    }
  }
  // Validate component-feature dependencies: each required feature must be
  // present on some component of the channel (paper: the Likelihood feature
  // "depends on a Processing Component that provides the Component Feature
  // which can access HDOP information").
  for (const std::string& dep : f->required_component_features()) {
    const bool found = std::any_of(
        channel.path().begin(), channel.path().end(), [&](ComponentId id) {
          return graph_.get_feature(id, dep) != nullptr;
        });
    if (!found) {
      throw std::invalid_argument(
          "channel feature '" + std::string(f->name()) +
          "' requires component feature '" + dep +
          "' on some component of the channel");
    }
  }
  f->graph_ = &graph_;
  channel.record_->features.push_back(std::move(f));
}

void ChannelManager::detach_feature(Channel& channel, std::string_view name) {
  auto& features = channel.record_->features;
  const auto it = std::find_if(features.begin(), features.end(),
                               [&](const auto& f) { return f->name() == name; });
  if (it == features.end()) {
    throw std::invalid_argument("channel feature '" + std::string(name) +
                                "' not attached");
  }
  (*it)->graph_ = nullptr;
  features.erase(it);
}

}  // namespace perpos::core
