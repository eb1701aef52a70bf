#pragma once

#include "perpos/core/channel.hpp"
#include "perpos/core/health_state.hpp"
#include "perpos/core/watchdog.hpp"

#include <cstdint>

/// \file health_feature.hpp
/// PCL surface of the health subsystem: a Channel Feature answering "how
/// trustworthy is this channel's source right now?" at the point where
/// applications already query channel qualities (likelihood, scan quality,
/// accuracy). The feature is a thin view over a core::Watchdog — the
/// verdict is computed once, in core, and merely exposed here.

namespace perpos::health {

/// Channel Feature exposing the watchdog's verdict for a channel source.
/// Attach to the channel whose source the watchdog watches:
///
///   auto* channel = channels.channel_from_source(gps_id);
///   channels.attach_feature(*channel,
///       std::make_shared<health::HealthChannelFeature>(watchdog, gps_id));
///   ...
///   auto* hf = channel->get_feature<health::HealthChannelFeature>();
///   if (hf->verdict() >= core::HealthState::kStale) { /* distrust */ }
class HealthChannelFeature final : public core::ChannelFeature {
 public:
  HealthChannelFeature(const core::Watchdog& watchdog, core::ComponentId source)
      : watchdog_(&watchdog), source_(source) {}

  std::string_view name() const override { return "Health"; }

  void apply(const core::DataTree&) override { ++outputs_seen_; }

  /// The watchdog's current verdict for the source; kDead when the source
  /// is not (or no longer) watched.
  core::HealthState verdict() const {
    if (!watchdog_->watches(source_)) return core::HealthState::kDead;
    return watchdog_->state(source_);
  }

  /// When the verdict last changed (zero while never transitioned).
  sim::SimTime last_transition() const {
    if (!watchdog_->watches(source_)) return sim::SimTime::zero();
    return watchdog_->last_transition(source_);
  }

  /// Convenience: true while the source is fully healthy.
  bool healthy() const { return verdict() == core::HealthState::kHealthy; }

  core::ComponentId source() const noexcept { return source_; }
  /// Channel outputs observed since attachment (apply() invocations).
  std::uint64_t outputs_seen() const noexcept { return outputs_seen_; }

 private:
  const core::Watchdog* watchdog_;
  core::ComponentId source_;
  std::uint64_t outputs_seen_ = 0;
};

}  // namespace perpos::health
