#pragma once

#include "perpos/core/component.hpp"
#include "perpos/core/failure_events.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/runtime/distribution.hpp"
#include "perpos/runtime/payload_codec.hpp"
#include "perpos/sim/network.hpp"
#include "perpos/sim/scheduler.hpp"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

/// \file reliable_link.hpp
/// Reliable remoting for distributed processing graphs.
///
/// The default RemoteEgress/RemoteIngress pair is fire-and-forget: on a
/// lossy link, samples silently vanish — and a positioning pipeline built
/// on top simply sees its source go quiet. This module provides a
/// stop-and-wait-per-message alternative: the egress stamps each payload
/// with a sequence number and retransmits (exponential backoff + jitter)
/// until the ingress acknowledges or the retry budget is exhausted; the
/// ingress acknowledges everything and suppresses duplicates, so each
/// accepted sample is emitted exactly once downstream.
///
/// Wire format (after DistributedDeployment's "<tag> " routing prefix):
///   forward:  DATA <seq> <encoded payload>
///   reverse:  ACK <seq>
///
/// reliable_link_factory() adapts the pair to the deployment's
/// RemoteLinkFactory seam:
///   deployment.set_link_factory(health::reliable_link_factory());
///   deployment.deploy();   // crossing edges now retransmit
///
/// The egress counts what it sends, retransmits, gets acked and gives up,
/// and nothing else does: from its first sample on it is a metrics source
/// of its graph (ProcessingGraph::add_metrics_source), so a scrape reads
/// those counts as `perpos_reliable_link_{sent,retransmits,acks,giveups}
/// _total{link=<tag>}` and no registry lookup runs per message. Give-ups
/// are also `delivery_failed` failure events, counted against the egress
/// and read by the same core::Watchdog that supervises local sources.
///
/// The delivery contract — exactly-once emission (PPM001) and eventual
/// delivery while losses stay within the retransmission bound (PPM002) —
/// is an executable spec: perpos/verify/protocol_models.hpp models this
/// protocol step for step (on_input / on_timeout / deliver / handle_ack
/// under a drop/dup/reorder adversary) and `perpos-verify --model` checks
/// it exhaustively. Changes to the seq/ack/retry behaviour here must keep
/// the model in lockstep; the wire-codec work (ROADMAP item 4) is checked
/// against the same model as its oracle.

namespace perpos::health {

struct ReliableLinkConfig {
  int max_retries = 8;  ///< Retransmissions before giving a message up.
  sim::SimTime ack_timeout = sim::SimTime::from_millis(100);
  double backoff_multiplier = 2.0;
  sim::SimTime max_backoff = sim::SimTime::from_seconds(2.0);
  double jitter = 0.1;  ///< Backoff is scaled by uniform [1, 1 + jitter).
};

/// Device-side end: transmits with sequence numbers, retransmits until
/// acked or out of budget.
class ReliableEgress final : public core::ProcessingComponent {
 public:
  ReliableEgress(sim::Network& network, sim::HostId from, sim::HostId to,
                 std::string pair_tag, ReliableLinkConfig config = {})
      : network_(network),
        from_(from),
        to_(to),
        tag_(std::move(pair_tag)),
        config_(config) {}

  ~ReliableEgress() override { cancel_timers(); }

  std::string_view kind() const override { return "ReliableEgress"; }
  std::vector<core::InputRequirement> input_requirements() const override {
    return {core::require_any()};
  }
  std::vector<core::DataSpec> output_capabilities() const override {
    return {};
  }

  void on_input(const core::Sample& sample) override;
  void on_teardown() override {
    cancel_timers();
    torn_down_ = true;
  }

  /// Reverse-path handler: wire the deployment's deliver_at_from here.
  void handle_ack(const std::string& rest);

  std::uint64_t accepted() const noexcept { return accepted_.get(); }
  /// Total transmissions including retransmissions.
  std::uint64_t transmissions() const noexcept { return transmissions_; }
  std::uint64_t retransmits() const noexcept { return retransmits_.get(); }
  std::uint64_t acked() const noexcept { return acked_.get(); }
  std::uint64_t gave_up() const noexcept { return gave_up_.get(); }
  std::size_t inflight() const noexcept { return inflight_.size(); }

 private:
  struct Pending {
    std::string wire;  ///< "DATA <seq> <payload>", resent verbatim.
    int attempt = 0;   ///< Retransmissions so far.
    sim::Scheduler::EventId timer = 0;
  };

  void transmit(std::uint64_t seq, Pending& pending);
  void arm_timer(std::uint64_t seq, Pending& pending);
  void on_timeout(std::uint64_t seq);
  void cancel_timers();
  /// Scrape time, any thread: the four link counts.
  void collect(obs::MetricsSnapshot& out) const;

  sim::Network& network_;
  sim::HostId from_;
  sim::HostId to_;
  std::string tag_;
  ReliableLinkConfig config_;
  std::map<std::uint64_t, Pending> inflight_;
  bool torn_down_ = false;  ///< Set by on_teardown; blocks further sends.
  std::uint64_t next_seq_ = 1;
  std::uint64_t transmissions_ = 0;
  // Read by a scrape on any thread.
  obs::Tally accepted_;
  obs::Tally retransmits_;
  obs::Tally acked_;
  obs::Tally gave_up_;
  /// Registered on the first on_input; released first, so no scrape
  /// outlives the counts.
  obs::CollectorHandle metrics_source_;
};

/// Server-side end: acknowledges every arrival (acks lost on the wire are
/// covered by the egress retransmitting), suppresses duplicates, counts
/// undecodable payloads.
class ReliableIngress final : public core::ProcessingComponent {
 public:
  ReliableIngress(sim::Network& network, sim::HostId self, sim::HostId peer,
                  std::string pair_tag,
                  std::vector<core::DataSpec> capabilities)
      : network_(network),
        self_(self),
        peer_(peer),
        tag_(std::move(pair_tag)),
        capabilities_(std::move(capabilities)) {}

  std::string_view kind() const override { return "ReliableIngress"; }
  std::vector<core::InputRequirement> input_requirements() const override {
    return {};
  }
  std::vector<core::DataSpec> output_capabilities() const override {
    return capabilities_;
  }
  void on_input(const core::Sample&) override {}

  /// Forward-path handler: wire the deployment's deliver_at_to here.
  void deliver(const std::string& rest);

  std::uint64_t received() const noexcept { return received_; }
  std::uint64_t duplicates() const noexcept { return duplicates_; }
  std::uint64_t decode_failures() const noexcept { return decode_failures_; }

 private:
  sim::Network& network_;
  sim::HostId self_;
  sim::HostId peer_;
  std::string tag_;
  std::vector<core::DataSpec> capabilities_;
  std::set<std::uint64_t> seen_;
  std::uint64_t received_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t decode_failures_ = 0;
};

/// A RemoteLinkFactory producing ReliableEgress/ReliableIngress pairs;
/// install with DistributedDeployment::set_link_factory before deploy().
runtime::RemoteLinkFactory reliable_link_factory(
    ReliableLinkConfig config = {});

}  // namespace perpos::health
