#include "perpos/health/reliable_link.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

namespace perpos::health {

// --- ReliableEgress ----------------------------------------------------------

void ReliableEgress::on_input(const core::Sample& sample) {
  // After teardown the network/scheduler may be gone (e.g. a peer's flush
  // during graph destruction re-entering us) — drop instead of sending.
  if (torn_down_) return;
  if (!metrics_source_) {
    metrics_source_ = context().graph()->add_metrics_source(
        [this](obs::MetricsSnapshot& out) { collect(out); });
  }
  if (!runtime::is_encodable(sample.payload)) return;
  const std::uint64_t seq = next_seq_++;
  Pending pending;
  pending.wire = "DATA " + std::to_string(seq) + " " +
                 runtime::encode_payload(sample.payload);
  accepted_.add();
  auto [it, inserted] = inflight_.emplace(seq, std::move(pending));
  transmit(seq, it->second);
}

void ReliableEgress::transmit(std::uint64_t seq, Pending& pending) {
  network_.send(from_, to_, tag_ + " " + pending.wire);
  ++transmissions_;
  arm_timer(seq, pending);
}

void ReliableEgress::arm_timer(std::uint64_t seq, Pending& pending) {
  // Exponential backoff capped at max_backoff, stretched by up to
  // `jitter` so retransmissions of simultaneously-lost messages do not
  // stay synchronized.
  double timeout_s = config_.ack_timeout.seconds() *
                     std::pow(config_.backoff_multiplier, pending.attempt);
  timeout_s = std::min(timeout_s, config_.max_backoff.seconds());
  if (config_.jitter > 0.0) {
    timeout_s *= 1.0 + config_.jitter * network_.random().uniform(0.0, 1.0);
  }
  pending.timer = network_.scheduler().schedule_after(
      sim::SimTime::from_seconds(timeout_s),
      [this, seq] { on_timeout(seq); });
}

void ReliableEgress::on_timeout(std::uint64_t seq) {
  const auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;  // Acked meanwhile.
  Pending& pending = it->second;
  if (pending.attempt >= config_.max_retries) {
    gave_up_.add();
    core::report_failure_event(context().graph(), kind(), context().id(),
                               "delivery_failed");
    inflight_.erase(it);
    return;
  }
  ++pending.attempt;
  retransmits_.add();
  transmit(seq, pending);
}

void ReliableEgress::handle_ack(const std::string& rest) {
  std::istringstream in(rest);
  std::string word;
  std::uint64_t seq = 0;
  if (!(in >> word >> seq) || word != "ACK") return;
  const auto it = inflight_.find(seq);
  if (it == inflight_.end()) return;  // Duplicate ack (retransmit raced it).
  network_.scheduler().cancel(it->second.timer);
  inflight_.erase(it);
  acked_.add();
}

void ReliableEgress::cancel_timers() {
  for (auto& [seq, pending] : inflight_) {
    network_.scheduler().cancel(pending.timer);
    pending.timer = 0;
  }
}

void ReliableEgress::collect(obs::MetricsSnapshot& out) const {
  const obs::Labels link{{"link", tag_}};
  out.counters.push_back(
      {"perpos_reliable_link_sent_total", link, accepted_.get()});
  out.counters.push_back(
      {"perpos_reliable_link_retransmits_total", link, retransmits_.get()});
  out.counters.push_back(
      {"perpos_reliable_link_acks_total", link, acked_.get()});
  out.counters.push_back(
      {"perpos_reliable_link_giveups_total", link, gave_up_.get()});
}

// --- ReliableIngress ---------------------------------------------------------

void ReliableIngress::deliver(const std::string& rest) {
  std::istringstream in(rest);
  std::string word;
  std::uint64_t seq = 0;
  if (!(in >> word >> seq) || word != "DATA") {
    ++decode_failures_;
    core::report_failure_event(context().graph(), kind(), context().id(),
                               "decode_failed");
    return;
  }
  // Ack unconditionally — also for duplicates, whose original ack was
  // evidently lost.
  network_.send(self_, peer_, tag_ + " ACK " + std::to_string(seq));
  if (!seen_.insert(seq).second) {
    ++duplicates_;
    core::report_failure_event(context().graph(), kind(), context().id(),
                               "duplicate_suppressed");
    return;
  }
  std::string wire;
  std::getline(in, wire);
  if (!wire.empty() && wire.front() == ' ') wire.erase(0, 1);
  if (auto payload = runtime::decode_payload(wire)) {
    ++received_;
    context().emit(std::move(*payload));
  } else {
    ++decode_failures_;
    core::report_failure_event(context().graph(), kind(), context().id(),
                               "decode_failed");
  }
}

// --- Factory -----------------------------------------------------------------

runtime::RemoteLinkFactory reliable_link_factory(ReliableLinkConfig config) {
  return [config](sim::Network& network, sim::HostId from, sim::HostId to,
                  std::string tag, std::vector<core::DataSpec> capabilities) {
    auto egress =
        std::make_shared<ReliableEgress>(network, from, to, tag, config);
    auto ingress = std::make_shared<ReliableIngress>(
        network, to, from, tag, std::move(capabilities));
    ReliableEgress* egress_ptr = egress.get();
    ReliableIngress* ingress_ptr = ingress.get();
    runtime::RemoteLinkEndpoints link;
    link.egress = std::move(egress);
    link.ingress = std::move(ingress);
    link.deliver_at_to = [ingress_ptr](const std::string& rest) {
      ingress_ptr->deliver(rest);
    };
    link.deliver_at_from = [egress_ptr](const std::string& rest) {
      egress_ptr->handle_ack(rest);
    };
    return link;
  };
}

}  // namespace perpos::health
