#include "perpos/core/watchdog.hpp"

#include <stdexcept>

namespace perpos::core {

Watchdog::Watchdog(ProcessingGraph& graph, sim::Scheduler& scheduler,
                   WatchdogConfig config)
    : graph_(graph),
      scheduler_(scheduler),
      config_(config),
      metrics_source_(graph.add_metrics_source(
          [this](obs::MetricsSnapshot& out) { collect(out); })) {}

Watchdog::~Watchdog() { stop(); }

void Watchdog::watch(ComponentId source) {
  if (!graph_.has(source)) {
    throw std::invalid_argument("watch: unknown component");
  }
  if (watched_.contains(source)) return;
  Watched w;
  w.last_emitted = graph_.emitted(source);
  w.last_activity = scheduler_.now();
  w.last_failures = graph_.failures(source);
  w.label = std::string(graph_.component(source).kind()) + "#" +
            std::to_string(source);
  const std::lock_guard<std::mutex> lock(mutex_);
  watched_.emplace(source, std::move(w));
}

void Watchdog::unwatch(ComponentId source) {
  const std::lock_guard<std::mutex> lock(mutex_);
  watched_.erase(source);
}

bool Watchdog::watches(ComponentId source) const {
  return find_state(source).has_value();
}

std::vector<ComponentId> Watchdog::watched() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<ComponentId> out;
  out.reserve(watched_.size());
  for (const auto& [id, w] : watched_) out.push_back(id);
  return out;
}

void Watchdog::start() {
  if (running_) return;
  running_ = true;
  schedule_next();
}

void Watchdog::stop() {
  if (!running_) return;
  running_ = false;
  scheduler_.cancel(pending_check_);
  pending_check_ = 0;
}

void Watchdog::schedule_next() {
  pending_check_ = scheduler_.schedule_after(config_.check_interval, [this] {
    if (!running_) return;
    check_now();
    schedule_next();
  });
}

void Watchdog::check_now() {
  const sim::SimTime now = scheduler_.now();
  const double interval_s = config_.check_interval.seconds();
  for (auto& [id, w] : watched_) {
    if (!graph_.has(id)) {
      set_state(id, w, HealthState::kDead, now);
      continue;
    }
    const std::uint64_t emitted = graph_.emitted(id);
    if (emitted > w.last_emitted) {
      w.last_emitted = emitted;
      w.last_activity = now;
    }
    const double silence_s = (now - w.last_activity).seconds();
    HealthState next = HealthState::kHealthy;
    if (silence_s >= config_.dead_after_s) {
      next = HealthState::kDead;
    } else if (silence_s >= config_.stale_after_s) {
      next = HealthState::kStale;
    } else if (silence_s >= config_.degraded_after_s) {
      next = HealthState::kDegraded;
    }
    // The baseline advances on every check, so failures reported while the
    // source was silent are billed to the interval they happened in, not
    // to the first check after it resumes.
    const std::uint64_t failures = graph_.failures(id);
    const double rate =
        interval_s > 0.0
            ? static_cast<double>(failures - w.last_failures) / interval_s
            : 0.0;
    w.last_failures = failures;
    if (next == HealthState::kHealthy &&
        rate > config_.failure_rate_threshold_hz) {
      next = HealthState::kDegraded;
    }
    set_state(id, w, next, now);
  }
}

void Watchdog::set_state(ComponentId id, Watched& w, HealthState next,
                         sim::SimTime now) {
  if (next == w.state) return;
  const HealthState from = w.state;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    w.state = next;
    w.last_transition = now;
  }
  ++transitions_;
  if (obs::MetricsRegistry* registry = graph_.metrics_registry()) {
    registry
        ->counter("perpos_health_transitions_total",
                  {{"from", std::string(to_string(from))},
                   {"source", w.label},
                   {"to", std::string(to_string(next))}})
        ->inc();
  }
  for (const auto& [token, listener] : listeners_) {
    listener(id, from, next, now);
  }
}

void Watchdog::collect(obs::MetricsSnapshot& out) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [id, w] : watched_) {
    // The numeric state, so dashboards can plot state over time without
    // string parsing.
    out.gauges.push_back({"perpos_health_state",
                          {{"source", w.label}},
                          static_cast<double>(static_cast<int>(w.state))});
  }
}

HealthState Watchdog::state(ComponentId source) const {
  if (const auto s = find_state(source)) return *s;
  throw std::invalid_argument("state: component not watched");
}

std::optional<HealthState> Watchdog::find_state(ComponentId source) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = watched_.find(source);
  if (it == watched_.end()) return std::nullopt;
  return it->second.state;
}

sim::SimTime Watchdog::last_transition(ComponentId source) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = watched_.find(source);
  if (it == watched_.end()) {
    throw std::invalid_argument("last_transition: component not watched");
  }
  return it->second.last_transition;
}

std::size_t Watchdog::add_listener(Listener listener) {
  const std::size_t token = next_listener_token_++;
  listeners_.emplace_back(token, std::move(listener));
  return token;
}

void Watchdog::remove_listener(std::size_t token) {
  std::erase_if(listeners_,
                [token](const auto& entry) { return entry.first == token; });
}

}  // namespace perpos::core
