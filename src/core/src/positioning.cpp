#include "perpos/core/positioning.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace perpos::core {

// --- LocationProvider --------------------------------------------------------

std::optional<PositionFix> LocationProvider::last_position() const {
  return last_fix_;
}

std::optional<Sample> LocationProvider::last_sample() const {
  return sink_->last();
}

SubscriptionId LocationProvider::add_listener(FixListener listener) {
  const SubscriptionId id = next_subscription_++;
  fix_listeners_.emplace(id, std::move(listener));
  return id;
}

SubscriptionId LocationProvider::add_sample_listener(SampleListener listener) {
  const SubscriptionId id = next_subscription_++;
  sample_listeners_.emplace(id, std::move(listener));
  return id;
}

SubscriptionId LocationProvider::add_proximity_listener(
    geo::GeoPoint center, double radius_m, ProximityListener listener) {
  const SubscriptionId id = next_subscription_++;
  proximity_listeners_.emplace(
      id, Proximity{center, radius_m, std::move(listener), false});
  return id;
}

void LocationProvider::remove_listener(SubscriptionId id) {
  fix_listeners_.erase(id);
  sample_listeners_.erase(id);
  proximity_listeners_.erase(id);
}

std::vector<Channel*> LocationProvider::channels() const {
  return service_->channels_.channels_into(sink_id_);
}

double LocationProvider::fix_rate_hz() const noexcept {
  const std::uint64_t fixes = fix_count_.get();
  if (fixes < 2) return 0.0;
  const double span_s =
      sim::SimTime{last_fix_ns_.load(std::memory_order_relaxed) -
                   first_fix_ns_.load(std::memory_order_relaxed)}
          .seconds();
  if (span_s <= 0.0) return 0.0;
  return static_cast<double>(fixes - 1) / span_s;
}

double LocationProvider::staleness_s(sim::SimTime now) const noexcept {
  if (fix_count_.get() == 0) return std::numeric_limits<double>::infinity();
  const sim::SimTime last{last_fix_ns_.load(std::memory_order_relaxed)};
  return std::max(0.0, (now - last).seconds());
}

std::string LocationProvider::metric_label() const {
  return ad_.technology + "#" + std::to_string(sink_id_);
}

void LocationProvider::on_sample(const Sample& sample) {
  for (const auto& [id, listener] : sample_listeners_) listener(sample);

  const PositionFix* fix = sample.payload.get<PositionFix>();
  if (fix == nullptr) return;
  last_fix_ = *fix;
  // Rate/staleness are measured on the fix's own validity time, not the
  // delivery time: the two coincide under a live clock, but a clockless
  // graph (tests, replays) still timestamps its fixes.
  if (fix_count_.get() == 0) {
    first_fix_ns_.store(fix->timestamp.ns, std::memory_order_relaxed);
  }
  last_fix_ns_.store(fix->timestamp.ns, std::memory_order_relaxed);
  fix_count_.add();
  for (const auto& [id, listener] : fix_listeners_) listener(*fix, sample);
  for (auto& [id, prox] : proximity_listeners_) {
    const bool inside =
        geo::haversine_m(fix->position, prox.center) <= prox.radius_m;
    if (inside != prox.inside) {
      prox.inside = inside;
      prox.listener(inside, *fix);
    }
  }
}

// --- Target -------------------------------------------------------------------

std::optional<PositionFix> Target::last_position() const {
  std::optional<PositionFix> best;
  for (const LocationProvider* p : providers_) {
    const auto fix = p->last_position();
    if (!fix) continue;
    if (!best || fix->timestamp > best->timestamp) best = fix;
  }
  return best;
}

std::optional<PositionFix> Target::current_position() const {
  if (active_ != nullptr) {
    if (auto fix = active_->last_position()) return fix;
  }
  return last_position();
}

// --- PositioningService --------------------------------------------------------

PositioningService::PositioningService(ProcessingGraph& graph,
                                       ChannelManager& channels)
    : graph_(graph),
      channels_(channels),
      metrics_source_(graph.add_metrics_source(
          [this](obs::MetricsSnapshot& out) { collect(out); })) {}

PositioningService::~PositioningService() { disable_failover(); }

void PositioningService::advertise(ComponentId producer,
                                   ProviderAdvertisement ad) {
  if (!graph_.has(producer)) {
    throw std::invalid_argument("advertise: unknown component");
  }
  advertisements_[producer] = std::move(ad);
}

LocationProvider& PositioningService::request_provider(
    const Criteria& criteria) {
  // Candidates: components whose own output capabilities include the
  // required type (feature-added data needs explicit consumer declarations
  // and is not provider material).
  ComponentId best = kInvalidComponent;
  double best_accuracy = std::numeric_limits<double>::infinity();
  ProviderAdvertisement best_ad;

  for (ComponentId id : graph_.components()) {
    const auto caps = graph_.component(id).output_capabilities();
    const bool produces =
        std::any_of(caps.begin(), caps.end(), [&](const DataSpec& c) {
          return c.type == criteria.required_type && c.feature_tag.empty();
        });
    if (!produces) continue;

    ProviderAdvertisement ad;
    if (const auto it = advertisements_.find(id); it != advertisements_.end()) {
      ad = it->second;
    } else {
      ad.technology = std::string(graph_.component(id).kind());
    }
    if (!criteria.technology.empty() && ad.technology != criteria.technology) {
      continue;
    }
    if (criteria.horizontal_accuracy_m &&
        ad.typical_accuracy_m > *criteria.horizontal_accuracy_m) {
      continue;
    }
    if (criteria.max_power != Criteria::Power::kAny &&
        static_cast<int>(ad.power) > static_cast<int>(criteria.max_power)) {
      continue;
    }
    if (ad.typical_accuracy_m < best_accuracy) {
      best = id;
      best_accuracy = ad.typical_accuracy_m;
      best_ad = ad;
    }
  }

  if (best == kInvalidComponent) {
    throw std::runtime_error(
        "request_provider: no component matches the criteria");
  }

  auto sink = std::make_shared<ApplicationSink>("LocationProvider");
  ApplicationSink* sink_ptr = sink.get();
  const ComponentId sink_id = graph_.add(std::move(sink));
  graph_.connect(best, sink_id);

  auto provider = std::unique_ptr<LocationProvider>(new LocationProvider(
      this, best, sink_id, sink_ptr, std::move(best_ad)));
  LocationProvider* raw = provider.get();
  sink_ptr->set_callback([raw](const Sample& s) { raw->on_sample(s); });
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    providers_.push_back(std::move(provider));
  }
  if (watchdog_ != nullptr) watchdog_->watch(best);
  return *raw;
}

Target& PositioningService::create_target(std::string name) {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  targets_.push_back(std::make_unique<Target>(std::move(name)));
  return *targets_.back();
}

void PositioningService::collect(obs::MetricsSnapshot& out) const {
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  const sim::SimTime now =
      graph_.clock() != nullptr ? graph_.clock()->now() : sim::SimTime::zero();
  out.gauges.push_back({"perpos_service_providers", {},
                        static_cast<double>(providers_.size())});
  out.gauges.push_back(
      {"perpos_service_targets", {}, static_cast<double>(targets_.size())});
  for (const auto& p : providers_) {
    const obs::Labels labels{{"provider", p->metric_label()}};
    // The sink's delivered count, from the graph's own series (all kinds
    // the sink id has had), already in `out`.
    const std::string sink = std::to_string(p->sink_id());
    std::uint64_t samples = 0;
    for (const obs::CounterSnapshot& c : out.counters) {
      if (c.name == "perpos_component_delivered_total" &&
          c.labels.front().second == sink) {
        samples += c.value;
      }
    }
    out.counters.push_back({"perpos_provider_samples_total", labels, samples});
    out.counters.push_back({"perpos_provider_fixes_total", labels, p->fixes()});
    out.gauges.push_back({"perpos_provider_fix_rate_hz", labels,
                          p->fix_rate_hz()});
    // A provider that never delivered reports a negative staleness gauge
    // rather than +Inf, which serialises poorly in most scrapers.
    const double staleness = p->staleness_s(now);
    out.gauges.push_back({"perpos_provider_staleness_seconds", labels,
                          std::isinf(staleness) ? -1.0 : staleness});
    out.gauges.push_back({"perpos_provider_advertised_accuracy_m", labels,
                          p->advertisement().typical_accuracy_m});
    if (watchdog_ != nullptr) {
      out.gauges.push_back({"perpos_provider_health", labels,
                            static_cast<double>(provider_health(*p))});
    }
  }
}

// --- Failover ----------------------------------------------------------------

void PositioningService::enable_failover(Watchdog& watchdog,
                                         FailoverConfig config) {
  disable_failover();
  {
    const std::lock_guard<std::mutex> lock(metrics_mutex_);
    watchdog_ = &watchdog;
  }
  failover_config_ = config;
  for (const auto& p : providers_) {
    if (graph_.has(p->producer_id())) watchdog.watch(p->producer_id());
  }
  watchdog.start();
  // Route every target through its preferred provider from the start, so
  // current_position() has a well-defined source before the first check.
  for (const auto& t : targets_) {
    if (t->active_ == nullptr) t->active_ = preferred_provider(*t);
  }
  schedule_failover_check();
}

void PositioningService::disable_failover() {
  if (watchdog_ != nullptr && failover_event_ != 0) {
    watchdog_->scheduler().cancel(failover_event_);
  }
  failover_event_ = 0;
  const std::lock_guard<std::mutex> lock(metrics_mutex_);
  watchdog_ = nullptr;
}

void PositioningService::schedule_failover_check() {
  failover_event_ = watchdog_->scheduler().schedule_after(
      watchdog_->config().check_interval, [this] {
        failover_event_ = 0;
        // The check touches graph/provider state, so under an execution
        // engine it must run on this service's lane, not on the thread
        // driving the scheduler.
        if (executor_) {
          executor_([this] { failover_check(); });
        } else {
          failover_check();
        }
        if (watchdog_ != nullptr) schedule_failover_check();
      });
}

void PositioningService::set_executor(
    std::function<void(std::function<void()>)> executor) {
  executor_ = std::move(executor);
}

HealthState PositioningService::provider_health(
    const LocationProvider& provider) const {
  if (watchdog_ == nullptr) {
    throw std::logic_error("provider_health: failover is off, no verdict");
  }
  return watchdog_->find_state(provider.producer_id())
      .value_or(HealthState::kDead);
}

LocationProvider* PositioningService::preferred_provider(
    const Target& target) const {
  LocationProvider* best = nullptr;
  for (LocationProvider* p : target.providers()) {
    if (best == nullptr ||
        p->advertisement().typical_accuracy_m <
            best->advertisement().typical_accuracy_m) {
      best = p;
    }
  }
  return best;
}

SubscriptionId PositioningService::add_failover_listener(
    FailoverListener listener) {
  const SubscriptionId id = next_failover_subscription_++;
  failover_listeners_.emplace(id, std::move(listener));
  return id;
}

void PositioningService::remove_failover_listener(SubscriptionId id) {
  failover_listeners_.erase(id);
}

void PositioningService::switch_active(Target& target, LocationProvider* to,
                                       sim::SimTime now) {
  LocationProvider* from = target.active_;
  target.active_ = to;
  ++failover_transitions_;
  if (obs::MetricsRegistry* registry = graph_.metrics_registry()) {
    registry
        ->counter("perpos_failover_transitions_total",
                  {{"target", target.name()},
                   {"from", from != nullptr ? from->advertisement().technology
                                            : std::string("none")},
                   {"to", to != nullptr ? to->advertisement().technology
                                        : std::string("none")}})
        ->inc();
  }
  // Black box: the transition lands next to the graph's own emit/deliver
  // events, so a post-mortem dump shows what the pipeline was doing when
  // the provider died.
  {
    std::string detail = target.name();
    detail += ": ";
    detail += from != nullptr ? from->advertisement().technology
                              : std::string("none");
    detail += " -> ";
    detail +=
        to != nullptr ? to->advertisement().technology : std::string("none");
    graph_.record_event(obs::FlightEventType::kFailover,
                        to != nullptr ? to->sink_id() : kInvalidComponent,
                        static_cast<std::uint64_t>(now.ns), 0, detail);
  }
  for (const auto& [id, listener] : failover_listeners_) {
    listener(target, from, to, now);
  }
}

void PositioningService::failover_check() {
  if (watchdog_ == nullptr) return;
  const sim::SimTime now = watchdog_->scheduler().now();

  for (const auto& t : targets_) {
    if (t->providers().empty()) continue;
    LocationProvider* preferred = preferred_provider(*t);
    if (t->active_ == nullptr) t->active_ = preferred;
    LocationProvider* active = t->active_;
    auto& recovery = recovery_since_[t.get()];

    if (provider_health(*active) >= HealthState::kStale) {
      // The active provider's producer is stale or dead: re-resolve to the
      // best healthy-enough alternative by advertised accuracy. If every
      // alternative is worse than the failed one, so be it — a degraded
      // fix beats silence.
      LocationProvider* candidate = nullptr;
      for (LocationProvider* p : t->providers()) {
        if (p == active) continue;
        if (provider_health(*p) >= HealthState::kStale) continue;
        if (candidate == nullptr ||
            p->advertisement().typical_accuracy_m <
                candidate->advertisement().typical_accuracy_m) {
          candidate = p;
        }
      }
      if (candidate != nullptr) {
        switch_active(*t, candidate, now);
        recovery.reset();
      }
    } else if (active != preferred && preferred != nullptr &&
               provider_health(*preferred) == HealthState::kHealthy) {
      // Preferred provider is healthy again (silence and failure rate);
      // fail back only after it has stayed that way for the hysteresis
      // hold.
      if (!recovery) {
        recovery = now;
      } else if ((now - *recovery).seconds() >= failover_config_.hold_s) {
        switch_active(*t, preferred, now);
        recovery.reset();
      }
    } else {
      recovery.reset();
    }
  }
}

obs::GraphIntrospection PositioningService::introspect(
    const std::string& name, std::size_t top_k) const {
  obs::GraphIntrospection out;
  if (graph_.observability_enabled()) {
    out = obs::graph_introspection(name, graph_.metrics(), top_k);
  } else {
    out.name = name;
  }
  if (!failover_enabled()) return out;
  for (const auto& p : providers_) {
    std::string line = p->metric_label();
    line += '=';
    line += to_string(provider_health(*p));
    out.health.push_back(std::move(line));
  }
  return out;
}

std::vector<std::pair<Target*, double>> PositioningService::k_nearest(
    const geo::GeoPoint& point, std::size_t k) {
  std::vector<std::pair<Target*, double>> out;
  for (const auto& t : targets_) {
    const auto fix = t->last_position();
    if (!fix) continue;
    out.emplace_back(t.get(), geo::haversine_m(point, fix->position));
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second < b.second; });
  if (out.size() > k) out.resize(k);
  return out;
}

}  // namespace perpos::core
