#pragma once

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/core/health_state.hpp"
#include "perpos/core/watchdog.hpp"
#include "perpos/geo/distance.hpp"
#include "perpos/obs/introspection.hpp"
#include "perpos/sim/scheduler.hpp"

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

/// \file positioning.hpp
/// The Positioning Layer (paper Sec. 2.3) — the traditional high-level
/// positioning API on top of the reified process. Structured after the
/// J2ME Location API (JSR-179): applications request a location provider
/// matching a set of criteria and obtain position data through it, with
/// both push and pull semantics, plus tracked targets and location-related
/// notifications (proximity, k-nearest).
///
/// What distinguishes PerPos at this level is that middleware adaptations
/// remain accessible: all Channel Features are visible through the
/// provider, and the logical-timing machinery couples the high-level
/// position to the low-level details that produced it (feature(fix)).

namespace perpos::core {

/// JSR-179-style provider selection criteria.
struct Criteria {
  /// Required data type delivered to the application; defaults to
  /// PositionFix. RoomFix providers are requested with
  /// Criteria::for_type<RoomFix>().
  const TypeInfo* required_type = type_of<PositionFix>();

  /// Technology label ("GPS", "WiFi", ...); empty accepts any.
  std::string technology;

  /// Maximum acceptable typical horizontal error in metres; unset accepts
  /// any. Matched against advertised accuracy, not per-fix accuracy.
  std::optional<double> horizontal_accuracy_m;

  enum class Power { kAny, kLow, kMedium, kHigh };
  /// Maximum acceptable power consumption class.
  Power max_power = Power::kAny;

  template <typename T>
  static Criteria for_type() {
    Criteria c;
    c.required_type = type_of<T>();
    return c;
  }
};

/// What a position-producing component advertises to provider selection.
struct ProviderAdvertisement {
  std::string technology;
  double typical_accuracy_m = 10.0;
  Criteria::Power power = Criteria::Power::kMedium;
};

using SubscriptionId = std::uint64_t;

class PositioningService;

/// A handle through which an application receives position-based data in a
/// technology-transparent way. Owns an ApplicationSink node in the graph.
class LocationProvider {
 public:
  using FixListener = std::function<void(const PositionFix&, const Sample&)>;
  using SampleListener = std::function<void(const Sample&)>;
  using ProximityListener = std::function<void(bool inside, const PositionFix&)>;

  /// Pull: the most recent PositionFix delivered, if any.
  std::optional<PositionFix> last_position() const;

  /// Pull: the most recent sample of any type.
  std::optional<Sample> last_sample() const;

  /// Push: called for every PositionFix delivered.
  SubscriptionId add_listener(FixListener listener);

  /// Push: called for every sample of any type (RoomFix apps use this).
  SubscriptionId add_sample_listener(SampleListener listener);

  /// Proximity notification: fires with inside=true when a fix first falls
  /// within `radius_m` of `center`, and inside=false when it first leaves.
  SubscriptionId add_proximity_listener(geo::GeoPoint center, double radius_m,
                                        ProximityListener listener);

  void remove_listener(SubscriptionId id);

  /// Channels delivering into this provider (PCL access from the top
  /// layer). All their Channel Features are reachable from here — the
  /// paper's "ability to access middleware adaptations in the high-level
  /// interaction".
  std::vector<Channel*> channels() const;

  /// The Channel Feature of type F on any channel into this provider.
  template <typename F>
  F* feature() const {
    for (Channel* c : channels()) {
      if (F* f = c->get_feature<F>()) return f;
    }
    return nullptr;
  }

  /// Time-scoped variant: the feature state must correspond to exactly the
  /// channel output `sample` (Fig. 5's getFeature(position, Likelihood)).
  template <typename F>
  F* feature(const Sample& sample) const {
    for (Channel* c : channels()) {
      if (F* f = c->get_feature<F>(sample)) return f;
    }
    return nullptr;
  }

  /// The graph node backing this provider.
  ComponentId sink_id() const noexcept { return sink_id_; }
  /// The component request_provider connected the sink to: the source
  /// whose watchdog verdict failover reads for this provider.
  ComponentId producer_id() const noexcept { return producer_id_; }
  const ProviderAdvertisement& advertisement() const noexcept { return ad_; }

  // --- Provider-level observability ---------------------------------------

  /// PositionFixes delivered to this provider since creation.
  std::uint64_t fixes() const noexcept { return fix_count_.get(); }

  /// Average fix rate in Hz over the observed fix interval; 0 until two
  /// fixes have arrived.
  double fix_rate_hz() const noexcept;

  /// Seconds since the last fix at simulation time `now`; +infinity when
  /// no fix has ever arrived.
  double staleness_s(sim::SimTime now) const noexcept;

  /// "<technology>#<sink id>" — the label naming this provider's metric
  /// series (see PositioningService: read at scrape time).
  std::string metric_label() const;

 private:
  friend class PositioningService;
  LocationProvider(PositioningService* service, ComponentId producer_id,
                   ComponentId sink_id, ApplicationSink* sink,
                   ProviderAdvertisement ad)
      : service_(service),
        producer_id_(producer_id),
        sink_id_(sink_id),
        sink_(sink),
        ad_(std::move(ad)) {}

  void on_sample(const Sample& sample);

  struct Proximity {
    geo::GeoPoint center;
    double radius_m;
    ProximityListener listener;
    bool inside = false;
  };

  PositioningService* service_;
  ComponentId producer_id_;
  ComponentId sink_id_;
  ApplicationSink* sink_;
  ProviderAdvertisement ad_;
  SubscriptionId next_subscription_ = 1;
  std::map<SubscriptionId, FixListener> fix_listeners_;
  std::map<SubscriptionId, SampleListener> sample_listeners_;
  std::map<SubscriptionId, Proximity> proximity_listeners_;
  std::optional<PositionFix> last_fix_;
  // Read by a scrape on any thread: the fix count and the validity times
  // (ns) of the first and latest fix, meaningful once the count is > 0.
  obs::Tally fix_count_;
  std::atomic<std::int64_t> first_fix_ns_{0};
  std::atomic<std::int64_t> last_fix_ns_{0};
};

/// A tracked entity which may have several position providers attached
/// (paper Sec. 2.3: "definition of tracked targets, which may have several
/// sensors attached to them").
class Target {
 public:
  explicit Target(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }
  void attach_provider(LocationProvider& provider) {
    providers_.push_back(&provider);
  }
  const std::vector<LocationProvider*>& providers() const noexcept {
    return providers_;
  }

  /// Newest fix across all attached providers.
  std::optional<PositionFix> last_position() const;

  /// The provider failover currently routes this target through; nullptr
  /// until PositioningService::enable_failover() selects one. Under
  /// failover this switches away from an unhealthy provider and back (with
  /// hysteresis) when the preferred one recovers.
  LocationProvider* active_provider() const noexcept { return active_; }

  /// The active provider's most recent fix — possibly a degraded-accuracy
  /// fix from a fallback technology, which is the point: a worse position
  /// beats silence. Falls back to last_position() when failover has not
  /// selected a provider.
  std::optional<PositionFix> current_position() const;

 private:
  friend class PositioningService;
  std::string name_;
  std::vector<LocationProvider*> providers_;
  LocationProvider* active_ = nullptr;
};

/// Failover policy (Positioning Layer). The health verdict itself is the
/// watchdog's (see enable_failover); the policy adds only the hysteresis:
/// after failing over, the target fails back once the preferred provider
/// has stayed kHealthy for `hold_s`, so a flickering source does not cause
/// flapping.
struct FailoverConfig {
  double hold_s = 5.0;  ///< Recovery must hold this long before failing back.
};

/// The Positioning Layer facade: provider selection, targets and
/// location-related queries over one processing graph.
class PositioningService {
 public:
  PositioningService(ProcessingGraph& graph, ChannelManager& channels);
  ~PositioningService();

  PositioningService(const PositioningService&) = delete;
  PositioningService& operator=(const PositioningService&) = delete;

  /// Advertise a component as a selectable position source. Assembly code
  /// (or the runtime resolver) registers advertisements; request_provider
  /// matches criteria against them. Components producing the required type
  /// but lacking an advertisement are matched with default advertisement
  /// values.
  void advertise(ComponentId producer, ProviderAdvertisement ad);

  /// Request a provider matching `criteria`; connects a new application
  /// sink to the best matching producer (lowest advertised accuracy among
  /// matches). Throws std::runtime_error when nothing matches.
  LocationProvider& request_provider(const Criteria& criteria);

  /// All providers created so far.
  const std::vector<std::unique_ptr<LocationProvider>>& providers() const {
    return providers_;
  }

  /// Create a tracked target.
  Target& create_target(std::string name);

  /// Targets sorted by distance to `point`, nearest first, at most k.
  /// Targets without any fix are excluded.
  std::vector<std::pair<Target*, double>> k_nearest(const geo::GeoPoint& point,
                                                    std::size_t k);

  // The service is a metrics source of its graph, read at scrape: the
  // perpos_service_{providers,targets} gauges and per provider the
  // perpos_provider_{fixes,samples}_total counts (its fixes; the graph's
  // delivered count for its sink), the fix_rate_hz, staleness_seconds
  // (graph clock; -1 before a fix) and advertised_accuracy_m gauges and,
  // while failover is on, the watchdog's perpos_provider_health verdict.

  /// The service's slice of a perpos-top snapshot: graph delivery totals
  /// and per-component self-time (from the metrics registry, when
  /// observability is on) plus, while failover is enabled, one
  /// "provider=health" line per provider. With failover off there is no
  /// verdict, so the snapshot lists no health lines. `name` labels the
  /// graph in the dashboard.
  obs::GraphIntrospection introspect(const std::string& name = "graph",
                                     std::size_t top_k = 5) const;

  // --- Failover (fault tolerance at the Positioning Layer) ----------------
  //
  // With failover enabled, every tracked target with attached providers is
  // supervised: when the watchdog judges its active provider's producer
  // kStale or worse, the target re-resolves to the next-best provider whose
  // producer is better than kStale, by advertised accuracy — degraded fixes
  // instead of silence — and fails back to the preferred provider once its
  // producer has stayed kHealthy for the hysteresis hold. Transitions are
  // published as perpos_failover_transitions_total{target,from,to} when
  // observability is on.

  using FailoverListener = std::function<void(
      Target& target, LocationProvider* from, LocationProvider* to,
      sim::SimTime when)>;

  /// Start (or reconfigure) supervised failover on `watchdog`'s verdicts.
  /// The watchdog must supervise this service's graph; every provider's
  /// producer is watched (now and as providers are requested), the
  /// watchdog is started, and the failover check runs on its scheduler
  /// every check_interval. `watchdog` must outlive the service (or
  /// disable_failover() must be called first).
  void enable_failover(Watchdog& watchdog, FailoverConfig config = {});

  /// Stop the periodic checks; targets keep their current active provider.
  /// The watchdog keeps running and watching.
  void disable_failover();

  bool failover_enabled() const noexcept { return watchdog_ != nullptr; }
  const FailoverConfig& failover_config() const noexcept {
    return failover_config_;
  }

  /// The watchdog's verdict for the provider's producer: kDead when the
  /// producer is not watched (it was removed before failover was enabled,
  /// or someone unwatched it). Throws std::logic_error while failover is
  /// off: there is no verdict to read.
  HealthState provider_health(const LocationProvider& provider) const;

  /// Called on every failover / fail-back transition of any target.
  SubscriptionId add_failover_listener(FailoverListener listener);
  void remove_failover_listener(SubscriptionId id);

  /// Total failover + fail-back transitions across all targets.
  std::uint64_t failover_transitions() const noexcept {
    return failover_transitions_;
  }

  /// One supervision pass (normally scheduler-driven; public so tests and
  /// clockless embeddings can step it manually).
  void failover_check();

  /// Route asynchronous service work (currently: scheduled failover
  /// checks) through `executor` instead of running it on the scheduler's
  /// thread. This is the execution-engine seam: pass the lane executor of
  /// the graph this service fronts (exec::ExecutionEngine::executor) and
  /// supervision runs serialized with the graph's sample flow. Pass
  /// nullptr to go back to inline execution. The core layer only depends
  /// on std::function here, not on perpos::exec.
  void set_executor(std::function<void(std::function<void()>)> executor);

  ProcessingGraph& graph() noexcept { return graph_; }
  ChannelManager& channels() noexcept { return channels_; }

 private:
  friend class LocationProvider;

  LocationProvider* preferred_provider(const Target& target) const;
  /// Scrape time, any thread: the service and provider series.
  void collect(obs::MetricsSnapshot& out) const;
  void switch_active(Target& target, LocationProvider* to, sim::SimTime now);
  void schedule_failover_check();

  ProcessingGraph& graph_;
  ChannelManager& channels_;
  std::map<ComponentId, ProviderAdvertisement> advertisements_;
  std::vector<std::unique_ptr<LocationProvider>> providers_;
  std::vector<std::unique_ptr<Target>> targets_;

  Watchdog* watchdog_ = nullptr;  ///< Non-null while failover is enabled.
  std::function<void(std::function<void()>)> executor_;
  FailoverConfig failover_config_;
  sim::Scheduler::EventId failover_event_ = 0;
  /// Per-target time since which the preferred provider has been
  /// continuously kHealthy (hysteresis state).
  std::map<const Target*, std::optional<sim::SimTime>> recovery_since_;
  std::map<SubscriptionId, FailoverListener> failover_listeners_;
  SubscriptionId next_failover_subscription_ = 1;
  std::uint64_t failover_transitions_ = 0;
  /// Guards what a scrape reads besides the providers' own atomics: the
  /// provider and target lists and watchdog_. Written on the service's
  /// thread, which reads them without it.
  mutable std::mutex metrics_mutex_;
  /// Released first (declared last), so no scrape outlives the service.
  obs::CollectorHandle metrics_source_;
};

}  // namespace perpos::core
