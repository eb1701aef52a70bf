// Health subsystem tests: watchdog state derivation at the PSL, reliable
// remoting under loss, the Health channel feature at the PCL, and
// criteria-driven provider failover at the PL — plus the chaos end-to-end
// property test combining all failure modes, and scrapes racing an engine
// lane that drives all of them (run under TSan in CI).

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/failure_events.hpp"
#include "perpos/core/health_state.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/core/watchdog.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/geo/distance.hpp"
#include "perpos/health/health_feature.hpp"
#include "perpos/health/reliable_link.hpp"
#include "perpos/health/settings.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/runtime/distribution.hpp"
#include "perpos/sensors/failure_injection.hpp"
#include "perpos/sensors/gps_sensor.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/sensors/wifi_scanner.hpp"
#include "perpos/sim/network.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/fingerprint.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace core = perpos::core;
namespace geo = perpos::geo;
namespace sim = perpos::sim;
namespace lm = perpos::locmodel;
namespace wifi = perpos::wifi;
namespace sensors = perpos::sensors;
namespace health = perpos::health;
namespace rt = perpos::runtime;

using core::HealthState;

// --- Watchdog (PSL) ----------------------------------------------------------

namespace {

struct WatchdogRig {
  WatchdogRig() : graph(&scheduler.clock()) {
    source = std::make_shared<core::SourceComponent>(
        "TestSource",
        std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
    sink = std::make_shared<core::ApplicationSink>();
    source_id = graph.add(source);
    sink_id = graph.add(sink);
    graph.connect(source_id, sink_id);
  }

  /// Emit one fragment every second until `until_s`.
  void pump_until(double until_s) {
    const double now_s = scheduler.now().seconds();
    for (double t = now_s + 1.0; t <= until_s; t += 1.0) {
      scheduler.schedule_at(sim::SimTime::from_seconds(t), [this] {
        source->push(core::RawFragment{"tick"});
      });
    }
  }

  sim::Scheduler scheduler;
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  std::shared_ptr<core::ApplicationSink> sink;
  core::ComponentId source_id{}, sink_id{};
};

core::WatchdogConfig fast_watchdog() {
  core::WatchdogConfig cfg;
  cfg.check_interval = sim::SimTime::from_millis(500);
  cfg.degraded_after_s = 2.0;
  cfg.stale_after_s = 5.0;
  cfg.dead_after_s = 15.0;
  return cfg;
}

}  // namespace

TEST(Watchdog, WalksStatesAsSilenceGrows) {
  WatchdogRig rig;
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  dog.watch(rig.source_id);
  dog.start();

  std::vector<std::pair<HealthState, HealthState>> seen;
  dog.add_listener([&](core::ComponentId id, HealthState from, HealthState to,
                       sim::SimTime) {
    EXPECT_EQ(id, rig.source_id);
    seen.emplace_back(from, to);
  });

  rig.pump_until(10.0);
  rig.scheduler.run_until(sim::SimTime::from_seconds(10.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);

  // Silence from t=10: degraded at 12, stale at 15, dead at 25.
  rig.scheduler.run_until(sim::SimTime::from_seconds(13.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDegraded);
  rig.scheduler.run_until(sim::SimTime::from_seconds(16.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kStale);
  rig.scheduler.run_until(sim::SimTime::from_seconds(26.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDead);

  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0],
            std::make_pair(HealthState::kHealthy, HealthState::kDegraded));
  EXPECT_EQ(seen[1],
            std::make_pair(HealthState::kDegraded, HealthState::kStale));
  EXPECT_EQ(seen[2], std::make_pair(HealthState::kStale, HealthState::kDead));
  EXPECT_EQ(dog.transitions(), 3u);
  EXPECT_GE(dog.last_transition(rig.source_id).seconds(), 25.0);
}

TEST(Watchdog, RecoversWhenSamplesResume) {
  WatchdogRig rig;
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  dog.watch(rig.source_id);
  dog.start();

  rig.scheduler.run_until(sim::SimTime::from_seconds(6.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kStale);

  rig.pump_until(10.0);
  rig.scheduler.run_until(sim::SimTime::from_seconds(8.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
}

TEST(Watchdog, RemovedComponentIsDead) {
  WatchdogRig rig;
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  dog.watch(rig.source_id);
  rig.graph.remove(rig.source_id);
  dog.check_now();
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDead);
}

TEST(Watchdog, FailureRateDegradesEvenWhileSamplesFlow) {
  WatchdogRig rig;
  rig.graph.enable_observability();
  core::WatchdogConfig cfg = fast_watchdog();
  cfg.failure_rate_threshold_hz = 1.0;
  core::Watchdog dog(rig.graph, rig.scheduler, cfg);
  dog.watch(rig.source_id);
  dog.start();

  rig.pump_until(10.0);
  // A burst of failure events attributed to the source: well above 1 Hz.
  rig.scheduler.schedule_at(sim::SimTime::from_seconds(3.2), [&] {
    for (int i = 0; i < 10; ++i) {
      core::report_failure_event(&rig.graph, "TestSource", rig.source_id,
                                 "garbled");
    }
  });

  rig.scheduler.run_until(sim::SimTime::from_seconds(2.9));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
  rig.scheduler.run_until(sim::SimTime::from_seconds(3.6));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDegraded);
  // The burst is over; the rate falls back under the threshold.
  rig.scheduler.run_until(sim::SimTime::from_seconds(5.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
}

TEST(Watchdog, FailureRateDegradesWithoutObservability) {
  // The failure count lives in the graph, so the overlay needs no metrics
  // registry: the same burst as above, observability off.
  WatchdogRig rig;
  core::WatchdogConfig cfg = fast_watchdog();
  cfg.failure_rate_threshold_hz = 1.0;
  core::Watchdog dog(rig.graph, rig.scheduler, cfg);
  dog.watch(rig.source_id);
  dog.start();

  rig.pump_until(10.0);
  rig.scheduler.schedule_at(sim::SimTime::from_seconds(3.2), [&] {
    for (int i = 0; i < 10; ++i) {
      core::report_failure_event(&rig.graph, "TestSource", rig.source_id,
                                 "garbled");
    }
  });

  rig.scheduler.run_until(sim::SimTime::from_seconds(2.9));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
  rig.scheduler.run_until(sim::SimTime::from_seconds(3.6));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDegraded);
  EXPECT_EQ(rig.graph.failures(rig.source_id), 10u);
  rig.scheduler.run_until(sim::SimTime::from_seconds(5.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
}

TEST(Watchdog, FailuresAreBilledToTheIntervalTheyHappenedIn) {
  // A steady 2 Hz of failures under a 3 Hz threshold, through a silence:
  // once samples resume, the source is healthy again. Failures reported
  // while it was silent belong to those intervals, not to the first check
  // after it resumes.
  WatchdogRig rig;
  rig.graph.enable_observability();
  core::WatchdogConfig cfg = fast_watchdog();
  cfg.failure_rate_threshold_hz = 3.0;
  core::Watchdog dog(rig.graph, rig.scheduler, cfg);
  dog.watch(rig.source_id);
  dog.start();

  rig.pump_until(5.0);  // Silent from t=5 ...
  for (double t = 8.1; t <= 10.0; t += 0.2) {  // ... until 8.1, then 5 Hz.
    rig.scheduler.schedule_at(sim::SimTime::from_seconds(t), [&] {
      rig.source->push(core::RawFragment{"tick"});
    });
  }
  for (double t = 5.25; t <= 10.0; t += 0.5) {
    rig.scheduler.schedule_at(sim::SimTime::from_seconds(t), [&] {
      core::report_failure_event(&rig.graph, "TestSource", rig.source_id,
                                 "garbled");
    });
  }

  rig.scheduler.run_until(sim::SimTime::from_seconds(6.4));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
  rig.scheduler.run_until(sim::SimTime::from_seconds(8.0));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kDegraded);  // Silent.
  rig.scheduler.run_until(sim::SimTime::from_seconds(8.6));
  EXPECT_EQ(dog.state(rig.source_id), HealthState::kHealthy);
}

TEST(Watchdog, PublishesStateAndTransitionsToRegistry) {
  WatchdogRig rig;
  rig.graph.enable_observability();
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  dog.watch(rig.source_id);
  dog.start();
  rig.scheduler.run_until(sim::SimTime::from_seconds(16.0));
  ASSERT_EQ(dog.state(rig.source_id), HealthState::kDead);

  const auto snap = rig.graph.metrics();
  const std::string label = "TestSource#" + std::to_string(rig.source_id);
  const auto* gauge = snap.find_gauge("perpos_health_state", "source", label);
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 3.0);  // kDead.
  const auto* transition =
      snap.find_counter("perpos_health_transitions_total", "source", label);
  ASSERT_NE(transition, nullptr);
  EXPECT_GE(transition->value, 1u);
}

// --- Reliable link (distributed PSL) -----------------------------------------

namespace {

/// The Fig. 1 GPS/NMEA pipeline split across a lossy device->server link.
struct DistributedRig {
  DistributedRig(bool reliable, double loss,
                 health::ReliableLinkConfig link_cfg = {})
      : frame(geo::GeoPoint{56.1697, 10.1994, 50.0}),
        trajectory(
            sensors::TrajectoryBuilder({0, 0}).walk_to({80, 0}, 1.4).build()),
        network(scheduler, random),
        graph(&scheduler.clock()),
        deployment(graph, network) {
    graph.enable_observability();
    sensors::GpsSensorConfig config;
    config.emit_gsa = false;
    sensor = std::make_shared<sensors::GpsSensor>(scheduler, random,
                                                  trajectory, frame, config);
    parser = std::make_shared<sensors::NmeaParser>();
    sink = std::make_shared<core::ApplicationSink>();
    sensor_id = graph.add(sensor);
    parser_id = graph.add(parser);
    interpreter_id = graph.add(std::make_shared<sensors::NmeaInterpreter>());
    sink_id = graph.add(sink);
    graph.connect(sensor_id, parser_id);
    graph.connect(parser_id, interpreter_id);
    graph.connect(interpreter_id, sink_id);

    device = deployment.add_host("device");
    server = deployment.add_host("server");
    network.set_link(device, server,
                     {sim::SimTime::from_millis(10), loss,
                      sim::SimTime::from_millis(2)});
    network.set_link(server, device,
                     {sim::SimTime::from_millis(10), loss,
                      sim::SimTime::from_millis(2)});
    deployment.assign(sensor_id, device);
    deployment.assign(parser_id, server);
    deployment.assign(interpreter_id, server);
    deployment.assign(sink_id, server);
    if (reliable) {
      deployment.set_link_factory(health::reliable_link_factory(link_cfg));
    }
    deployment.deploy();

    for (core::ComponentId id : graph.components()) {
      if (auto* e = graph.component_as<health::ReliableEgress>(id)) egress = e;
      if (auto* i = graph.component_as<health::ReliableIngress>(id)) {
        ingress = i;
      }
      if (auto* e = graph.component_as<rt::RemoteEgress>(id)) basic_egress = e;
      if (auto* i = graph.component_as<rt::RemoteIngress>(id)) {
        basic_ingress = i;
      }
    }
  }

  void run(double seconds) {
    sensor->start();
    scheduler.run_until(sim::SimTime::from_seconds(seconds));
    sensor->stop();
    scheduler.run_all();  // Drain in-flight deliveries and retransmissions.
  }

  // Note: network declared before graph so it outlives the graph — teardown
  // hooks (e.g. FlakyLink::flush) may emit into egress components that send.
  sim::Scheduler scheduler;
  sim::Random random{42};
  geo::LocalFrame frame;
  sensors::Trajectory trajectory;
  sim::Network network;
  core::ProcessingGraph graph;
  rt::DistributedDeployment deployment;
  sim::HostId device{}, server{};
  std::shared_ptr<sensors::GpsSensor> sensor;
  std::shared_ptr<sensors::NmeaParser> parser;
  std::shared_ptr<core::ApplicationSink> sink;
  core::ComponentId sensor_id{}, parser_id{}, interpreter_id{}, sink_id{};
  health::ReliableEgress* egress = nullptr;
  health::ReliableIngress* ingress = nullptr;
  rt::RemoteEgress* basic_egress = nullptr;
  rt::RemoteIngress* basic_ingress = nullptr;
};

}  // namespace

TEST(ReliableLink, DeliversEverythingWhereBaselineLoses) {
  DistributedRig reliable(/*reliable=*/true, /*loss=*/0.10);
  DistributedRig baseline(/*reliable=*/false, /*loss=*/0.10);
  reliable.run(60.0);
  baseline.run(60.0);

  // The unreliable baseline loses messages for good.
  ASSERT_NE(baseline.basic_egress, nullptr);
  ASSERT_NE(baseline.basic_ingress, nullptr);
  EXPECT_LT(baseline.basic_ingress->received(), baseline.basic_egress->sent());

  // The reliable link retransmits its way to 100% within the retry budget.
  ASSERT_NE(reliable.egress, nullptr);
  ASSERT_NE(reliable.ingress, nullptr);
  EXPECT_GT(reliable.egress->accepted(), 100u);
  EXPECT_EQ(reliable.ingress->received(), reliable.egress->accepted());
  EXPECT_GT(reliable.egress->retransmits(), 0u);
  EXPECT_EQ(reliable.egress->gave_up(), 0u);
  EXPECT_EQ(reliable.egress->inflight(), 0u);
  EXPECT_GT(reliable.sink->received(), baseline.sink->received());
}

TEST(ReliableLink, RetransmitsVisibleInMetricsRegistry) {
  DistributedRig rig(/*reliable=*/true, /*loss=*/0.10);
  rig.run(30.0);
  ASSERT_NE(rig.egress, nullptr);
  ASSERT_GT(rig.egress->retransmits(), 0u);

  const auto snap = rig.graph.metrics();
  const auto* sent = snap.find_counter("perpos_reliable_link_sent_total");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(sent->value, rig.egress->accepted());
  const auto* retr =
      snap.find_counter("perpos_reliable_link_retransmits_total");
  ASSERT_NE(retr, nullptr);
  EXPECT_EQ(retr->value, rig.egress->retransmits());
  const auto* acks = snap.find_counter("perpos_reliable_link_acks_total");
  ASSERT_NE(acks, nullptr);
  EXPECT_EQ(acks->value, rig.egress->acked());
}

TEST(ReliableLink, SuppressesDuplicatesWhenAcksAreLost) {
  // Forward path clean, ack path very lossy: the egress retransmits
  // already-delivered messages, which the ingress must swallow.
  DistributedRig rig(/*reliable=*/true, /*loss=*/0.0);
  rig.network.set_link(rig.server, rig.device,
                       {sim::SimTime::from_millis(10), /*loss=*/0.6, {}});
  rig.run(30.0);

  ASSERT_NE(rig.ingress, nullptr);
  EXPECT_GT(rig.ingress->duplicates(), 0u);
  // Exactly-once delivery downstream: every accepted message emitted once.
  EXPECT_EQ(rig.ingress->received(), rig.egress->accepted());
}

TEST(ReliableLink, GivesUpAfterRetryBudgetOnDeadLink) {
  health::ReliableLinkConfig cfg;
  cfg.max_retries = 2;
  cfg.ack_timeout = sim::SimTime::from_millis(50);
  DistributedRig rig(/*reliable=*/true, /*loss=*/1.0, cfg);
  rig.run(5.0);

  ASSERT_NE(rig.egress, nullptr);
  EXPECT_GT(rig.egress->accepted(), 0u);
  EXPECT_EQ(rig.egress->gave_up(), rig.egress->accepted());
  EXPECT_EQ(rig.egress->inflight(), 0u);
  EXPECT_EQ(rig.ingress->received(), 0u);

  const auto snap = rig.graph.metrics();
  const auto* giveups =
      snap.find_counter("perpos_reliable_link_giveups_total");
  ASSERT_NE(giveups, nullptr);
  EXPECT_EQ(giveups->value, rig.egress->gave_up());
  // Give-ups surface as failure events for the watchdog's rate signal.
  const auto* failures = snap.find_counter("perpos_failure_events_total",
                                           "event", "delivery_failed");
  ASSERT_NE(failures, nullptr);
  EXPECT_EQ(failures->value, rig.egress->gave_up());
}

TEST(ReliableLink, CountsUndecodableWire) {
  DistributedRig rig(/*reliable=*/true, /*loss=*/0.0);
  ASSERT_NE(rig.ingress, nullptr);
  rig.ingress->deliver("DATA 1 not-a-payload");
  rig.ingress->deliver("garbage with no protocol");
  EXPECT_EQ(rig.ingress->decode_failures(), 2u);
  EXPECT_EQ(rig.ingress->received(), 0u);
}

// --- Chaos end-to-end property test ------------------------------------------

TEST(Chaos, NmeaPipelineSurvivesAllFailureModesAtOnce) {
  // Drop + garble + duplicate + reorder on the serial stream, 10% message
  // loss on the host link in both directions, reliable remoting on top.
  // Property: nothing crashes, no corrupt fix is ever delivered, and the
  // application still sees a usable position stream.
  DistributedRig rig(/*reliable=*/true, /*loss=*/0.10);
  auto flaky = std::make_shared<sensors::FlakyLinkComponent>(
      sensors::FailureInjectionConfig{0.05, 0.05, 0.05, 0.05}, rig.random);
  const auto flaky_id = rig.graph.add(flaky);
  // Chaos on the device-side serial stream, before the host boundary: the
  // remoted edge replaced sensor->parser, so splice into sensor->egress.
  rig.graph.insert_between(flaky_id, rig.sensor_id,
                           rig.graph.info(rig.sensor_id).consumers.front());

  int implausible = 0;
  rig.sink->set_callback([&](const core::Sample& s) {
    const auto& fix = s.payload.as<core::PositionFix>();
    const double err =
        geo::haversine_m(fix.position, rig.sensor->truth_at(s.timestamp));
    if (err > 500.0) ++implausible;
  });

  EXPECT_NO_THROW(rig.run(90.0));

  EXPECT_GT(flaky->dropped(), 0u);
  EXPECT_GT(flaky->garbled(), 0u);
  EXPECT_GT(flaky->duplicated(), 0u);
  EXPECT_GT(flaky->reordered(), 0u);
  // The reliable link delivered every fragment the chaos let through.
  ASSERT_NE(rig.egress, nullptr);
  EXPECT_EQ(rig.ingress->received(), rig.egress->accepted());
  // Usable output despite everything; never a corrupt position.
  EXPECT_GT(rig.sink->received(), 10u);
  EXPECT_EQ(implausible, 0);
}

// --- HealthChannelFeature (PCL) ----------------------------------------------

TEST(HealthChannelFeature, ExposesWatchdogVerdictOnTheChannel) {
  WatchdogRig rig;
  core::ChannelManager channels(rig.graph);
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  dog.watch(rig.source_id);
  dog.start();

  core::Channel* channel = channels.channel_from_source(rig.source_id);
  ASSERT_NE(channel, nullptr);
  channels.attach_feature(
      *channel,
      std::make_shared<health::HealthChannelFeature>(dog, rig.source_id));

  rig.pump_until(10.0);
  rig.scheduler.run_until(sim::SimTime::from_seconds(10.0));

  channel = channels.channel_from_source(rig.source_id);
  ASSERT_NE(channel, nullptr);
  auto* feature = channel->get_feature<health::HealthChannelFeature>();
  ASSERT_NE(feature, nullptr);
  EXPECT_EQ(feature->verdict(), HealthState::kHealthy);
  EXPECT_TRUE(feature->healthy());
  EXPECT_GT(feature->outputs_seen(), 5u);

  // Source goes quiet; the channel-level verdict follows the watchdog,
  // and the transition time is queryable.
  rig.scheduler.run_until(sim::SimTime::from_seconds(20.0));
  EXPECT_GE(feature->verdict(), HealthState::kStale);
  EXPECT_FALSE(feature->healthy());
  EXPECT_GT(feature->last_transition().seconds(), 10.0);
}

TEST(HealthChannelFeature, UnwatchedSourceIsDead) {
  WatchdogRig rig;
  core::Watchdog dog(rig.graph, rig.scheduler, fast_watchdog());
  health::HealthChannelFeature feature(dog, rig.source_id);
  EXPECT_EQ(feature.verdict(), HealthState::kDead);
  EXPECT_EQ(feature.last_transition(), sim::SimTime::zero());
}

// --- Failover (PL) -----------------------------------------------------------

namespace {

/// Default deadlines (2/5/15 s, 0.5 s checks) plus a failure-rate overlay.
core::WatchdogConfig failover_watchdog() {
  core::WatchdogConfig cfg;
  cfg.failure_rate_threshold_hz = 1.0;
  return cfg;
}

/// Reports `n` failure events against `host` at `when`.
void schedule_failures(sim::Scheduler& scheduler, core::ProcessingGraph& graph,
                       core::ComponentId host, double when_s, int n) {
  scheduler.schedule_at(sim::SimTime::from_seconds(when_s), [&graph, host, n] {
    for (int i = 0; i < n; ++i) {
      core::report_failure_event(&graph, "Test", host, "garbled");
    }
  });
}

/// GPS (preferred, accurate) + WiFi (fallback) providers over the office
/// building, with a tracked target attached to both.
class FailoverFixture : public ::testing::Test {
 protected:
  FailoverFixture()
      : building(lm::make_office_building()),
        signal_model(wifi::office_access_points(), wifi::SignalModelConfig{},
                     &building),
        db(wifi::FingerprintDatabase::survey(signal_model, building, 2.0)),
        trajectory(sensors::office_walk()),
        graph(&scheduler.clock()),
        channels(graph),
        watchdog(graph, scheduler, failover_watchdog()),
        service(graph, channels) {
    graph.enable_observability();

    sensors::GpsSensorConfig config;
    config.emit_gsa = false;
    gps = std::make_shared<sensors::GpsSensor>(scheduler, random, trajectory,
                                               building.frame(), config);
    auto parser = std::make_shared<sensors::NmeaParser>();
    auto interpreter = std::make_shared<sensors::NmeaInterpreter>();
    const auto gid = graph.add(gps);
    const auto nid = graph.add(parser);
    const auto iid = graph.add(interpreter);
    graph.connect(gid, nid);
    graph.connect(nid, iid);
    service.advertise(iid, {"GPS", 4.0, core::Criteria::Power::kHigh});

    scanner = std::make_shared<sensors::WifiScanner>(
        scheduler, random, trajectory, signal_model,
        sim::SimTime::from_seconds(1.0));
    auto positioner = std::make_shared<wifi::WifiPositioner>(db);
    auto togeo = std::make_shared<wifi::LocalToGeoConverter>(building);
    const auto wid = graph.add(scanner);
    const auto pid = graph.add(positioner);
    const auto tid = graph.add(togeo);
    graph.connect(wid, pid);
    graph.connect(pid, tid);
    service.advertise(tid, {"WiFi", 8.0, core::Criteria::Power::kLow});

    core::Criteria gps_criteria;
    gps_criteria.technology = "GPS";
    gps_provider = &service.request_provider(gps_criteria);
    core::Criteria wifi_criteria;
    wifi_criteria.technology = "WiFi";
    wifi_provider = &service.request_provider(wifi_criteria);

    target = &service.create_target("user");
    target->attach_provider(*gps_provider);
    target->attach_provider(*wifi_provider);
  }

  lm::Building building;
  wifi::SignalModel signal_model;
  wifi::FingerprintDatabase db;
  sensors::Trajectory trajectory;
  sim::Scheduler scheduler;
  sim::Random random{42};
  core::ProcessingGraph graph;
  core::ChannelManager channels;
  core::Watchdog watchdog;  ///< Outlives the service that reads it.
  core::PositioningService service;
  std::shared_ptr<sensors::GpsSensor> gps;
  std::shared_ptr<sensors::WifiScanner> scanner;
  core::LocationProvider* gps_provider = nullptr;
  core::LocationProvider* wifi_provider = nullptr;
  core::Target* target = nullptr;
};

}  // namespace

TEST_F(FailoverFixture, DeadGpsFailsOverToWifiAndBackWithoutFlapping) {
  struct Transition {
    std::string from, to;
    double when_s;
  };
  std::vector<Transition> transitions;
  service.add_failover_listener([&](core::Target& t, core::LocationProvider* f,
                                    core::LocationProvider* to,
                                    sim::SimTime when) {
    EXPECT_EQ(&t, target);
    transitions.push_back({f ? f->advertisement().technology : "none",
                           to ? to->advertisement().technology : "none",
                           when.seconds()});
  });

  service.enable_failover(watchdog);  // Defaults: stale 5s, hold 5s.
  ASSERT_TRUE(service.failover_enabled());
  EXPECT_EQ(target->active_provider(), gps_provider);  // Preferred by accuracy.

  gps->start();
  scanner->start();
  scheduler.run_until(sim::SimTime::from_seconds(20.0));
  EXPECT_EQ(target->active_provider(), gps_provider);
  EXPECT_EQ(service.provider_health(*gps_provider), HealthState::kHealthy);

  // GPS receiver dies at t=20. Its silence crosses 5s at ~25; the next
  // check must fail the target over to WiFi.
  gps->set_active(false);
  scheduler.run_until(sim::SimTime::from_seconds(35.0));
  EXPECT_EQ(target->active_provider(), wifi_provider);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].from, "GPS");
  EXPECT_EQ(transitions[0].to, "WiFi");
  EXPECT_GE(transitions[0].when_s, 24.0);
  EXPECT_LE(transitions[0].when_s, 27.0);  // Bounded staleness window.
  EXPECT_GE(service.provider_health(*gps_provider), HealthState::kStale);

  // Degraded-accuracy fixes instead of silence: the target keeps
  // producing fresh positions through WiFi during the outage.
  scheduler.run_until(sim::SimTime::from_seconds(50.0));
  const auto during_outage = target->current_position();
  ASSERT_TRUE(during_outage.has_value());
  EXPECT_GE(during_outage->timestamp.seconds(), 45.0);
  EXPECT_EQ(during_outage->technology, "WiFi");

  // GPS recovers at t=50; fail-back waits out the 5s hysteresis hold.
  gps->set_active(true);
  scheduler.run_until(sim::SimTime::from_seconds(75.0));
  EXPECT_EQ(target->active_provider(), gps_provider);
  ASSERT_EQ(transitions.size(), 2u);
  EXPECT_EQ(transitions[1].from, "WiFi");
  EXPECT_EQ(transitions[1].to, "GPS");
  EXPECT_GE(transitions[1].when_s, 55.0);  // Not before the hold expired.
  EXPECT_LE(transitions[1].when_s, 62.0);
  EXPECT_EQ(service.provider_health(*gps_provider), HealthState::kHealthy);

  // No flapping: a long stable tail adds no further transitions.
  scheduler.run_until(sim::SimTime::from_seconds(95.0));
  EXPECT_EQ(service.failover_transitions(), 2u);

  // PL health is visible in the metrics registry.
  const auto snap = graph.metrics();
  const auto* count = snap.find_counter("perpos_failover_transitions_total",
                                        "target", "user");
  ASSERT_NE(count, nullptr);
  const auto* gauge = snap.find_gauge("perpos_provider_health", "provider",
                                      gps_provider->metric_label());
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->value, 0.0);  // kHealthy again.
}

TEST_F(FailoverFixture, DisableStopsChecksAndKeepsActiveProvider) {
  service.enable_failover(watchdog);
  gps->start();
  scanner->start();
  scheduler.run_until(sim::SimTime::from_seconds(10.0));
  service.disable_failover();
  EXPECT_FALSE(service.failover_enabled());

  gps->set_active(false);
  scheduler.run_until(sim::SimTime::from_seconds(40.0));
  // Nobody is checking any more: the target stays on (stale) GPS.
  EXPECT_EQ(target->active_provider(), gps_provider);
  EXPECT_EQ(service.failover_transitions(), 0u);
}

TEST_F(FailoverFixture, HealthSettingsDriveFailoverConfig) {
  rt::HealthSettings settings;
  settings.stale_after_s = 3.0;
  settings.hold_s = 2.0;
  settings.check_interval_s = 0.5;
  service.enable_failover(watchdog, settings.failover());
  EXPECT_EQ(service.failover_config().hold_s, 2.0);

  // The same settings convert for the watchdog and the link layer.
  const auto dog_cfg = settings.watchdog();
  EXPECT_EQ(dog_cfg.stale_after_s, 3.0);
  EXPECT_EQ(dog_cfg.check_interval, sim::SimTime::from_seconds(0.5));
  const auto link_cfg = health::reliable_link_config_from(settings);
  EXPECT_EQ(link_cfg.max_retries, 8);
  EXPECT_EQ(link_cfg.ack_timeout, sim::SimTime::from_seconds(0.1));
}

TEST_F(FailoverFixture, FailingGpsStaysFailedOverUntilItsFailureRateFalls) {
  std::vector<double> switched_at;
  service.add_failover_listener(
      [&](core::Target&, core::LocationProvider*, core::LocationProvider*,
          sim::SimTime when) { switched_at.push_back(when.seconds()); });
  service.enable_failover(watchdog);
  gps->start();
  scanner->start();

  gps->set_active(false);  // Silent from the start: fail over at ~5 s.
  scheduler.run_until(sim::SimTime::from_seconds(20.0));
  EXPECT_EQ(target->active_provider(), wifi_provider);
  ASSERT_EQ(switched_at.size(), 1u);

  // GPS resumes at t=30, but its producer reports 4 failures/s (threshold
  // 1/s) until t=40: fixes flow again, yet the source is not healthy.
  scheduler.run_until(sim::SimTime::from_seconds(30.0));
  gps->set_active(true);
  const core::ComponentId producer = gps_provider->producer_id();
  for (double t = 30.1; t < 40.0; t += 0.5) {
    schedule_failures(scheduler, graph, producer, t, 2);
  }
  scheduler.run_until(sim::SimTime::from_seconds(42.0));
  EXPECT_GT(gps_provider->fixes(), 0u);
  EXPECT_EQ(target->active_provider(), wifi_provider);
  EXPECT_EQ(switched_at.size(), 1u);

  // The rate falls at t=40; fail-back waits out the 5 s hold from there.
  scheduler.run_until(sim::SimTime::from_seconds(60.0));
  EXPECT_EQ(target->active_provider(), gps_provider);
  ASSERT_EQ(switched_at.size(), 2u);
  EXPECT_GE(switched_at[1], 45.0);
  EXPECT_LE(switched_at[1], 46.5);
}

TEST_F(FailoverFixture, IntrospectAndGaugeReadTheVerdict) {
  // Failover off: there is no verdict, so no health line.
  EXPECT_TRUE(service.introspect().health.empty());

  service.enable_failover(watchdog);
  gps->start();
  scanner->start();
  const core::ComponentId producer = gps_provider->producer_id();
  const std::string label = gps_provider->metric_label();
  auto line = [&] {
    for (const std::string& l : service.introspect().health) {
      if (l.rfind(label + "=", 0) == 0) return l.substr(label.size() + 1);
    }
    return std::string("missing");
  };
  auto gauge = [&] {
    const auto snap = graph.metrics();
    const auto* g = snap.find_gauge("perpos_provider_health", "provider",
                                    label);
    return g != nullptr ? g->value : -1.0;
  };

  scheduler.run_until(sim::SimTime::from_seconds(10.0));
  EXPECT_EQ(line(), "healthy");
  EXPECT_EQ(gauge(), 0.0);

  // A failure burst on the provider's producer while fixes keep flowing.
  for (double t = 10.1; t < 12.0; t += 0.5) {
    schedule_failures(scheduler, graph, producer, t, 5);
  }
  scheduler.run_until(sim::SimTime::from_seconds(11.0));
  EXPECT_EQ(line(), "degraded");
  EXPECT_EQ(gauge(), 1.0);

  // The producer leaves the graph: dead at the next check.
  scheduler.run_until(sim::SimTime::from_seconds(15.0));
  graph.remove(producer);
  scheduler.run_until(sim::SimTime::from_seconds(15.5));
  EXPECT_EQ(line(), "dead");
  EXPECT_EQ(gauge(), 3.0);
}

namespace {

/// Drops every sample entering its host: an application-side filter.
class VetoAll final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "VetoAll"; }
  bool consume(core::Sample&) override { return false; }
};

}  // namespace

TEST_F(FailoverFixture, VetoedFixesAreNoSourceFailure) {
  // The provider's own consume hook drops every GPS fix. The verdict
  // judges the source, which keeps producing: no failover.
  graph.attach_feature(gps_provider->sink_id(), std::make_shared<VetoAll>());
  service.enable_failover(watchdog);
  gps->start();
  scanner->start();
  scheduler.run_until(sim::SimTime::from_seconds(30.0));

  EXPECT_EQ(gps_provider->fixes(), 0u);
  EXPECT_EQ(service.provider_health(*gps_provider), HealthState::kHealthy);
  EXPECT_EQ(target->active_provider(), gps_provider);
  EXPECT_EQ(service.failover_transitions(), 0u);
}

TEST_F(FailoverFixture, ReplacedProducerKeepsItsVerdictRemovedOneIsDead) {
  std::vector<double> switched_at;
  service.add_failover_listener(
      [&](core::Target&, core::LocationProvider*, core::LocationProvider*,
          sim::SimTime when) { switched_at.push_back(when.seconds()); });
  service.enable_failover(watchdog);
  gps->start();
  scanner->start();
  const core::ComponentId producer = gps_provider->producer_id();

  // A hot-swap keeps the producer's id: the verdict follows the successor.
  scheduler.run_until(sim::SimTime::from_seconds(10.0));
  graph.replace(producer, std::make_shared<sensors::NmeaInterpreter>());
  scheduler.run_until(sim::SimTime::from_seconds(20.0));
  EXPECT_EQ(service.provider_health(*gps_provider), HealthState::kHealthy);
  EXPECT_EQ(target->active_provider(), gps_provider);

  // Removing it is death at the next check, not after the stale deadline.
  graph.remove(producer);
  scheduler.run_until(sim::SimTime::from_seconds(22.0));
  EXPECT_EQ(service.provider_health(*gps_provider), HealthState::kDead);
  EXPECT_EQ(target->active_provider(), wifi_provider);
  ASSERT_EQ(switched_at.size(), 1u);
  EXPECT_LE(switched_at[0], 20.5);
}

// --- Scrapes race nothing (run under TSan in CI) -----------------------------

TEST(HealthMetrics, ScrapesWhileLanesDispatchReadEachOwnersCounts) {
  // One thread scrapes in a loop while an engine lane dispatches GPS and
  // WiFi fixes into PL providers with failover on, the GPS fixes crossing
  // a lossy reliable link. At the end, each series is its owner's count.
  sim::Scheduler scheduler;
  sim::Random random{7};
  sim::Network network(scheduler, random);  // Outlives the graph.
  core::ProcessingGraph graph(&scheduler.clock());
  rt::DistributedDeployment deployment(graph, network);
  core::ChannelManager channels(graph);
  core::Watchdog watchdog(graph, scheduler);
  core::PositioningService service(graph, channels);
  graph.enable_observability();

  const auto fix_source = [&graph](const char* kind) {
    auto source = std::make_shared<core::SourceComponent>(
        kind, std::vector<core::DataSpec>{core::provide<core::PositionFix>()});
    return std::make_pair(source, graph.add(source));
  };
  const auto [gps, gps_id] = fix_source("GPS");
  const auto [wifi, wifi_id] = fix_source("WiFi");
  service.advertise(gps_id, {"GPS", 4.0, core::Criteria::Power::kHigh});
  service.advertise(wifi_id, {"WiFi", 8.0, core::Criteria::Power::kLow});
  core::Criteria criteria;
  criteria.technology = "GPS";
  core::LocationProvider& gps_provider = service.request_provider(criteria);
  criteria.technology = "WiFi";
  core::LocationProvider& wifi_provider = service.request_provider(criteria);
  core::Target& target = service.create_target("user");
  target.attach_provider(gps_provider);
  target.attach_provider(wifi_provider);

  const sim::HostId device = deployment.add_host("device");
  const sim::HostId server = deployment.add_host("server");
  const sim::LinkConfig lossy{sim::SimTime::from_millis(10), 0.2,
                              sim::SimTime::from_millis(2)};
  network.set_link(device, server, lossy);
  network.set_link(server, device, lossy);
  deployment.assign(gps_id, device);
  for (const core::ComponentId id :
       {wifi_id, gps_provider.sink_id(), wifi_provider.sink_id()}) {
    deployment.assign(id, server);
  }
  deployment.set_link_factory(health::reliable_link_factory());
  deployment.deploy();
  health::ReliableEgress* egress = nullptr;
  for (const core::ComponentId id : graph.components()) {
    if (auto* e = graph.component_as<health::ReliableEgress>(id)) egress = e;
  }
  ASSERT_NE(egress, nullptr);

  perpos::exec::ExecutionEngine engine(2);
  const auto executor = engine.executor(engine.create_lane("graph"));
  deployment.set_executor(device, executor);
  deployment.set_executor(server, executor);
  service.set_executor(executor);
  service.enable_failover(watchdog);

  // GPS every 0.1 s until it dies at t=10; WiFi every 0.5 s throughout.
  for (int tick = 1; tick <= 300; ++tick) {
    const double t = 0.1 * tick;
    core::PositionFix fix;
    fix.position = geo::GeoPoint{56.0, 10.0, 0.0};
    fix.timestamp = sim::SimTime::from_seconds(t);
    scheduler.schedule_at(fix.timestamp, [&, tick, fix] {
      executor([&, tick, fix] {
        if (tick <= 100) gps->push(fix);
        if (tick % 5 == 0) wifi->push(fix);
      });
    });
  }

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    do {
      const perpos::obs::MetricsSnapshot snap = graph.metrics();
      EXPECT_FALSE(perpos::obs::to_prometheus_text(snap).empty());
    } while (!done.load());
  });
  engine.drive_until(scheduler, sim::SimTime::from_seconds(30.0));
  done = true;
  scraper.join();

  EXPECT_EQ(target.active_provider(), &wifi_provider);
  EXPECT_EQ(service.failover_transitions(), 1u);
  EXPECT_GT(egress->retransmits(), 0u);
  EXPECT_EQ(egress->inflight(), 0u);

  const perpos::obs::MetricsSnapshot snap = graph.metrics();
  const auto counter = [&snap](const char* name) {
    const auto* c = snap.find_counter(name);
    return c != nullptr ? c->value : ~0ull;
  };
  EXPECT_EQ(counter("perpos_reliable_link_sent_total"), egress->accepted());
  EXPECT_EQ(counter("perpos_reliable_link_retransmits_total"),
            egress->retransmits());
  EXPECT_EQ(counter("perpos_reliable_link_acks_total"), egress->acked());
  EXPECT_EQ(counter("perpos_reliable_link_giveups_total"), egress->gave_up());
  for (const core::LocationProvider* p : {&gps_provider, &wifi_provider}) {
    SCOPED_TRACE(p->metric_label());
    const auto* fixes = snap.find_counter("perpos_provider_fixes_total",
                                          "provider", p->metric_label());
    const auto* samples = snap.find_counter("perpos_provider_samples_total",
                                            "provider", p->metric_label());
    const auto* health = snap.find_gauge("perpos_provider_health", "provider",
                                         p->metric_label());
    ASSERT_NE(fixes, nullptr);
    ASSERT_NE(samples, nullptr);
    ASSERT_NE(health, nullptr);
    EXPECT_EQ(fixes->value, p->fixes());
    EXPECT_EQ(samples->value, p->fixes());  // Every sample is a fix.
    EXPECT_EQ(health->value,
              static_cast<double>(service.provider_health(*p)));
  }
  EXPECT_EQ(gps_provider.fixes(), 100u);  // Reliable: none lost.
  const auto* state = snap.find_gauge("perpos_health_state", "source",
                                      "GPS#" + std::to_string(gps_id));
  ASSERT_NE(state, nullptr);
  EXPECT_EQ(state->value, static_cast<double>(watchdog.state(gps_id)));
}
