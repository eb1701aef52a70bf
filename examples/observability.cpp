// Observability: watching the inside of a running positioning process.
//
// Builds the GPS pipeline of Fig. 1, turns on full observability
// (metrics + timing + recording), attaches the Trace Channel Feature — the
// paper's own PCL extension mechanism used *for* monitoring — and then
// inspects the run at all three layers:
//
//   PSL  graph.metrics()           per-component counters & latency
//                                  histograms, Prometheus text + JSON
//   PCL  TraceChannelFeature       per-channel deliveries, data-tree shape,
//                                  the last sample's journey
//   PL   provider.fix_rate_hz()    application-level fix rate / staleness
//
// The flight ring's flow trace is written as gps_trace.json — open it in
// Perfetto (https://ui.perfetto.dev) to see every sample's source→sink
// journey as flow arrows from each emission to its deliveries, which follow
// the provenance chain.
//
// Run: ./observability

#include "perpos/core/channel.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/core/trace_feature.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/sensors/gps_sensor.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/sensors/trajectory.hpp"

#include <cstdio>
#include <fstream>

using namespace perpos;

int main() {
  sim::Scheduler scheduler;
  sim::Random random(42);
  const geo::LocalFrame frame(geo::GeoPoint{56.1697, 10.1994, 50.0});
  const sensors::Trajectory walk =
      sensors::TrajectoryBuilder({0.0, 0.0}).walk_to({80.0, 40.0}, 1.4).build();

  core::ProcessingGraph graph(&scheduler.clock());

  // One call makes the whole process observable. `recording` keeps every
  // emit and deliver in a flight ring (sized here for the whole run);
  // metrics and timing alone are cheap enough to leave on.
  obs::ObservabilityConfig obs_config;
  obs_config.recording = true;
  obs_config.recorder_capacity = 2048;
  graph.enable_observability(obs_config);

  core::ChannelManager channels(graph);
  core::PositioningService positioning(graph, channels);

  auto gps = std::make_shared<sensors::GpsSensor>(scheduler, random, walk,
                                                  frame);
  auto parser = std::make_shared<sensors::NmeaParser>();
  auto interpreter = std::make_shared<sensors::NmeaInterpreter>();
  const auto gps_id = graph.add(gps);
  const auto parser_id = graph.add(parser);
  const auto interpreter_id = graph.add(interpreter);
  graph.connect(gps_id, parser_id);
  graph.connect(parser_id, interpreter_id);
  positioning.advertise(interpreter_id,
                        {"GPS", 8.0, core::Criteria::Power::kHigh});
  core::LocationProvider& provider =
      positioning.request_provider(core::Criteria{});

  // PCL: a Channel Feature that turns data trees into channel telemetry.
  auto trace_feature = std::make_shared<core::TraceChannelFeature>();
  for (core::Channel* ch : channels.channels()) {
    channels.attach_feature(*ch, trace_feature);
    break;  // One channel in this process.
  }

  gps->start();
  scheduler.run_until(sim::SimTime::from_seconds(60.0));

  // --- PSL: machine-readable metrics -----------------------------------
  positioning.publish_metrics();  // Fold PL gauges into the registry.
  const obs::MetricsSnapshot snap = graph.metrics();
  std::printf("--- Prometheus exposition (excerpt) ---\n");
  const std::string text = obs::to_prometheus_text(snap);
  // Print the counter lines only; the full text includes histograms.
  std::size_t printed = 0;
  for (std::size_t pos = 0; pos < text.size() && printed < 24;) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    if (line.find("_total") != std::string::npos && line[0] != '#') {
      std::printf("%s\n", line.c_str());
      ++printed;
    }
    pos = eol + 1;
  }

  // --- PCL: channel telemetry from the Trace feature --------------------
  std::printf("\n--- Trace Channel Feature ---\n");
  std::printf("deliveries   : %llu\n",
              static_cast<unsigned long long>(trace_feature->deliveries()));
  std::printf("tree depth   : %zu layers, %zu samples\n",
              trace_feature->last_tree_depth(),
              trace_feature->last_tree_size());
  std::printf("logical lag  : %llu input sequences\n",
              static_cast<unsigned long long>(
                  trace_feature->last_logical_lag()));
  std::printf("last journey : %s\n", trace_feature->last_journey().c_str());

  // --- PL: provider-level counters ---------------------------------------
  std::printf("\n--- Provider (%s) ---\n", provider.metric_label().c_str());
  std::printf("fixes     : %llu\n",
              static_cast<unsigned long long>(provider.fixes()));
  std::printf("fix rate  : %.2f Hz\n", provider.fix_rate_hz());
  std::printf("staleness : %.2f s\n",
              provider.staleness_s(scheduler.clock().now()));

  // --- Flow trace for Perfetto -------------------------------------------
  const obs::FlightRecorder& recorder = *graph.flight_recorder();
  std::ofstream("gps_trace.json") << recorder.dump_chrome_trace();
  std::printf("\nwrote gps_trace.json (%zu events) — open in "
              "https://ui.perfetto.dev\n",
              recorder.merged_events().size());
  return 0;
}
