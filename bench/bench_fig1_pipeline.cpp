// Experiment F1 — paper Fig. 1: the concrete positioning processes of the
// Room Number Application.
//
// Report phase: assembles the WiFi pipeline (sensor -> positioner ->
// resolver) and the GPS pipeline (sensor -> parser -> interpreter) through
// the dependency resolver, prints the reified processes with the data type
// on every edge (the content of Fig. 1), and verifies both deliver their
// advertised outputs.
//
// Benchmark phase: per-epoch processing cost of each pipeline, with and
// without observability enabled (the price of telemetry).
//
// With `--metrics-json <path>` the report phase runs fully observed
// (metrics + timing + recording) and writes a self-describing snapshot:
// per-component emit/deliver counts, on_input latency histograms, channel
// telemetry and the flight ring's Chrome trace_event flow trace (open in
// Perfetto).

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/graph_dump.hpp"
#include "perpos/core/trace_feature.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/locmodel/resolver.hpp"
#include "perpos/nmea/generate.hpp"
#include "perpos/runtime/assembler.hpp"
#include "perpos/sensors/gps_sensor.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/sensors/wifi_scanner.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/fingerprint.hpp"

#include "bench_metrics.hpp"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>

using namespace perpos;

namespace {

void print_report(const std::string& metrics_json_path) {
  std::printf("=== F1: Fig. 1 — positioning processes of the Room Number "
              "Application ===\n\n");

  sim::Scheduler scheduler;
  sim::Random random(42);
  const locmodel::Building building = locmodel::make_office_building();
  const wifi::SignalModel signal_model(wifi::office_access_points(),
                                       wifi::SignalModelConfig{}, &building);
  const wifi::FingerprintDatabase db =
      wifi::FingerprintDatabase::survey(signal_model, building, 2.0);
  const sensors::Trajectory walk = sensors::office_walk();

  core::ProcessingGraph graph(&scheduler.clock());
  obs::ObservabilityConfig obs_config;
  obs_config.recording = true;
  // Room for every event of the 60 s run, so the flow trace is complete.
  obs_config.recorder_capacity = 4096;
  graph.enable_observability(obs_config);
  core::ChannelManager channels(graph);
  runtime::GraphAssembler assembler(graph);

  auto gps = std::make_shared<sensors::GpsSensor>(
      scheduler, random, walk, building.frame(), sensors::GpsSensorConfig{},
      &building);
  auto scanner = std::make_shared<sensors::WifiScanner>(scheduler, random,
                                                        walk, signal_model);
  assembler.add("gps", gps);
  assembler.add("parser", std::make_shared<sensors::NmeaParser>());
  assembler.add("interpreter", std::make_shared<sensors::NmeaInterpreter>());
  assembler.add("wifi", scanner);
  assembler.add("positioner", std::make_shared<wifi::WifiPositioner>(db));
  assembler.add("resolver",
                std::make_shared<locmodel::RoomResolver>(building));
  auto room_app = std::make_shared<core::ApplicationSink>(
      "RoomApp",
      std::vector<core::InputRequirement>{core::require<core::RoomFix>()});
  auto map_app = std::make_shared<core::ApplicationSink>(
      "MapApp", std::vector<core::InputRequirement>{
                    core::require<core::PositionFix>()});
  assembler.add("room-app", room_app);
  assembler.add("map-app", map_app);

  const auto report = assembler.resolve();
  std::printf("dependency resolution: %zu components, %zu edges, %zu "
              "unsatisfied\n",
              report.instantiated.size(), report.edges.size(),
              report.unsatisfied.size());
  for (const auto& e : report.edges) {
    std::printf("  %-12s -> %s\n", e.producer.c_str(), e.consumer.c_str());
  }

  for (core::Channel* ch : channels.channels()) {
    channels.attach_feature(
        *ch, std::make_shared<core::TraceChannelFeature>(ch->name()));
  }

  gps->start();
  scanner->start();
  scheduler.run_until(sim::SimTime::from_seconds(60.0));

  std::printf("\n%s\n", core::dump_structure(graph).c_str());
  std::printf("%s\n", core::dump_channels(channels).c_str());

  const auto* room = room_app->last() ? room_app->last()->payload.get<core::RoomFix>()
                                      : nullptr;
  const auto* fix = map_app->last() ? map_app->last()->payload.get<core::PositionFix>()
                                    : nullptr;
  std::printf("room-app last : %s\n",
              room != nullptr ? core::to_string(*room).c_str() : "<none>");
  std::printf("map-app last  : %s\n\n",
              fix != nullptr ? core::to_string(*fix).c_str() : "<none>");

  // Observability: per-component runtime behaviour of the same run.
  const obs::MetricsSnapshot snap = graph.metrics();
  std::printf("--- telemetry (60 simulated seconds) ---\n");
  std::printf("%-16s %8s %10s %12s %12s\n", "component", "emitted",
              "delivered", "on_input p50", "on_input p95");
  for (core::ComponentId id : graph.components()) {
    const auto info = graph.info(id);
    const auto* emitted = snap.find_counter("perpos_component_emitted_total",
                                            "component", std::to_string(id));
    const auto* delivered = snap.find_counter(
        "perpos_component_delivered_total", "component", std::to_string(id));
    const auto* latency = snap.find_histogram(
        "perpos_component_on_input_us", "component", std::to_string(id));
    std::printf("%-16s %8llu %10llu %10.1fus %10.1fus\n", info.kind.c_str(),
                static_cast<unsigned long long>(
                    emitted != nullptr ? emitted->value : 0),
                static_cast<unsigned long long>(
                    delivered != nullptr ? delivered->value : 0),
                latency != nullptr ? latency->quantile(0.50) : 0.0,
                latency != nullptr ? latency->quantile(0.95) : 0.0);
  }
  const obs::FlightRecorder& recorder = *graph.flight_recorder();
  std::printf("flight events recorded: %llu (dropped %llu)\n\n",
              static_cast<unsigned long long>(recorder.recorded(0)),
              static_cast<unsigned long long>(recorder.dropped(0)));

  benchutil::write_metrics_snapshot(metrics_json_path, "fig1_pipeline", graph);
}

/// Per-epoch cost of the GPS pipeline: one GGA sentence through Parser and
/// Interpreter to the application. `observed` = 0 (off, the default cost),
/// 1 (metrics only), 2 (metrics + timing).
void BM_GpsPipelineEpoch(benchmark::State& state) {
  core::ProcessingGraph graph;
  const auto observed = state.range(0);
  if (observed > 0) {
    obs::ObservabilityConfig cfg;
    cfg.metrics = true;
    cfg.timing = observed >= 2;
    graph.enable_observability(cfg);
  }
  auto source = std::make_shared<core::SourceComponent>(
      "GPS",
      std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  const auto p = graph.add(std::make_shared<sensors::NmeaParser>());
  const auto i = graph.add(std::make_shared<sensors::NmeaInterpreter>());
  const auto z = graph.add(sink);
  graph.connect(a, p);
  graph.connect(p, i);
  graph.connect(i, z);

  nmea::GgaSentence gga;
  gga.quality = nmea::FixQuality::kGps;
  gga.satellites_in_use = 8;
  gga.hdop = 1.1;
  gga.latitude_deg = 56.1697;
  gga.longitude_deg = 10.1994;
  const std::string sentence = nmea::generate_gga(gga) + "\r\n";

  for (auto _ : state) {
    source->push(core::RawFragment{sentence});
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.SetLabel(observed == 0   ? "obs:off"
                 : observed == 1 ? "obs:metrics"
                                 : "obs:metrics+timing");
}
BENCHMARK(BM_GpsPipelineEpoch)->Arg(0)->Arg(1)->Arg(2);

/// Per-scan cost of the WiFi pipeline with a realistic fingerprint DB.
void BM_WifiPipelineScan(benchmark::State& state) {
  static const locmodel::Building building = locmodel::make_office_building();
  static const wifi::SignalModel model(wifi::office_access_points(),
                                       wifi::SignalModelConfig{}, &building);
  static const wifi::FingerprintDatabase db =
      wifi::FingerprintDatabase::survey(model, building, 2.0);

  core::ProcessingGraph graph;
  auto source = std::make_shared<core::SourceComponent>(
      "WiFi", std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  const auto p = graph.add(std::make_shared<wifi::WifiPositioner>(db));
  const auto r = graph.add(std::make_shared<locmodel::RoomResolver>(building));
  const auto z = graph.add(sink);
  graph.connect(a, p);
  graph.connect(p, r);
  graph.connect(r, z);

  const wifi::RssiScan scan = model.ideal_scan_at({12.0, 10.0}, {});
  for (auto _ : state) {
    source->push(scan);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WifiPipelineScan);

}  // namespace

int main(int argc, char** argv) {
  print_report(benchutil::strip_metrics_json(argc, argv));
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
