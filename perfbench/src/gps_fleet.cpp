// gps_fleet: 48 GPS targets, each its own frozen graph on its own engine
// lane. Generated NMEA fragments (GGA + GSA, two fragments per sentence)
// pass NmeaParser (+NumberOfSatellites, HDOP) -> SatelliteFilter ->
// NmeaInterpreter -> LocationProvider. About 20% of epochs fall in
// low-satellite outages that the filter drops. The per-fix work is about
// ten cheap hops, so PSL dispatch, provenance and the engine lane hop
// dominate.

#include "fleet.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/fusion/satellite_filter.hpp"
#include "perpos/geo/local_frame.hpp"
#include "perpos/nmea/generate.hpp"
#include "perpos/plan/graph_plan.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/sim/random.hpp"

#include <cmath>

namespace perfbench {

namespace {

using namespace perpos;

constexpr std::size_t kTargets = 48;
constexpr std::size_t kEpochs = 200;  ///< Epochs per input cycle.
constexpr std::size_t kFragmentsPerEpoch = 4;

/// One target's input cycle: a closed loop around its own centre, with
/// seeded noise and low-satellite outage runs covering ~20% of epochs.
std::vector<core::Payload> make_cycle(std::uint64_t seed, std::size_t target) {
  sim::Random random(seed * 7919 + target);
  const geo::LocalFrame frame(geo::GeoPoint{56.1697, 10.1994, 50.0});
  const double cx = random.uniform(-2000.0, 2000.0);
  const double cy = random.uniform(-2000.0, 2000.0);
  const double radius = random.uniform(50.0, 300.0);
  std::vector<bool> outage(kEpochs, false);
  std::size_t covered = 0;
  while (covered < kEpochs / 5) {
    const auto len = static_cast<std::size_t>(random.uniform_int(5, 20));
    const auto at = static_cast<std::size_t>(
        random.uniform_int(0, static_cast<int>(kEpochs - len)));
    for (std::size_t e = at; e < at + len; ++e) {
      if (!outage[e]) ++covered;
      outage[e] = true;
    }
  }
  std::vector<core::Payload> out;
  out.reserve(kEpochs * kFragmentsPerEpoch);
  const auto split = [&](const std::string& sentence) {
    const std::string framed = sentence + "\r\n";
    const auto cut = static_cast<std::size_t>(random.uniform_int(
        8, static_cast<int>(framed.size()) - 8));
    out.push_back(core::Payload::make(core::RawFragment{framed.substr(0, cut)}));
    out.push_back(core::Payload::make(core::RawFragment{framed.substr(cut)}));
  };
  for (std::size_t e = 0; e < kEpochs; ++e) {
    const double angle = 2.0 * M_PI * static_cast<double>(e) / kEpochs;
    geo::EnuPoint enu;
    enu.east = cx + radius * std::cos(angle) + random.normal(0.0, 3.0);
    enu.north = cy + radius * std::sin(angle) + random.normal(0.0, 3.0);
    enu.up = random.normal(0.0, 2.0);
    const geo::GeoPoint p = frame.to_geodetic(enu);
    nmea::GgaSentence gga;
    gga.time = nmea::UtcTime{10 + static_cast<int>(e / 3600),
                             static_cast<int>(e / 60 % 60),
                             static_cast<double>(e % 60)};
    gga.latitude_deg = p.latitude_deg;
    gga.longitude_deg = p.longitude_deg;
    gga.altitude_m = p.altitude_m;
    gga.quality = nmea::FixQuality::kGps;  // Receivers keep reporting.
    gga.satellites_in_use =
        outage[e] ? random.uniform_int(1, 3) : random.uniform_int(5, 11);
    gga.hdop = outage[e] ? random.uniform(4.0, 12.0) : random.uniform(0.7, 2.0);
    nmea::GsaSentence gsa;
    gsa.mode = nmea::GsaSentence::Mode::k3d;
    for (int s = 0; s < gga.satellites_in_use; ++s) {
      gsa.satellite_prns.push_back(1 + (s * 3 + static_cast<int>(e)) % 32);
    }
    gsa.hdop = gga.hdop;
    gsa.pdop = gga.hdop * 1.4;
    gsa.vdop = gga.hdop * 1.1;
    split(nmea::generate_gga(gga));
    split(nmea::generate_gsa(gsa));
  }
  return out;
}

class GpsTarget final : public FleetTarget {
 public:
  GpsTarget(const std::vector<core::Payload>& inputs, LaneState& state,
            bool probes, SetupTimes& times)
      : inputs_(inputs) {
    const std::int64_t t0 = now_ns();
    source_ = std::make_shared<core::SourceComponent>(
        "GPS", std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
    const auto src = graph_.add(source_);
    const auto parser = graph_.add(std::make_shared<sensors::NmeaParser>());
    const auto filter = graph_.add(std::make_shared<fusion::SatelliteFilter>(4));
    const auto interp = graph_.add(std::make_shared<sensors::NmeaInterpreter>());
    graph_.connect(src, parser);
    graph_.connect(parser, filter);
    graph_.connect(filter, interp);
    graph_.attach_feature(parser,
                          std::make_shared<fusion::NumberOfSatellitesFeature>());
    graph_.attach_feature(parser, std::make_shared<fusion::HdopFeature>());
    if (probes) {
      graph_.attach_feature(src, std::make_shared<ProbeFeature>(Layer::kSource));
      graph_.attach_feature(parser, std::make_shared<ProbeFeature>(Layer::kParser));
      graph_.attach_feature(filter,
                            std::make_shared<ProbeFeature>(Layer::kSatFilter));
      graph_.attach_feature(interp,
                            std::make_shared<ProbeFeature>(Layer::kInterpreter));
    }
    core::LocationProvider& provider = service_.request_provider(core::Criteria{});
    if (probes) {
      graph_.attach_feature(provider.sink_id(),
                            std::make_shared<ProbeFeature>(Layer::kPl));
    }
    LaneState* st = &state;
    provider.add_listener([st](const core::PositionFix& fix,
                               const core::Sample& sample) {
      Tracer::record(Ev::kListener);
      st->on_output(Output{fix.position.latitude_deg, fix.position.longitude_deg,
                           fix.position.altitude_m, fix.horizontal_accuracy_m},
                    sample);
    });
    const std::int64_t t1 = now_ns();
    const plan::FreezeResult frozen = plan_.freeze();
    const std::int64_t t2 = now_ns();
    if (!frozen.frozen) {
      throw std::runtime_error("gps_fleet: freeze refused: " + frozen.reason);
    }
    times.assemble_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    times.freeze_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }

  void push(std::size_t pos) override { source_->push_payload(inputs_[pos]); }
  std::uint64_t deliveries() const override { return graph_.deliveries(); }
  std::uint64_t plan_freezes() const override { return plan_.stats().freezes; }

 private:
  const std::vector<core::Payload>& inputs_;
  core::ProcessingGraph graph_;
  core::ChannelManager channels_{graph_};
  core::PositioningService service_{graph_, channels_};
  plan::GraphPlan plan_{graph_};
  std::shared_ptr<core::SourceComponent> source_;
};

class GpsFleet final : public FleetSpec {
 public:
  explicit GpsFleet(std::uint64_t seed) {
    for (std::size_t t = 0; t < kTargets; ++t) cycles_.push_back(make_cycle(seed, t));
  }
  std::size_t targets() const override { return kTargets; }
  std::size_t cycle_len() const override { return kEpochs * kFragmentsPerEpoch; }
  /// One task per receiver epoch: GGA + GSA, two fragments each.
  std::size_t batch() const override { return kFragmentsPerEpoch; }
  std::size_t window() const override { return 64; }
  std::size_t saturate_per_lane_second() const override {
    return kGpsSaturatePerLaneSecond;
  }
  double paced_rate() const override { return kGpsPacedRate; }
  std::unique_ptr<FleetTarget> build(std::size_t index, exec::ExecutionEngine&,
                                     exec::LaneId, LaneState& state, bool probes,
                                     SetupTimes& times) override {
    return std::make_unique<GpsTarget>(cycles_[index], state, probes, times);
  }

 private:
  std::vector<std::vector<core::Payload>> cycles_;
};

}  // namespace

void run_gps_fleet(const Options& options, Report& report) {
  GpsFleet spec(options.seed);
  run_fleet(spec, options, report);
}

}  // namespace perfbench
