// rooms_churn: 12 targets running the Fig. 1 WiFi Room Number app. Seeded
// noisy RssiScans along office walks pass WifiPositioner -> RoomResolver ->
// a RoomFix provider, on frozen graphs with auto_refreeze. The control
// thread hot-swaps one target's WifiPositioner through the verified
// LiveReconfigurator::replace, round-robin, every kSwapEvery posted scans,
// and rolls back every 4th commit. The successor is behaviourally equal, so
// the outputs must match the reference exactly.
//
// Fingerprint kNN dominates the per-scan cost, which makes this the control
// workload on which PSL and engine changes must show no change; it is also
// the only workload that mutates graph structure under traffic.

#include "fleet.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/locmodel/fixtures.hpp"
#include "perpos/locmodel/resolver.hpp"
#include "perpos/plan/graph_plan.hpp"
#include "perpos/reconfig/live_reconfigurator.hpp"
#include "perpos/sensors/trajectory.hpp"
#include "perpos/wifi/components.hpp"
#include "perpos/wifi/fingerprint.hpp"
#include "perpos/wifi/signal_model.hpp"

#include <functional>

namespace perfbench {

namespace {

using namespace perpos;

constexpr std::size_t kTargets = 12;
constexpr std::size_t kScans = 120;  ///< Scans per input cycle.
constexpr std::size_t kSwapEvery = 5000;

/// Building, radio model and fingerprint survey: the deployment's shared
/// location model.
struct Site {
  locmodel::Building building = locmodel::make_office_building();
  wifi::SignalModel model{wifi::office_access_points(), wifi::SignalModelConfig{},
                          &building};
  /// Shared with every target (and swapped-in successor) built on it, so a
  /// fresh survey never invalidates a live assembly.
  std::shared_ptr<const wifi::FingerprintDatabase> db;
};

std::vector<core::Payload> make_cycle(const Site& site, std::uint64_t seed,
                                      std::size_t target) {
  sim::Random random(seed * 104729 + target);
  const sensors::Trajectory walk = sensors::office_walk();
  const double duration = walk.duration().seconds();
  const double offset = random.uniform(0.0, duration);
  std::vector<core::Payload> out;
  out.reserve(kScans);
  for (std::size_t k = 0; k < kScans; ++k) {
    double t = offset + duration * static_cast<double>(k) / kScans;
    if (t >= duration) t -= duration;
    const auto when = sim::SimTime::from_seconds(t);
    out.push_back(core::Payload::make(
        site.model.scan_at(walk.position_at(when), random, when)));
  }
  return out;
}

class RoomsTarget final : public FleetTarget {
 public:
  RoomsTarget(const Site& site, const std::vector<core::Payload>& inputs,
              exec::ExecutionEngine& engine, exec::LaneId lane,
              LaneState& state, bool probes, SetupTimes& times)
      : inputs_(inputs), db_(site.db), reconf_(graph_, engine, lane) {
    const std::int64_t t0 = now_ns();
    source_ = std::make_shared<core::SourceComponent>(
        "WiFi", std::vector<core::DataSpec>{core::provide<wifi::RssiScan>()});
    const auto src = graph_.add(source_);
    positioner_ = graph_.add(std::make_shared<wifi::WifiPositioner>(*db_));
    const auto resolver =
        graph_.add(std::make_shared<locmodel::RoomResolver>(site.building));
    graph_.connect(src, positioner_);
    graph_.connect(positioner_, resolver);
    if (probes) {
      graph_.attach_feature(src, std::make_shared<ProbeFeature>(Layer::kSource));
      graph_.attach_feature(positioner_,
                            std::make_shared<ProbeFeature>(Layer::kPositioner));
      graph_.attach_feature(resolver,
                            std::make_shared<ProbeFeature>(Layer::kResolver));
    }
    core::LocationProvider& provider =
        service_.request_provider(core::Criteria::for_type<core::RoomFix>());
    if (probes) {
      graph_.attach_feature(provider.sink_id(),
                            std::make_shared<ProbeFeature>(Layer::kPl));
    }
    LaneState* st = &state;
    provider.add_sample_listener([st](const core::Sample& sample) {
      const auto* room = sample.payload.get<core::RoomFix>();
      if (room == nullptr) return;
      Tracer::record(Ev::kListener);
      st->on_output(
          Output{static_cast<double>(std::hash<std::string>{}(room->room) >> 12),
                 room->local.x, room->local.y, room->confidence},
          sample);
    });
    const std::int64_t t1 = now_ns();
    const plan::FreezeResult frozen = plan_.freeze();
    const std::int64_t t2 = now_ns();
    if (!frozen.frozen) {
      throw std::runtime_error("rooms_churn: freeze refused: " + frozen.reason);
    }
    times.assemble_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
    times.freeze_ms.push_back(static_cast<double>(t2 - t1) / 1e6);
  }

  void push(std::size_t pos) override { source_->push_payload(inputs_[pos]); }
  std::uint64_t deliveries() const override { return graph_.deliveries(); }
  std::uint64_t plan_freezes() const override { return plan_.stats().freezes; }

  reconfig::LiveReconfigurator& reconfigurator() { return reconf_; }
  core::ComponentId positioner() const { return positioner_; }
  const wifi::FingerprintDatabase& db() const { return *db_; }

 private:
  const std::vector<core::Payload>& inputs_;
  std::shared_ptr<const wifi::FingerprintDatabase> db_;
  core::ProcessingGraph graph_;
  core::ChannelManager channels_{graph_};
  core::PositioningService service_{graph_, channels_};
  plan::GraphPlan plan_{graph_};  // auto_refreeze is the default.
  reconfig::LiveReconfigurator reconf_;
  std::shared_ptr<core::SourceComponent> source_;
  core::ComponentId positioner_ = core::kInvalidComponent;
};

class RoomsChurn final : public FleetSpec {
 public:
  explicit RoomsChurn(std::uint64_t seed) {
    for (std::size_t t = 0; t < kTargets; ++t) {
      cycles_.push_back(make_cycle(site_, seed, t));
    }
  }
  std::size_t targets() const override { return kTargets; }
  std::size_t cycle_len() const override { return kScans; }
  std::size_t window() const override { return 16; }
  std::size_t saturate_per_lane_second() const override {
    return kRoomsSaturatePerLaneSecond;
  }
  double paced_rate() const override { return kRoomsPacedRate; }

  void prepare_shared() override {
    site_.db = std::make_shared<const wifi::FingerprintDatabase>(
        wifi::FingerprintDatabase::survey(site_.model, site_.building, 2.0));
  }

  std::unique_ptr<FleetTarget> build(std::size_t index,
                                     exec::ExecutionEngine& engine,
                                     exec::LaneId lane, LaneState& state,
                                     bool probes, SetupTimes& times) override {
    return std::make_unique<RoomsTarget>(site_, cycles_[index], engine, lane,
                                         state, probes, times);
  }

  std::size_t control_every() const override { return kSwapEvery; }

  void control(std::vector<std::unique_ptr<FleetTarget>>& targets,
               std::vector<std::unique_ptr<LaneState>>& lanes,
               ControlStats& stats) override {
    const std::size_t i = next_++ % targets.size();
    auto& target = static_cast<RoomsTarget&>(*targets[i]);
    reconfig::LiveReconfigurator& reconf = target.reconfigurator();
    const std::uint64_t before = reconf.epoch();
    const std::int64_t s0 = now_ns();
    const reconfig::SwapResult swap = reconf.replace(
        target.positioner(), std::make_shared<wifi::WifiPositioner>(target.db()));
    const std::int64_t s1 = now_ns();
    stats.windows.push_back(ControlStats::Window{i, s0, s1});
    if (!swap.ok()) {
      ++stats.failures;
      return;
    }
    ++stats.commits;
    stats.swap_us.push_back(static_cast<double>(s1 - s0) / 1000.0);
    lanes[i]->first_after_swap.store(true, std::memory_order_release);
    if (stats.commits % 4 != 0) return;
    const std::int64_t r0 = now_ns();
    const reconfig::SwapResult undo = reconf.rollback(before);
    const std::int64_t r1 = now_ns();
    stats.windows.push_back(ControlStats::Window{i, r0, r1});
    if (!undo.ok()) {
      ++stats.failures;
      return;
    }
    ++stats.rollbacks;
    stats.rollback_us.push_back(static_cast<double>(r1 - r0) / 1000.0);
    lanes[i]->first_after_swap.store(true, std::memory_order_release);
  }

 private:
  Site site_;
  std::vector<std::vector<core::Payload>> cycles_;
  std::size_t next_ = 0;
};

}  // namespace

void run_rooms_churn(const Options& options, Report& report) {
  RoomsChurn spec(options.seed);
  run_fleet(spec, options, report);
}

}  // namespace perfbench
