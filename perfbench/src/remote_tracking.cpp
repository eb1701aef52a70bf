// remote_tracking: 8 devices in one sim::Scheduler, replayed as fast as
// possible through ExecutionEngine's inline drive(). Each device graph is
// split mobile/server by DistributedDeployment with the reliable link over
// a lossy, jittery radio. The server runs NmeaParser (+HDOP) ->
// NmeaInterpreter -> HdopLikelihoodFeature channel feature ->
// ParticleFilterComponent -> provider, with metrics, latency and an SLO on
// (which keeps the graph on the interpreted path); the operator scrapes
// graph.metrics() once per simulated second. Every fix crosses the codec
// and the reliable link and builds a Fig. 4 data tree, so PCL, provenance,
// obs, runtime, health and sim all do their work here.
//
// The replay is deterministic per seed: the first replay is the reference
// transcript, every timed replay must reproduce it exactly.

#include "trace.hpp"
#include "workloads.hpp"

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/fusion/features.hpp"
#include "perpos/fusion/particle_filter.hpp"
#include "perpos/health/reliable_link.hpp"
#include "perpos/runtime/distribution.hpp"
#include "perpos/sensors/emulator.hpp"
#include "perpos/sensors/gps_sensor.hpp"
#include "perpos/sensors/pipeline_components.hpp"
#include "perpos/sensors/trajectory.hpp"
#include "perpos/sim/network.hpp"
#include "perpos/sim/scheduler.hpp"

#include <algorithm>

namespace perfbench {

namespace {

using namespace perpos;

constexpr std::size_t kDevices = 8;
constexpr std::size_t kParticles = 64;
constexpr std::size_t kMinReplays = 3;
constexpr std::size_t kKeepSpans = 20000;

/// Wall time the current remoted delivery entered the server (the start of
/// the latency a fix reports). The replay is single-threaded.
std::int64_t g_ingress_ns = 0;

const geo::LocalFrame& frame() {
  static const geo::LocalFrame f(geo::GeoPoint{56.1697, 10.1994, 50.0});
  return f;
}

/// One device's seeded GPS trace: GGA fragments recorded off a simulated
/// receiver walking the outdoor route.
sensors::Trace record_trace(std::uint64_t seed, std::size_t device) {
  sim::Scheduler scheduler;
  sim::Random random(seed * 15485863 + device);
  const sensors::Trajectory walk =
      sensors::outdoor_walk(1.0 + 0.1 * static_cast<double>(device));
  core::ProcessingGraph graph(&scheduler.clock());
  sensors::GpsSensorConfig config;
  config.emit_gsa = false;
  config.model.degraded_fix_loss_prob = 0.0;
  auto gps = std::make_shared<sensors::GpsSensor>(scheduler, random, walk,
                                                  frame(), config);
  auto recorder = std::make_shared<sensors::TraceRecorderFeature>();
  graph.attach_feature(graph.add(gps), recorder);
  gps->start();
  scheduler.run_until(std::min(walk.duration(),
                               sim::SimTime::from_seconds(kRemoteTraceSeconds)));
  return recorder->take_trace();
}

/// The reliable link, with its delivery callbacks wrapped so the traced run
/// can time them and the latency clock can start at server ingress.
runtime::RemoteLinkFactory timed_link_factory() {
  return [inner = health::reliable_link_factory()](
             sim::Network& network, sim::HostId from, sim::HostId to,
             std::string tag, std::vector<core::DataSpec> capabilities) {
    runtime::RemoteLinkEndpoints link =
        inner(network, from, to, std::move(tag), std::move(capabilities));
    link.deliver_at_to = [fn = std::move(link.deliver_at_to)](
                             const std::string& rest) {
      g_ingress_ns = now_ns();
      Tracer::record(Ev::kIngressBegin);
      fn(rest);
    };
    if (link.deliver_at_from) {
      link.deliver_at_from = [fn = std::move(link.deliver_at_from)](
                                 const std::string& rest) {
        Tracer::record(Ev::kAckBegin);
        fn(rest);
      };
    }
    return link;
  };
}

struct Device {
  Device(sim::Scheduler& scheduler, sim::Network& network)
      : graph(&scheduler.clock()), deployment(graph, network) {}

  core::ProcessingGraph graph;
  runtime::DistributedDeployment deployment;
  core::ChannelManager channels{graph};
  core::PositioningService service{graph, channels};
  std::shared_ptr<core::SourceComponent> source;
  std::shared_ptr<fusion::HdopLikelihoodFeature> likelihood;
  std::vector<health::ReliableEgress*> egress;
  std::vector<health::ReliableIngress*> ingress;
  sim::HostId mobile = 0;
  sim::HostId server = 0;
  std::vector<Output> outputs;
  std::vector<double> latency_us;
  double provenance = 0.0;
};

struct ReplayResult {
  double setup_s = 0.0;
  double assemble_ms = 0.0;
  double wall_s = 0.0;
  double cpu_ns = 0.0;
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  std::uint64_t fixes = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t radio_msgs = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t accepted = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t received = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t gave_up = 0;
  double provenance = 0.0;
  std::vector<double> latency_us;
  std::vector<double> scrape_us;
  std::vector<std::vector<Output>> outputs;
  LayerTotals totals;
};

class Replay {
 public:
  Replay(const std::vector<sensors::Trace>& traces, std::uint64_t seed,
         bool probes)
      : traces_(traces), seed_(seed), probes_(probes) {}

  ReplayResult run(bool traced) {
    ReplayResult r;
    waits_.clear();
    sim::Scheduler scheduler;
    sim::Random random(seed_);
    sim::Network network(scheduler, random);
    exec::ExecutionEngine engine(0);
    std::vector<sim::Random> pf_random;
    for (std::size_t d = 0; d < kDevices; ++d) pf_random.emplace_back(seed_ + 31 * d);
    std::vector<std::unique_ptr<Device>> devices;

    const std::int64_t t0 = now_ns();
    for (std::size_t d = 0; d < kDevices; ++d) {
      devices.push_back(std::make_unique<Device>(scheduler, network));
      assemble(*devices.back(), d, engine, pf_random[d]);
    }
    r.setup_s = static_cast<double>(now_ns() - t0) / 1e9;
    r.assemble_ms = r.setup_s * 1e3 / kDevices;

    // The replay: every trace entry at its time (devices staggered), plus
    // one operator scrape per simulated second.
    sim::SimTime end = sim::SimTime::zero();
    std::uint64_t sample_id = 0;
    for (std::size_t d = 0; d < kDevices; ++d) {
      const auto stagger = sim::SimTime::from_millis(static_cast<double>(d) * 113.0);
      Device* dev = devices[d].get();
      for (const sensors::TraceEntry& e : traces_[d].entries()) {
        const sim::SimTime when = e.time + stagger;
        end = std::max(end, when);
        const std::uint64_t id = sample_id++;
        scheduler.schedule_at(when, [dev, id, payload = e.payload] {
          Tracer::begin_root(id);
          Tracer::record(Ev::kPushBegin);
          dev->source->push_payload(payload);
          Tracer::record(Ev::kPushEnd);
          Tracer::end_root();
        });
      }
    }
    r.samples = sample_id;
    for (double s = 1.0; s <= end.seconds(); s += 1.0) {
      scheduler.schedule_at(sim::SimTime::from_seconds(s), [&devices, &r] {
        for (auto& dev : devices) {
          const std::int64_t s0 = now_ns();
          const obs::MetricsSnapshot snap = dev->graph.metrics();
          r.scrape_us.push_back(static_cast<double>(now_ns() - s0) / 1000.0);
          (void)snap;
        }
      });
    }

    if (traced) tracer().start(kKeepSpans);
    const std::int64_t cpu0 = process_cpu_ns();
    const std::int64_t w0 = now_ns();
    r.events = engine.drive(scheduler);
    r.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
    r.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0);
    if (traced) {
      r.totals = tracer().stop();
      spans_ = tracer().spans();
    }

    for (std::size_t d = 0; d < kDevices; ++d) {
      Device& dev = *devices[d];
      r.fixes += dev.outputs.size();
      r.deliveries += dev.graph.deliveries();
      r.provenance += dev.provenance;
      const sim::LinkStats& up = network.stats(dev.mobile, dev.server);
      const sim::LinkStats& down = network.stats(dev.server, dev.mobile);
      r.radio_msgs += up.messages_sent + down.messages_sent;
      r.wire_bytes += up.bytes_sent + down.bytes_sent;
      for (auto* e : dev.egress) {
        r.accepted += e->accepted();
        r.retransmits += e->retransmits();
        r.gave_up += e->gave_up();
      }
      for (auto* i : dev.ingress) {
        r.received += i->received();
        r.duplicates += i->duplicates();
      }
      r.latency_us.insert(r.latency_us.end(), dev.latency_us.begin(),
                          dev.latency_us.end());
      r.outputs.push_back(std::move(dev.outputs));
    }
    return r;
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }
  /// Queue waits (post -> start) of the delivery tasks of the last run.
  const std::vector<double>& waits() const noexcept { return waits_; }

 private:
  void assemble(Device& dev, std::size_t index, exec::ExecutionEngine& engine,
                sim::Random& random) {
    core::ProcessingGraph& g = dev.graph;
    obs::ObservabilityConfig obs_config;
    obs_config.metrics = true;
    obs_config.timing = false;
    obs_config.latency = true;
    obs_config.latency_slo_us = 50'000.0;
    g.enable_observability(obs_config);

    dev.source = std::make_shared<core::SourceComponent>(
        "GPS", std::vector<core::DataSpec>{core::provide<core::RawFragment>()});
    const auto src = g.add(dev.source);
    const auto parser = g.add(std::make_shared<sensors::NmeaParser>());
    const auto interp = g.add(std::make_shared<sensors::NmeaInterpreter>());
    fusion::ParticleFilterConfig pf_config;
    pf_config.particle_count = kParticles;
    auto pf = std::make_shared<fusion::ParticleFilterComponent>(pf_config, random,
                                                                frame());
    const auto pfid = g.add(pf);
    g.connect(src, parser);
    g.connect(parser, interp);
    g.connect(interp, pfid);
    g.attach_feature(parser, std::make_shared<fusion::HdopFeature>());
    if (probes_) {
      g.attach_feature(src, std::make_shared<ProbeFeature>(Layer::kSource));
      g.attach_feature(parser, std::make_shared<ProbeFeature>(Layer::kParser));
      g.attach_feature(interp, std::make_shared<ProbeFeature>(Layer::kInterpreter));
      g.attach_feature(pfid, std::make_shared<ProbeFeature>(Layer::kParticle));
    }
    dev.service.advertise(pfid, core::ProviderAdvertisement{"GPS+PF", 3.0});
    core::LocationProvider& provider = dev.service.request_provider(core::Criteria{});
    if (probes_) {
      g.attach_feature(provider.sink_id(), std::make_shared<ProbeFeature>(Layer::kPl));
    }
    Device* d = &dev;
    provider.add_listener([d](const core::PositionFix& fix, const core::Sample& s) {
      Tracer::record(Ev::kListener);
      d->latency_us.push_back(static_cast<double>(now_ns() - g_ingress_ns) / 1000.0);
      d->outputs.push_back(Output{fix.position.latitude_deg,
                                  fix.position.longitude_deg,
                                  fix.horizontal_accuracy_m,
                                  d->likelihood->current_sigma_m()});
      d->provenance += s.inputs ? static_cast<double>(s.inputs->size()) : 0.0;
    });

    const std::string tag = std::to_string(index);
    dev.mobile = dev.deployment.add_host("mobile-" + tag);
    dev.server = dev.deployment.add_host("server-" + tag);
    sim::LinkConfig radio;
    radio.latency = sim::SimTime::from_millis(40);
    radio.loss_probability = 0.05;
    radio.latency_jitter = sim::SimTime::from_millis(15);
    dev.deployment.network().set_link(dev.mobile, dev.server, radio);
    dev.deployment.network().set_link(dev.server, dev.mobile, radio);
    dev.deployment.assign(src, dev.mobile);
    for (core::ComponentId id : {parser, interp, pfid, provider.sink_id()}) {
      dev.deployment.assign(id, dev.server);
    }
    dev.deployment.set_link_factory(timed_link_factory());
    dev.deployment.deploy();
    const exec::LaneId lane = engine.create_lane("device-" + tag);
    std::vector<double>* waits = &waits_;
    auto executor = [&engine, lane, waits](std::function<void()> fn) {
      const std::int64_t posted = now_ns();
      engine.post(lane, [fn = std::move(fn), posted, waits] {
        waits->push_back(static_cast<double>(now_ns() - posted) / 1000.0);
        Tracer::begin_root(0);
        fn();
        Tracer::end_root();
      });
    };
    dev.deployment.set_executor(dev.mobile, executor);
    dev.deployment.set_executor(dev.server, executor);
    for (core::ComponentId id : g.components()) {
      if (auto* e = g.component_as<health::ReliableEgress>(id)) {
        dev.egress.push_back(e);
        if (probes_) g.attach_feature(id, std::make_shared<ProbeFeature>(Layer::kEgress));
      }
      if (auto* i = g.component_as<health::ReliableIngress>(id)) {
        dev.ingress.push_back(i);
        if (probes_) g.attach_feature(id, std::make_shared<ProbeFeature>(Layer::kIngress));
      }
    }

    core::Channel* channel = dev.channels.channel_containing(interp);
    if (channel == nullptr) throw std::runtime_error("remote_tracking: no channel");
    dev.likelihood = std::make_shared<fusion::HdopLikelihoodFeature>(frame());
    if (probes_) {
      dev.channels.attach_feature(*channel, std::make_shared<ChannelProbe>(true));
    }
    dev.channels.attach_feature(*channel, dev.likelihood);
    if (probes_) {
      dev.channels.attach_feature(*channel, std::make_shared<ChannelProbe>(false));
    }
    pf->set_channel_manager(&dev.channels);
  }

  const std::vector<sensors::Trace>& traces_;
  std::uint64_t seed_;
  bool probes_;
  std::vector<Span> spans_;
  std::vector<double> waits_;
};

/// Outputs that differ from the reference, plus lost or extra ones.
std::uint64_t mismatches(const std::vector<std::vector<Output>>& reference,
                         const std::vector<std::vector<Output>>& got) {
  std::uint64_t bad = 0;
  for (std::size_t d = 0; d < reference.size(); ++d) {
    const auto& a = reference[d];
    const auto& b = got[d];
    const std::size_t common = std::min(a.size(), b.size());
    for (std::size_t i = 0; i < common; ++i) bad += a[i] == b[i] ? 0 : 1;
    bad += std::max(a.size(), b.size()) - common;
  }
  return bad;
}

void account(Report& report, const ReplayResult& reference,
             const ReplayResult& r) {
  report.attempted += r.samples;
  report.failed += mismatches(reference.outputs, r.outputs) + r.gave_up;
}

}  // namespace

void run_remote_tracking(const Options& options, Report& report) {
  std::vector<sensors::Trace> traces;
  for (std::size_t d = 0; d < kDevices; ++d) {
    traces.push_back(record_trace(options.seed, d));
  }
  Replay plain(traces, options.seed, false);
  const ReplayResult reference = plain.run(false);
  if (reference.fixes == 0) {
    report.problem("remote_tracking: the reference replay produced no fixes");
    return;
  }

  if (!options.trace) {
    // Per-replay values; each rate and cost is the quiet() estimate over
    // the replays.
    std::vector<double> setup, tput, cpu, p99;
    std::vector<std::vector<double>> latencies;
    const std::int64_t start = now_ns();
    while (setup.size() < kMinReplays ||
           static_cast<double>(now_ns() - start) / 1e9 < options.seconds) {
      const ReplayResult r = plain.run(false);
      account(report, reference, r);
      setup.push_back(r.setup_s);
      tput.push_back(static_cast<double>(r.samples) / r.wall_s);
      cpu.push_back(r.cpu_ns / static_cast<double>(r.samples));
      p99.push_back(percentile(r.latency_us, 0.99));
      latencies.push_back(r.latency_us);
    }
    // Latency percentiles over the pooled quietest tenth of the replays,
    // ranked by their p99: a host stall spoils the tail of its replay.
    std::vector<double> pool;
    for (std::size_t i : quietest(p99, 0.1)) {
      pool.insert(pool.end(), latencies[i].begin(), latencies[i].end());
    }
    report.metric("setup_s", quiet(setup, false), "s");
    report.metric("throughput_sps", quiet(tput, true), "samples/s");
    report.metric("cpu_ns_per_sample", quiet(cpu, false), "ns");
    report.metric("latency_p50_us", percentile(pool, 0.5), "us");
    report.metric("latency_p99_us", percentile(pool, 0.99), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("replays", std::to_string(setup.size()));
    report.note("fixes_per_replay", std::to_string(reference.fixes));
    return;
  }

  // Traced run: untraced and traced replays alternate for the run's
  // duration. Layer totals accumulate over the traced replays; the counts
  // below are the same for every replay of a seed.
  Replay probed(traces, options.seed, true);
  std::vector<double> base_tput;
  std::vector<double> traced_tput;
  LayerTotals totals;
  std::uint64_t traced_samples = 0;
  double traced_wall_s = 0.0;
  ReplayResult r;
  std::vector<Span> spans;
  const std::int64_t start = now_ns();
  do {
    const ReplayResult base = plain.run(false);
    account(report, reference, base);
    base_tput.push_back(static_cast<double>(base.samples) / base.wall_s);
    ReplayResult traced = probed.run(true);
    account(report, reference, traced);
    traced_tput.push_back(static_cast<double>(traced.samples) / traced.wall_s);
    totals.merge(traced.totals);
    traced_samples += traced.samples;
    traced_wall_s += traced.wall_s;
    if (spans.empty()) {
      spans = probed.spans();
      r = std::move(traced);
    }
  } while (static_cast<double>(now_ns() - start) / 1e9 < options.seconds);
  const auto per_fix = [&](double v) {
    return r.fixes == 0 ? 0.0 : v / static_cast<double>(r.fixes);
  };
  report_layers(report, totals, traced_samples);
  report.metric("core.psl.deliveries_per_sample",
                static_cast<double>(r.deliveries) / static_cast<double>(r.samples),
                "count");
  report.metric("core.provenance.inputs_per_fix", per_fix(r.provenance), "count");
  report.metric("health.retransmits_per_msg",
                r.accepted == 0 ? 0.0
                                : static_cast<double>(r.retransmits) /
                                      static_cast<double>(r.accepted),
                "ratio");
  report.metric("health.duplicates_per_msg",
                r.received == 0 ? 0.0
                                : static_cast<double>(r.duplicates) /
                                      static_cast<double>(r.received),
                "ratio");
  report.metric("health.radio_msgs_per_fix",
                per_fix(static_cast<double>(r.radio_msgs)), "count");
  report.metric("sim.wire_bytes_per_fix", per_fix(static_cast<double>(r.wire_bytes)),
                "bytes");
  report.metric("sim.events_per_fix", per_fix(static_cast<double>(r.events)),
                "count");
  report.metric("obs.scrape_us", median(r.scrape_us), "us");
  report.metric("exec.queue_wait_p50_us", percentile(probed.waits(), 0.5), "us");
  report.metric("exec.queue_wait_p99_us", percentile(probed.waits(), 0.99), "us");
  report.metric("runtime.assemble_ms", r.assemble_ms, "ms");
  report.metric("exec.busy_frac", totals.root_ns / (traced_wall_s * 1e9), "ratio");
  report.metric("trace.overhead_frac",
                1.0 - median(traced_tput) / median(base_tput), "ratio");
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (write_spans(path, spans)) report.note("trace_file", path);
  }
}

}  // namespace perfbench
