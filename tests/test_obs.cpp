// Tests for the observability subsystem: the metrics registry and its
// exporters, graph instrumentation (counters, veto/rejection accounting,
// on_input latency histograms), flow traces from the flight ring whose
// arrows must mirror sample provenance, the Trace Channel Feature at the
// PCL and the provider-level counters at the Positioning Layer.

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/feature.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/core/positioning.hpp"
#include "perpos/core/trace_feature.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/geo/coordinates.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/introspection.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/sim/clock.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <regex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace core = perpos::core;
namespace obs = perpos::obs;
namespace sim = perpos::sim;
using core::Payload;
using core::Sample;

namespace {

struct Value {
  int n = 0;
};
struct Other {
  int n = 0;
};

std::shared_ptr<core::SourceComponent> make_source() {
  return std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<Value>()});
}

std::shared_ptr<core::LambdaComponent> make_relay() {
  return std::make_shared<core::LambdaComponent>(
      "Relay", std::vector<core::InputRequirement>{core::require<Value>()},
      std::vector<core::DataSpec>{core::provide<Value>()},
      [](const Sample& s, const core::ComponentContext& ctx) {
        ctx.emit(s.payload);
      });
}

std::string id_str(core::ComponentId id) { return std::to_string(id); }

}  // namespace

// --- Registry / exporter basics ---------------------------------------------

TEST(MetricsRegistry, CounterFindOrCreateReturnsStableHandle) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("x_total", {{"k", "v"}});
  obs::Counter* b = registry.counter("x_total", {{"k", "v"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, registry.counter("x_total", {{"k", "w"}}));
  EXPECT_NE(a, registry.counter("y_total", {{"k", "v"}}));
  a->inc();
  a->inc(4);
  EXPECT_EQ(b->value(), 5u);
}

TEST(MetricsRegistry, LabelOrderDoesNotMatter) {
  obs::MetricsRegistry registry;
  obs::Counter* a = registry.counter("x_total", {{"a", "1"}, {"b", "2"}});
  obs::Counter* b = registry.counter("x_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(MetricsRegistry, SnapshotFindByNameAndLabel) {
  obs::MetricsRegistry registry;
  registry.counter("hits_total", {{"component", "3"}})->inc(7);
  registry.gauge("level")->set(2.5);
  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto* c = snap.find_counter("hits_total", "component", "3");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->value, 7u);
  EXPECT_EQ(snap.find_counter("hits_total", "component", "4"), nullptr);
  const auto* g = snap.find_gauge("level");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->value, 2.5);
}

TEST(MetricsRegistry, HistogramBucketsCountAndQuantile) {
  obs::MetricsRegistry registry;
  obs::Histogram* h =
      registry.histogram("lat_us", {}, {1.0, 10.0, 100.0});
  for (int i = 1; i <= 100; ++i) h->observe(static_cast<double>(i));
  EXPECT_EQ(h->count(), 100u);
  EXPECT_DOUBLE_EQ(h->sum(), 5050.0);

  const obs::MetricsSnapshot snap = registry.snapshot();
  const auto* s = snap.find_histogram("lat_us");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->buckets.size(), 4u);  // 3 bounds + implicit +Inf.
  EXPECT_EQ(s->buckets[0], 1u);      // <= 1
  EXPECT_EQ(s->buckets[1], 9u);      // (1, 10]
  EXPECT_EQ(s->buckets[2], 90u);     // (10, 100]
  EXPECT_EQ(s->buckets[3], 0u);      // > 100
  EXPECT_EQ(s->count, 100u);
  EXPECT_DOUBLE_EQ(s->mean(), 50.5);
  // Median lies in the (10, 100] bucket; interpolation keeps it inside.
  const double p50 = s->quantile(0.5);
  EXPECT_GT(p50, 10.0);
  EXPECT_LE(p50, 100.0);
  EXPECT_GE(s->quantile(1.0), s->quantile(0.0));
}

TEST(MetricsRegistry, PrometheusTextFormat) {
  // A family of three series: two from the registry and one a collector
  // appends, after the registry's other family in snapshot order.
  obs::MetricsRegistry registry;
  registry.counter("perpos_events_total", {{"component", "1"}})->inc(3);
  registry.counter("perpos_events_total", {{"component", "2"}})->inc(4);
  registry.counter("perpos_other_total")->inc();
  registry.histogram("perpos_lat_us", {}, {1.0, 2.0})->observe(1.5);
  auto handle = registry.add_collector([](obs::MetricsSnapshot& out) {
    out.counters.push_back({"perpos_events_total", {{"component", "3"}}, 5});
  });
  const std::string text = obs::to_prometheus_text(registry.snapshot());
  EXPECT_NE(text.find("# TYPE perpos_events_total counter"),
            std::string::npos);
  EXPECT_NE(text.find("perpos_events_total{component=\"1\"} 3"),
            std::string::npos);
  // Histogram expands to cumulative _bucket series plus _sum/_count.
  EXPECT_NE(text.find("perpos_lat_us_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("perpos_lat_us_count 1"), std::string::npos);

  // One # TYPE line per family, its series right after it.
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  std::vector<std::size_t> type_lines;
  std::vector<std::size_t> series;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (lines[i] == "# TYPE perpos_events_total counter") {
      type_lines.push_back(i);
    }
    if (lines[i].rfind("perpos_events_total{", 0) == 0) series.push_back(i);
  }
  ASSERT_EQ(type_lines.size(), 1u) << text;
  ASSERT_EQ(series.size(), 3u) << text;
  for (std::size_t i = 0; i < series.size(); ++i) {
    EXPECT_EQ(series[i], type_lines.front() + 1 + i) << text;
  }
  EXPECT_EQ(lines[series[2]], "perpos_events_total{component=\"3\"} 5");
  EXPECT_EQ(std::count(text.begin(), text.end(), '#'), 3) << text;
}

TEST(MetricsRegistry, JsonExportIsWellFormedAndComplete) {
  obs::MetricsRegistry registry;
  registry.counter("c_total")->inc();
  registry.gauge("g")->set(1.0);
  registry.histogram("h", {}, {1.0})->observe(0.5);
  const std::string json = obs::to_json(registry.snapshot());
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\""), std::string::npos);
  // Balanced braces/brackets — cheap structural sanity check.
  int braces = 0, brackets = 0;
  for (char ch : json) {
    braces += (ch == '{') - (ch == '}');
    brackets += (ch == '[') - (ch == ']');
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(MetricsRegistry, EscapeJsonHandlesSpecials) {
  EXPECT_EQ(obs::escape_json("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

// --- Graph instrumentation ---------------------------------------------------

TEST(MetricsRegistry, CollectorRunsUntilItsHandleIsReleased) {
  obs::MetricsRegistry registry;
  registry.counter("pushed_total")->inc(2);
  int runs = 0;
  auto handle = registry.add_collector([&](obs::MetricsSnapshot& out) {
    ++runs;
    out.counters.push_back({"collected_total", {}, 7});
  });
  const auto with = registry.snapshot();
  ASSERT_NE(with.find_counter("collected_total"), nullptr);
  EXPECT_EQ(with.find_counter("collected_total")->value, 7u);
  EXPECT_EQ(with.find_counter("pushed_total")->value, 2u);
  handle.reset();
  const auto without = registry.snapshot();
  EXPECT_EQ(without.find_counter("collected_total"), nullptr);
  EXPECT_EQ(runs, 1);
}

TEST(MetricsRegistry, CollectorHandleMayOutliveItsRegistry) {
  obs::MetricsRegistry::CollectorHandle handle;
  {
    obs::MetricsRegistry registry;
    handle = registry.add_collector([](obs::MetricsSnapshot&) {});
  }
  handle.reset();  // The registry is gone: releasing is a no-op.
  EXPECT_EQ(handle.use_count(), 0);
}

TEST(GraphObservability, DisabledByDefaultAndMetricsEmpty) {
  core::ProcessingGraph graph;
  EXPECT_FALSE(graph.observability_enabled());
  EXPECT_EQ(graph.metrics_registry(), nullptr);
  EXPECT_EQ(graph.flight_recorder(), nullptr);
  auto source = make_source();
  graph.connect(graph.add(source),
                graph.add(std::make_shared<core::ApplicationSink>()));
  source->push(Value{1});
  const obs::MetricsSnapshot snap = graph.metrics();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(GraphObservability, EmittedAndDeliveredCounters) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  auto relay = make_relay();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  const auto b = graph.add(relay);
  const auto z = graph.add(sink);
  graph.connect(a, b);
  graph.connect(b, z);

  for (int i = 0; i < 5; ++i) source->push(Value{i});

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* src_emitted = snap.find_counter("perpos_component_emitted_total",
                                              "component", id_str(a));
  const auto* relay_delivered = snap.find_counter(
      "perpos_component_delivered_total", "component", id_str(b));
  const auto* sink_delivered = snap.find_counter(
      "perpos_component_delivered_total", "component", id_str(z));
  ASSERT_NE(src_emitted, nullptr);
  ASSERT_NE(relay_delivered, nullptr);
  ASSERT_NE(sink_delivered, nullptr);
  EXPECT_EQ(src_emitted->value, 5u);
  EXPECT_EQ(relay_delivered->value, 5u);
  EXPECT_EQ(sink_delivered->value, 5u);
  // Counters agree with the graph's own bookkeeping.
  EXPECT_EQ(src_emitted->value, graph.info(a).emitted);

  const auto* total = snap.find_counter("perpos_graph_deliveries_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 10u);  // relay + sink.
}

TEST(GraphObservability, OnInputLatencyHistogramPopulated) {
  core::ProcessingGraph graph;
  graph.enable_observability();  // metrics + timing on by default.
  auto source = make_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  const auto z = graph.add(sink);
  graph.connect(a, z);
  for (int i = 0; i < 8; ++i) source->push(Value{i});

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* h = snap.find_histogram("perpos_component_on_input_us",
                                      "component", id_str(z));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 8u);
  EXPECT_GE(h->sum, 0.0);
}

TEST(GraphObservability, TimingOffSkipsHistograms) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg;
  cfg.timing = false;
  graph.enable_observability(cfg);
  auto source = make_source();
  const auto a = graph.add(source);
  const auto z = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(a, z);
  source->push(Value{1});

  const obs::MetricsSnapshot snap = graph.metrics();
  EXPECT_EQ(snap.find_histogram("perpos_component_on_input_us", "component",
                                id_str(z)),
            nullptr);
  // Counters still flow.
  EXPECT_NE(snap.find_counter("perpos_component_delivered_total", "component",
                              id_str(z)),
            nullptr);
}

TEST(GraphObservability, RejectionCounter) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  // Source offers Value and Other; the sink only accepts Value, so every
  // Other emission is rejected at delivery time.
  auto source = std::make_shared<core::SourceComponent>(
      "Src", std::vector<core::DataSpec>{core::provide<Value>(),
                                         core::provide<Other>()});
  auto sink = std::make_shared<core::ApplicationSink>(
      "App", std::vector<core::InputRequirement>{core::require<Value>()});
  const auto a = graph.add(source);
  const auto z = graph.add(sink);
  graph.connect(a, z);

  source->push(Value{1});
  source->push(Other{2});
  source->push(Other{3});

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* rejected = snap.find_counter("perpos_component_rejected_total",
                                           "component", id_str(z));
  ASSERT_NE(rejected, nullptr);
  EXPECT_EQ(rejected->value, 2u);
  const auto* total = snap.find_counter("perpos_graph_rejections_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->value, 2u);
}

namespace {

/// Vetoes every second outgoing sample.
class DropEverySecond final : public core::ComponentFeature {
 public:
  std::string_view name() const override { return "DropEverySecond"; }
  bool produce(Sample&) override { return (++n_ % 2) != 0; }

 private:
  int n_ = 0;
};

}  // namespace

TEST(GraphObservability, ProduceVetoCounterAndFeatureTiming) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  graph.attach_feature(a, std::make_shared<DropEverySecond>());

  for (int i = 0; i < 6; ++i) source->push(Value{i});

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* vetoed = snap.find_counter(
      "perpos_component_produce_vetoed_total", "component", id_str(a));
  ASSERT_NE(vetoed, nullptr);
  EXPECT_EQ(vetoed->value, 3u);
  const auto* emitted = snap.find_counter("perpos_component_emitted_total",
                                          "component", id_str(a));
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->value, 3u);
  // The produce hook itself was timed (6 invocations).
  const auto* hook = snap.find_histogram("perpos_feature_produce_us",
                                         "feature", "DropEverySecond");
  ASSERT_NE(hook, nullptr);
  EXPECT_EQ(hook->count, 6u);
}

TEST(GraphObservability, ReplaceRelabelsFeatureHookHistograms) {
  // After replace() the host's hook histograms carry the successor's kind,
  // like its component counters: one emission as Old, two as New.
  struct Tag final : core::ComponentFeature {
    std::string_view name() const override { return "Tag"; }
  };
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto old_source = std::make_shared<core::SourceComponent>(
      "Old", std::vector<core::DataSpec>{core::provide<Value>()});
  const auto a = graph.add(old_source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  graph.attach_feature(a, std::make_shared<Tag>());
  old_source->push(Value{1});
  auto new_source = std::make_shared<core::SourceComponent>(
      "New", std::vector<core::DataSpec>{core::provide<Value>()});
  graph.replace(a, new_source, core::ReplaceHandoff::kNone);
  new_source->push(Value{2});
  new_source->push(Value{3});

  const obs::MetricsSnapshot snap = graph.metrics();
  for (const auto& [kind, n] : {std::pair<const char*, std::uint64_t>{"Old", 1},
                                {"New", 2}}) {
    SCOPED_TRACE(kind);
    const auto* emitted =
        snap.find_counter("perpos_component_emitted_total", "kind", kind);
    ASSERT_NE(emitted, nullptr);
    EXPECT_EQ(emitted->value, n);
    const auto* hook =
        snap.find_histogram("perpos_feature_produce_us", "kind", kind);
    ASSERT_NE(hook, nullptr);
    EXPECT_EQ(hook->count, n);
  }
}

TEST(GraphObservability, MetricsOffExportsNoCounts) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg;
  cfg.metrics = false;
  cfg.timing = true;
  graph.enable_observability(cfg);
  auto source = make_source();
  const auto z = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(graph.add(source), z);
  for (int i = 0; i < 3; ++i) source->push(Value{i});

  const obs::MetricsSnapshot snap = graph.metrics();
  auto is_count = [](const std::string& name) {
    return name.rfind("perpos_graph_", 0) == 0 ||
           (name.rfind("perpos_component_", 0) == 0 &&
            name.size() > 6 && name.substr(name.size() - 6) == "_total");
  };
  for (const auto& c : snap.counters) EXPECT_FALSE(is_count(c.name)) << c.name;
  for (const auto& g : snap.gauges) EXPECT_FALSE(is_count(g.name)) << g.name;
  // Timing still observes the sink's on_input.
  const auto* h = snap.find_histogram("perpos_component_on_input_us",
                                      "component", id_str(z));
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
}

namespace {

/// Every series of counter `name` labelled kind=`kind`.
std::vector<const obs::CounterSnapshot*> counters_of_kind(
    const obs::MetricsSnapshot& snap, std::string_view name,
    std::string_view kind) {
  std::vector<const obs::CounterSnapshot*> out;
  for (const auto& c : snap.counters) {
    if (c.name != name) continue;
    for (const auto& [k, v] : c.labels) {
      if (k == "kind" && v == kind) out.push_back(&c);
    }
  }
  return out;
}

}  // namespace

TEST(GraphObservability, ReplaceKeepsOneSeriesPerKindAndRemovalKeepsIt) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source_of = [](const char* kind) {
    return std::make_shared<core::SourceComponent>(
        kind, std::vector<core::DataSpec>{core::provide<Value>()});
  };
  auto old_source = source_of("Old");
  const auto a = graph.add(old_source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  old_source->push(Value{1});
  auto new_source = source_of("New");
  graph.replace(a, new_source, core::ReplaceHandoff::kNone);
  for (int i = 0; i < 2; ++i) new_source->push(Value{i});
  auto again = source_of("Old");
  graph.replace(a, again, core::ReplaceHandoff::kNone);
  for (int i = 0; i < 3; ++i) again->push(Value{i});

  auto expect_series = [&](const obs::MetricsSnapshot& snap) {
    for (const auto& [kind, n] :
         {std::pair<const char*, std::uint64_t>{"Old", 4}, {"New", 2}}) {
      SCOPED_TRACE(kind);
      const auto series =
          counters_of_kind(snap, "perpos_component_emitted_total", kind);
      ASSERT_EQ(series.size(), 1u);
      EXPECT_EQ(series.front()->value, n);
      const auto& labels = series.front()->labels;
      EXPECT_NE(std::find(labels.begin(), labels.end(),
                          std::pair<std::string, std::string>{"component",
                                                              id_str(a)}),
                labels.end());
    }
  };
  const obs::MetricsSnapshot live = graph.metrics();
  expect_series(live);

  graph.remove(a);
  const obs::MetricsSnapshot removed = graph.metrics();
  expect_series(removed);
  const auto* components = removed.find_gauge("perpos_graph_components");
  ASSERT_NE(components, nullptr);
  EXPECT_DOUBLE_EQ(components->value, 1.0);
}

TEST(GraphObservability, ConcurrentScrapesReadTheGraphsOwnCounts) {
  // One thread scrapes while an engine lane, the graph's only thread,
  // dispatches and adds, replaces and removes components. At idle the
  // exported counts are the graph's own.
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  const auto a = graph.add(source);
  const auto b = graph.add(make_relay());
  graph.connect(a, b);
  graph.connect(b, graph.add(std::make_shared<core::ApplicationSink>()));

  perpos::exec::ExecutionEngine engine(2);
  const auto lane = engine.create_lane("graph");
  std::atomic<bool> done{false};
  std::thread scraper([&] {
    do {
      const obs::MetricsSnapshot snap = graph.metrics();
      EXPECT_FALSE(obs::to_prometheus_text(snap).empty());
    } while (!done.load());
  });
  for (int round = 0; round < 100; ++round) {
    engine.post(lane, [&, round] {
      for (int i = 0; i < 4; ++i) source->push(Value{i});
      const auto tap = graph.add(make_relay());
      graph.connect(b, tap);
      source->push(Value{round});
      auto successor = std::make_shared<core::LambdaComponent>(
          "Tap", std::vector<core::InputRequirement>{core::require<Value>()},
          std::vector<core::DataSpec>{core::provide<Value>()},
          [](const Sample& s, const core::ComponentContext& ctx) {
            ctx.emit(s.payload);
          });
      graph.replace(tap, successor, core::ReplaceHandoff::kNone);
      source->push(Value{round});
      if (round % 2 == 0) graph.remove(tap);
    });
  }
  engine.run_until_idle();
  done = true;
  scraper.join();

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* deliveries = snap.find_counter("perpos_graph_deliveries_total");
  ASSERT_NE(deliveries, nullptr);
  EXPECT_EQ(deliveries->value, graph.deliveries());
  EXPECT_GT(graph.deliveries(), 0u);
  for (const core::ComponentId id : graph.components()) {
    SCOPED_TRACE(id);
    std::uint64_t emitted = 0;
    for (const auto& c : snap.counters) {
      if (c.name == "perpos_component_emitted_total" &&
          c.labels.front().second == id_str(id)) {
        emitted += c.value;
      }
    }
    EXPECT_EQ(emitted, graph.info(id).emitted);
  }
}

TEST(GraphObservability, MetricsSourcesSurviveReEnablesAndCountFromThem) {
  // An owner that is not a graph entry exports its own count through the
  // graph: read at scrape, counting from the moment metrics are switched
  // on, registered across disable/enable, gone once its handle is.
  core::ProcessingGraph graph;
  auto source = make_source();
  graph.connect(graph.add(source),
                graph.add(std::make_shared<core::ApplicationSink>()));
  obs::Tally events;
  bool saw_graph_series = false;
  obs::CollectorHandle handle =
      graph.add_metrics_source([&](obs::MetricsSnapshot& out) {
        saw_graph_series = out.find_counter("perpos_graph_deliveries_total");
        out.counters.push_back({"owner_events_total", {}, events.get()});
        out.gauges.push_back({"owner_level", {}, 7.0});
      });
  const auto value = [&graph]() -> std::uint64_t {
    const obs::MetricsSnapshot snap = graph.metrics();
    const auto* c = snap.find_counter("owner_events_total");
    return c != nullptr ? c->value : ~0ull;
  };

  events.add(3);
  EXPECT_TRUE(graph.metrics().empty());  // Observability off: no scrape.
  graph.enable_observability();
  source->push(Value{1});
  EXPECT_EQ(value(), 0u);
  EXPECT_TRUE(saw_graph_series);  // Sources run after the graph's series.
  events.add(2);
  EXPECT_EQ(value(), 2u);
  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* level = snap.find_gauge("owner_level");
  ASSERT_NE(level, nullptr);
  EXPECT_DOUBLE_EQ(level->value, 7.0);

  graph.disable_observability();
  graph.enable_observability();
  EXPECT_EQ(value(), 0u);
  events.add();
  EXPECT_EQ(value(), 1u);

  // A source registered while metrics are on counts from its own zero.
  obs::Tally late;
  late.add(4);
  const obs::CollectorHandle late_handle =
      graph.add_metrics_source([&](obs::MetricsSnapshot& out) {
        out.counters.push_back({"late_events_total", {}, late.get()});
      });
  const obs::MetricsSnapshot with_late = graph.metrics();
  const auto* late_series = with_late.find_counter("late_events_total");
  ASSERT_NE(late_series, nullptr);
  EXPECT_EQ(late_series->value, 4u);

  handle.reset();
  EXPECT_EQ(value(), ~0ull);
}

TEST(GraphObservability, MutationCounterAndComponentsGauge) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  const auto a = graph.add(source);
  const auto z = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(a, z);

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* mutations = snap.find_counter("perpos_graph_mutations_total");
  ASSERT_NE(mutations, nullptr);
  EXPECT_GE(mutations->value, 3u);  // two adds + one connect.
  const auto* components = snap.find_gauge("perpos_graph_components");
  ASSERT_NE(components, nullptr);
  EXPECT_DOUBLE_EQ(components->value, 2.0);
}

TEST(GraphObservability, DisableClearsRegistryAccessors) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  source->push(Value{1});
  EXPECT_FALSE(graph.metrics().counters.empty());

  graph.disable_observability();
  EXPECT_FALSE(graph.observability_enabled());
  EXPECT_EQ(graph.metrics_registry(), nullptr);
  EXPECT_TRUE(graph.metrics().counters.empty());

  // Re-enabling starts a fresh registry and keeps counting.
  graph.enable_observability();
  source->push(Value{2});
  const auto snap = graph.metrics();  // Keep alive: find_counter borrows.
  const auto* emitted = snap.find_counter(
      "perpos_component_emitted_total", "component", id_str(a));
  ASSERT_NE(emitted, nullptr);
  EXPECT_EQ(emitted->value, 1u);
}

// --- Flow tracing ------------------------------------------------------------

namespace {

/// Checks that every flow arrow of a flight Chrome trace has one start and
/// one end, that it ends on a deliver slice, and that it starts on the
/// emit slice of the sample that delivery carried. Returns the number of
/// arrows.
std::size_t expect_arrows_join_emit_to_deliver(const std::string& json) {
  static const std::regex slice(
      R"re(\{"name":"(emit|deliver)","ph":"X","dur":0,"pid":1,"tid":\d+,)re"
      R"re("ts":([0-9.]+),"args":\{"graph":\d+,"component":(\d+),)re"
      R"re("a":(\d+),"b":(\d+)\}\})re");
  static const std::regex flow(
      R"re("ph":"([sf])",(?:"bp":"e",)?"id":(\d+),"pid":1,"tid":\d+,)re"
      R"re("ts":([0-9.]+))re");
  using SampleId = std::pair<std::string, std::string>;  // (producer, seq)
  std::map<SampleId, std::string> emitted_at;  // Sample -> emit slice ts.
  std::map<std::string, SampleId> delivered_at;  // Deliver slice ts -> sample.
  for (std::sregex_iterator it(json.begin(), json.end(), slice), end;
       it != end; ++it) {
    const std::smatch& m = *it;
    if (m[1] == "emit") {
      emitted_at[{m[3], m[4]}] = m[2];
    } else {
      delivered_at[m[2]] = {m[4], m[5]};
    }
  }
  std::map<std::string, std::pair<std::string, std::string>> arrows;
  for (std::sregex_iterator it(json.begin(), json.end(), flow), end;
       it != end; ++it) {
    const std::smatch& m = *it;
    std::string& ts = m[1] == "s" ? arrows[m[2]].first : arrows[m[2]].second;
    EXPECT_TRUE(ts.empty()) << "flow " << m[2] << " has two '" << m[1]
                            << "' events";
    ts = m[3];
  }
  for (const auto& [id, ends] : arrows) {
    const auto delivery = delivered_at.find(ends.second);
    if (delivery == delivered_at.end()) {
      ADD_FAILURE() << "flow " << id << " does not end on a delivery";
      continue;
    }
    const auto emission = emitted_at.find(delivery->second);
    EXPECT_TRUE(emission != emitted_at.end() && emission->second == ends.first)
        << "flow " << id << " does not start at its sample's emission";
  }
  return arrows.size();
}

obs::ObservabilityConfig recording_only() {
  obs::ObservabilityConfig cfg;
  cfg.metrics = false;
  cfg.timing = false;
  cfg.recording = true;
  return cfg;
}

}  // namespace

TEST(FlowTracing, FlowArrowsMirrorProvenanceChain) {
  core::ProcessingGraph graph;
  graph.enable_observability(recording_only());

  auto source = make_source();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  core::ComponentId prev = a;
  for (int i = 0; i < 3; ++i) {
    const auto mid = graph.add(make_relay());
    graph.connect(prev, mid);
    prev = mid;
  }
  const auto z = graph.add(sink);
  graph.connect(prev, z);

  source->push(Value{7});

  ASSERT_NE(graph.flight_recorder(), nullptr);
  ASSERT_TRUE(sink->last().has_value());

  // Walk the provenance chain of the delivered sample: each hop was
  // re-emitted by one relay, so following `inputs` front-first yields the
  // producers sink <- relay3 <- relay2 <- relay1 <- source.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> provenance;
  const Sample* node = &*sink->last();
  while (node != nullptr) {
    provenance.emplace_back(node->producer, node->sequence);
    node = (node->inputs != nullptr && !node->inputs->empty())
               ? &node->inputs->front()
               : nullptr;
  }
  ASSERT_EQ(provenance.size(), 4u);  // source + 3 relays.

  // Now walk the flight stream back from the sink's delivery. A kDeliver
  // names the sample (a = producer, b = sequence); the matching kEmit is
  // where it was produced, and the producer's last delivery before that
  // emit is the input it was produced from. The source's emission has no
  // delivery before it: an external push roots the chain.
  const std::vector<obs::FlightEvent> events =
      graph.flight_recorder()->merged_events();
  constexpr std::size_t kNone = ~std::size_t{0};
  const auto find_back = [&](std::size_t before, const auto& match) {
    for (std::size_t i = before; i-- > 0;) {
      if (match(events[i])) return i;
    }
    return kNone;
  };
  const auto delivery_to = [&](std::size_t before, std::uint64_t consumer) {
    return find_back(before, [&](const obs::FlightEvent& e) {
      return e.type == obs::FlightEventType::kDeliver &&
             e.component == consumer;
    });
  };
  std::vector<std::pair<std::uint64_t, std::uint64_t>> walked;
  for (std::size_t at = delivery_to(events.size(), z); at != kNone;) {
    const obs::FlightEvent& delivery = events[at];
    walked.emplace_back(delivery.a, delivery.b);
    const std::size_t emit =
        find_back(at, [&](const obs::FlightEvent& e) {
          return e.type == obs::FlightEventType::kEmit &&
                 e.component == delivery.a && e.a == delivery.b;
        });
    ASSERT_NE(emit, kNone);
    at = delivery_to(emit, delivery.a);
  }
  EXPECT_EQ(walked, provenance);

  // The Chrome trace joins each of the four hops with one flow arrow.
  EXPECT_EQ(expect_arrows_join_emit_to_deliver(
                graph.flight_recorder()->dump_chrome_trace()),
            4u);
}

TEST(FlowTracing, FanOutGivesEachConsumerItsOwnFlow) {
  core::ProcessingGraph graph;
  graph.enable_observability(recording_only());
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  source->push(Value{1});

  // One emission, two deliveries: two distinct arrows from the same emit.
  EXPECT_EQ(expect_arrows_join_emit_to_deliver(
                graph.flight_recorder()->dump_chrome_trace()),
            2u);
}

TEST(FlowTracing, ChromeTraceJsonContainsEvents) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg;
  cfg.recording = true;
  graph.enable_observability(cfg);
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  source->push(Value{1});

  const std::string json = graph.flight_recorder()->dump_chrome_trace();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Emit and deliver are zero-duration slices the flow arrow binds to.
  EXPECT_NE(json.find("\"name\":\"emit\",\"ph\":\"X\",\"dur\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"name\":\"deliver\",\"ph\":\"X\",\"dur\":0"),
            std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"f\",\"bp\":\"e\""), std::string::npos);
  EXPECT_NE(json.find("\"droppedEvents\":0"), std::string::npos);
}

TEST(FlowTracing, RingBufferBoundsRetainedSpans) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg = recording_only();
  cfg.recorder_capacity = 16;
  graph.enable_observability(cfg);
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  for (int i = 0; i < 100; ++i) source->push(Value{i});

  const obs::FlightRecorder& recorder = *graph.flight_recorder();
  EXPECT_LE(recorder.merged_events().size(), 16u);
  const std::uint64_t dropped = recorder.dropped(0);
  EXPECT_GT(dropped, 0u);
  const std::string json = recorder.dump_chrome_trace();
  EXPECT_NE(json.find("\"droppedEvents\":" + std::to_string(dropped)),
            std::string::npos);
  // Only deliveries whose emission is still retained get an arrow.
  const std::size_t arrows = expect_arrows_join_emit_to_deliver(json);
  EXPECT_GT(arrows, 0u);
  EXPECT_LE(arrows, 8u);
}

// --- PCL: Trace Channel Feature ---------------------------------------------

TEST(TraceChannelFeature, ReportsChannelTelemetry) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  auto relay = make_relay();
  auto sink = std::make_shared<core::ApplicationSink>();
  const auto a = graph.add(source);
  const auto b = graph.add(relay);
  const auto z = graph.add(sink);
  graph.connect(a, b);
  graph.connect(b, z);

  core::ChannelManager channels(graph);
  ASSERT_FALSE(channels.channels().empty());
  auto feature = std::make_shared<core::TraceChannelFeature>("gps");
  channels.attach_feature(*channels.channels().front(), feature);

  for (int i = 0; i < 3; ++i) source->push(Value{i});

  EXPECT_EQ(feature->deliveries(), 3u);
  // The delivered tree has the sink sample on top of relay and source.
  EXPECT_GE(feature->last_tree_depth(), 2u);
  EXPECT_GE(feature->last_tree_size(), 2u);
  EXPECT_NE(feature->last_journey().find("Src"), std::string::npos);

  // The feature also publishes into the graph's registry.
  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* deliveries = snap.find_counter("perpos_channel_deliveries_total",
                                             "channel", "gps");
  ASSERT_NE(deliveries, nullptr);
  EXPECT_EQ(deliveries->value, 3u);
  EXPECT_NE(snap.find_histogram("perpos_channel_tree_depth", "channel", "gps"),
            nullptr);
}

TEST(TraceChannelFeature, CountsIntoTheRegistryOfAReEnable) {
  // Disable then enable with no delivery between: the new registry may
  // live at the old one's address, and the feature must still count into
  // it rather than into the destroyed one.
  core::ProcessingGraph graph;
  graph.enable_observability();
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  core::ChannelManager channels(graph);
  auto feature = std::make_shared<core::TraceChannelFeature>("gps");
  channels.attach_feature(*channels.channels().front(), feature);
  source->push(Value{1});

  graph.disable_observability();
  graph.enable_observability();
  source->push(Value{2});
  source->push(Value{3});
  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* deliveries = snap.find_counter("perpos_channel_deliveries_total",
                                             "channel", "gps");
  ASSERT_NE(deliveries, nullptr);
  EXPECT_EQ(deliveries->value, 2u);
}

TEST(TraceChannelFeature, WorksWithoutRegistry) {
  core::ProcessingGraph graph;  // Observability off.
  auto source = make_source();
  const auto a = graph.add(source);
  graph.connect(a, graph.add(std::make_shared<core::ApplicationSink>()));
  core::ChannelManager channels(graph);
  auto feature = std::make_shared<core::TraceChannelFeature>();
  channels.attach_feature(*channels.channels().front(), feature);
  source->push(Value{1});
  EXPECT_EQ(feature->deliveries(), 1u);  // Local telemetry still works.
}

// --- PL: provider-level counters ---------------------------------------------

namespace {

core::PositionFix fix_at_t(double t_s) {
  core::PositionFix fix;
  fix.position = perpos::geo::GeoPoint{56.0, 10.0, 0.0};
  fix.horizontal_accuracy_m = 5.0;
  fix.timestamp = sim::SimTime::from_seconds(t_s);
  fix.technology = "GPS";
  return fix;
}

}  // namespace

TEST(ProviderObservability, FixCountRateAndStaleness) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  core::ChannelManager channels(graph);
  core::PositioningService service(graph, channels);
  auto source = std::make_shared<core::SourceComponent>(
      "GPS",
      std::vector<core::DataSpec>{core::provide<core::PositionFix>()});
  graph.add(source);
  core::LocationProvider& provider =
      service.request_provider(core::Criteria{});

  EXPECT_EQ(provider.fixes(), 0u);
  EXPECT_TRUE(std::isinf(provider.staleness_s(sim::SimTime::from_seconds(5))));

  for (int i = 0; i < 5; ++i) source->push(fix_at_t(i));

  EXPECT_EQ(provider.fixes(), 5u);
  // Five fixes across 4 seconds of fix timestamps: 1 Hz.
  EXPECT_NEAR(provider.fix_rate_hz(), 1.0, 1e-9);
  EXPECT_NEAR(provider.staleness_s(sim::SimTime::from_seconds(6.5)), 2.5,
              1e-9);

  const obs::MetricsSnapshot live = graph.metrics();
  const auto* fixes = live.find_counter("perpos_provider_fixes_total");
  ASSERT_NE(fixes, nullptr);
  EXPECT_EQ(fixes->value, 5u);

  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* providers = snap.find_gauge("perpos_service_providers");
  ASSERT_NE(providers, nullptr);
  EXPECT_DOUBLE_EQ(providers->value, 1.0);
  const auto* rate = snap.find_gauge("perpos_provider_fix_rate_hz",
                                     "provider",
                                     provider.metric_label());
  ASSERT_NE(rate, nullptr);
  EXPECT_NEAR(rate->value, 1.0, 1e-9);
}

TEST(ProviderObservability, CountsIntoTheRegistryOfAReEnable) {
  core::ProcessingGraph graph;
  graph.enable_observability();
  core::ChannelManager channels(graph);
  core::PositioningService service(graph, channels);
  auto source = std::make_shared<core::SourceComponent>(
      "GPS",
      std::vector<core::DataSpec>{core::provide<core::PositionFix>()});
  graph.add(source);
  core::LocationProvider& provider =
      service.request_provider(core::Criteria{});
  source->push(fix_at_t(0));

  graph.disable_observability();
  graph.enable_observability();
  source->push(fix_at_t(1));
  source->push(fix_at_t(2));
  EXPECT_EQ(provider.fixes(), 3u);
  const obs::MetricsSnapshot snap = graph.metrics();
  const auto* fixes = snap.find_counter("perpos_provider_fixes_total",
                                        "provider", provider.metric_label());
  ASSERT_NE(fixes, nullptr);
  EXPECT_EQ(fixes->value, 2u);
}

// --- Flight recorder (the black box) -----------------------------------------

TEST(FlightRecorder, MergedEventsAreTimeOrderedAcrossLanes) {
  obs::FlightRecorder recorder(16);
  const auto a = recorder.add_lane("a");
  const auto b = recorder.add_lane("b");
  const auto mk = [](std::uint64_t t, std::uint64_t tag) {
    obs::FlightEvent e;
    e.type = obs::FlightEventType::kMark;
    e.t_ns = t;
    e.a = tag;
    return e;
  };
  // Interleaved wall-clock order, recorded out of order per lane.
  recorder.record(a, mk(30, 1));
  recorder.record(b, mk(10, 2));
  recorder.record(a, mk(50, 3));
  recorder.record(b, mk(40, 4));
  recorder.record(b, mk(30, 5));  // Same instant as lane a's first event.

  const auto merged = recorder.merged_events();
  ASSERT_EQ(merged.size(), 5u);
  std::vector<std::uint64_t> tags;
  for (const auto& e : merged) tags.push_back(e.a);
  // Sorted by t_ns; the t=30 tie is broken by lane id (a before b).
  EXPECT_EQ(tags, (std::vector<std::uint64_t>{2, 1, 5, 4, 3}));
}

TEST(FlightRecorder, RingWraparoundKeepsNewestAndCountsDropped) {
  obs::FlightRecorder recorder(4);
  const auto lane = recorder.add_lane("ring");
  for (std::uint64_t i = 0; i < 10; ++i) {
    obs::FlightEvent e;
    e.type = obs::FlightEventType::kMark;
    e.t_ns = i + 1;
    e.a = i;
    recorder.record(lane, e);
  }
  EXPECT_EQ(recorder.recorded(lane), 10u);
  EXPECT_EQ(recorder.dropped(lane), 6u);
  const auto merged = recorder.merged_events();
  ASSERT_EQ(merged.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(merged[i].a, 6u + i);
}

TEST(FlightRecorder, ConcurrentSnapshotsNeverReturnTornEvents) {
  // One writer fills a small ring with self-checksummed events while a
  // reader snapshots it in a loop: every event a snapshot returns must be
  // whole (each word from the same record() call), and in record order.
  constexpr std::uint64_t kEvents = 50000;
  obs::FlightRecorder recorder(8);
  const auto lane = recorder.add_lane("hot");
  const auto event_for = [](std::uint64_t i) {
    obs::FlightEvent e;
    e.type = obs::FlightEventType::kEmit;
    e.t_ns = i + 1;
    e.a = i;
    e.b = ~i * 0x9e3779b97f4a7c15ull;
    e.component = static_cast<std::uint32_t>(i * 7);
    e.set_detail("ev" + std::to_string(i));
    return e;
  };
  // The writer starts only after the reader's first snapshot, so the loop
  // runs at least once however the threads are scheduled.
  std::atomic<bool> reading{false};
  std::atomic<bool> done{false};
  std::thread writer([&] {
    while (!reading.load(std::memory_order_acquire)) std::this_thread::yield();
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      recorder.record(lane, event_for(i));
    }
    done.store(true, std::memory_order_release);
  });
  std::size_t snapshots = 0;
  std::size_t checked = 0;
  bool intact = true;
  while (!done.load(std::memory_order_acquire) && intact) {
    const auto events = recorder.merged_events();
    reading.store(true, std::memory_order_release);
    ++snapshots;
    for (std::size_t k = 0; k < events.size() && intact; ++k) {
      const obs::FlightEvent want = event_for(events[k].a);
      intact = events[k].t_ns == want.t_ns && events[k].b == want.b &&
               events[k].component == want.component &&
               std::string_view(events[k].detail) == want.detail &&
               (k == 0 || events[k].a > events[k - 1].a);
      ++checked;
    }
  }
  writer.join();
  EXPECT_TRUE(intact) << "torn or reordered event after " << checked
                      << " checked in " << snapshots << " snapshots";
  EXPECT_GT(snapshots, 0u);
  const auto final_events = recorder.merged_events();
  ASSERT_EQ(final_events.size(), 8u);
  EXPECT_EQ(final_events.back().a, kEvents - 1);
}

TEST(FlightRecorder, TriggerRecordsMarkAndInvokesHandler) {
  obs::FlightRecorder recorder(16);
  recorder.add_lane("main");
  std::vector<std::string> reasons;
  recorder.set_dump_handler(
      [&](const std::string& reason, const obs::FlightRecorder& r) {
        reasons.push_back(reason);
        EXPECT_EQ(&r, &recorder);
      });
  recorder.trigger("PPS004 fired");
  ASSERT_EQ(reasons.size(), 1u);
  EXPECT_EQ(reasons[0], "PPS004 fired");
  EXPECT_EQ(recorder.triggers(), 1u);

  const auto merged = recorder.merged_events();
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_EQ(merged[0].type, obs::FlightEventType::kMark);
  EXPECT_STREQ(merged[0].detail, "PPS004 fired");
}

TEST(FlightRecorder, HandlerExceptionsAreSwallowed) {
  obs::FlightRecorder recorder(16);
  recorder.add_lane("main");
  recorder.set_dump_handler(
      [](const std::string&, const obs::FlightRecorder&) {
        throw std::runtime_error("handler failed");
      });
  recorder.trigger("must not escape");  // noexcept: terminate would abort.
  EXPECT_EQ(recorder.triggers(), 1u);
}

TEST(FlightRecorder, UnknownLaneIsSilentlyDropped) {
  obs::FlightRecorder recorder(16);
  obs::FlightEvent e;
  recorder.record(99, e);  // No lanes registered at all.
  EXPECT_TRUE(recorder.merged_events().empty());
}

TEST(FlightRecorder, DumpJsonAndChromeTraceSerializeEvents) {
  obs::FlightRecorder recorder(16);
  const auto lane = recorder.add_lane("graph-0");
  obs::FlightEvent e;
  e.type = obs::FlightEventType::kEmit;
  e.component = 3;
  e.a = 7;
  e.set_detail("hello \"quoted\"");
  recorder.record(lane, e);

  const std::string json = recorder.dump_json("unit test");
  EXPECT_NE(json.find("\"reason\":\"unit test\""), std::string::npos);
  EXPECT_NE(json.find("\"emit\""), std::string::npos);
  EXPECT_NE(json.find("graph-0"), std::string::npos);

  const std::string trace = recorder.dump_chrome_trace();
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("emit"), std::string::npos);
}

// --- Graph wiring of the flight recorder -------------------------------------

TEST(GraphFlightRecorder, RecordingConfigCapturesEmitDeliverMutation) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg;
  cfg.recording = true;
  cfg.recorder_capacity = 64;
  // Enable BEFORE building so the structural mutations are captured too.
  graph.enable_observability(cfg);
  ASSERT_NE(graph.flight_recorder(), nullptr);

  const auto src = graph.add(make_source());
  const auto sink = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(src, sink);
  graph.component_as<core::SourceComponent>(src)->push(Value{1});

  int emits = 0;
  int delivers = 0;
  int mutations = 0;
  for (const auto& e : graph.flight_recorder()->merged_events()) {
    switch (e.type) {
      case obs::FlightEventType::kEmit:
        ++emits;
        EXPECT_EQ(e.component, src);
        break;
      case obs::FlightEventType::kDeliver:
        ++delivers;
        EXPECT_EQ(e.component, sink);
        EXPECT_EQ(e.a, src);  // Producing component.
        break;
      case obs::FlightEventType::kMutation:
        ++mutations;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(emits, 1);
  EXPECT_EQ(delivers, 1);
  EXPECT_GE(mutations, 3);  // Two adds + one connect, at least.

  // Disabling tears the owned recorder down.
  graph.disable_observability();
  EXPECT_EQ(graph.flight_recorder(), nullptr);
}

TEST(GraphFlightRecorder, ComponentThrowRecordsTaskFailedWithDetail) {
  core::ProcessingGraph graph;
  obs::ObservabilityConfig cfg;
  cfg.recording = true;
  graph.enable_observability(cfg);

  const auto src = graph.add(make_source());
  auto bomb = std::make_shared<core::LambdaComponent>(
      "Bomb", std::vector<core::InputRequirement>{core::require<Value>()},
      std::vector<core::DataSpec>{},
      [](const Sample&, const core::ComponentContext&) {
        throw std::runtime_error("sensor exploded");
      });
  const auto sink = graph.add(bomb);
  graph.connect(src, sink);
  EXPECT_THROW(graph.component_as<core::SourceComponent>(src)->push(Value{1}),
               std::runtime_error);

  bool saw_failure = false;
  for (const auto& e : graph.flight_recorder()->merged_events()) {
    if (e.type != obs::FlightEventType::kTaskFailed) continue;
    saw_failure = true;
    EXPECT_EQ(e.component, sink);
    EXPECT_NE(std::string(e.detail).find("sensor exploded"),
              std::string::npos);
  }
  EXPECT_TRUE(saw_failure);
}

TEST(GraphFlightRecorder, ExternalRecorderTakesPrecedenceAndDetaches) {
  core::ProcessingGraph graph;
  const auto src = graph.add(make_source());
  const auto sink = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(src, sink);

  obs::FlightRecorder shared(64);
  const auto lane = shared.add_lane("deployment-graph");
  graph.set_flight_recorder(&shared, lane, /*graph_tag=*/7);
  EXPECT_EQ(graph.flight_recorder(), &shared);

  graph.component_as<core::SourceComponent>(src)->push(Value{1});
  bool saw_emit = false;
  for (const auto& e : shared.merged_events()) {
    if (e.type != obs::FlightEventType::kEmit) continue;
    saw_emit = true;
    EXPECT_EQ(e.lane, lane);
    EXPECT_EQ(e.graph, 7u);
  }
  EXPECT_TRUE(saw_emit);

  graph.set_flight_recorder(nullptr, 0);
  EXPECT_EQ(graph.flight_recorder(), nullptr);
  const auto before = shared.recorded(lane);
  graph.component_as<core::SourceComponent>(src)->push(Value{2});
  EXPECT_EQ(shared.recorded(lane), before);  // Fully detached.
}

// --- Histogram exemplars ------------------------------------------------------

TEST(Histogram, ExemplarStampsTheObservedBucket) {
  obs::MetricsRegistry registry;
  obs::Histogram* h = registry.histogram("lat_us", {}, {1.0, 10.0, 100.0});
  h->observe_with_exemplar(5.0, 0xabcd);   // Bucket 1: (1, 10].
  h->observe_with_exemplar(500.0, 0xef01); // Overflow bucket.
  h->observe(0.5);                         // No exemplar for bucket 0.
  EXPECT_EQ(h->exemplar(0), 0u);
  EXPECT_EQ(h->exemplar(1), 0xabcdu);
  EXPECT_EQ(h->exemplar(3), 0xef01u);

  const auto snap = registry.snapshot();
  const auto* s = snap.find_histogram("lat_us");
  ASSERT_NE(s, nullptr);
  ASSERT_EQ(s->exemplars.size(), 4u);
  EXPECT_EQ(s->exemplars[1], 0xabcdu);
  EXPECT_NE(obs::to_json(snap).find("\"exemplars\""), std::string::npos);
}

TEST(Histogram, SampleExemplarRoundTrips) {
  // Producer 0, sequence 0 still packs non-zero: 0 means "no exemplar".
  EXPECT_NE(obs::pack_sample_exemplar(0, 0), 0u);
  for (const auto& [producer, sequence] :
       {std::pair<std::uint32_t, std::uint64_t>{0, 1},
        {7, 42},
        {(1u << 24) - 2, (std::uint64_t{1} << 40) - 1}}) {
    const std::uint64_t packed = obs::pack_sample_exemplar(producer, sequence);
    const obs::SampleKey key = obs::unpack_sample_exemplar(packed);
    EXPECT_EQ(key.producer, producer);
    EXPECT_EQ(key.sequence, sequence);
  }
}

// --- End-to-end latency -------------------------------------------------------

TEST(E2ELatency, SinkObservesIngestToSinkLatencyAndDeadlineMisses) {
  core::ProcessingGraph graph;
  const auto src = graph.add(make_source());
  const auto relay = graph.add(std::make_shared<core::LambdaComponent>(
      "SlowRelay", std::vector<core::InputRequirement>{core::require<Value>()},
      std::vector<core::DataSpec>{core::provide<Value>()},
      [](const Sample& s, const core::ComponentContext& ctx) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        ctx.emit(s.payload);
      }));
  const auto sink = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(src, relay);
  graph.connect(relay, sink);

  obs::ObservabilityConfig cfg;
  cfg.latency = true;
  cfg.latency_slo_us = 10.0; // The 2 ms relay guarantees a miss.
  graph.enable_observability(cfg);

  graph.component_as<core::SourceComponent>(src)->push(Value{1});
  graph.component_as<core::SourceComponent>(src)->push(Value{2});

  const auto snap = graph.metrics();
  const auto* h =
      snap.find_histogram("perpos_e2e_latency_us", "component", id_str(sink));
  ASSERT_NE(h, nullptr);
  std::uint64_t count = 0;
  for (const auto b : h->buckets) count += b;
  EXPECT_EQ(count, 2u);
  EXPECT_GE(h->sum, 2 * 2000.0);  // Two traversals, >= 2 ms each.
  // Each bucket an observation landed in names its last delivered sample:
  // the relay's emission — the key of the sink's kDeliver flight event.
  bool second = false;
  for (const auto e : h->exemplars) {
    if (e == 0) continue;
    const obs::SampleKey key = obs::unpack_sample_exemplar(e);
    EXPECT_EQ(key.producer, relay);
    EXPECT_TRUE(key.sequence == 1 || key.sequence == 2) << key.sequence;
    second |= key.sequence == 2;
  }
  EXPECT_TRUE(second);

  const auto* miss = snap.find_counter("perpos_e2e_deadline_miss_total",
                                       "component", id_str(sink));
  ASSERT_NE(miss, nullptr);
  EXPECT_EQ(miss->value, 2u);
  // Only the sink observes e2e latency; the relay's histogram handle
  // exists (handles are created per component) but never fires.
  const auto* relay_h =
      snap.find_histogram("perpos_e2e_latency_us", "component", id_str(relay));
  ASSERT_NE(relay_h, nullptr);
  EXPECT_EQ(relay_h->count, 0u);
}

TEST(E2ELatency, DisabledByDefault) {
  core::ProcessingGraph graph;
  const auto src = graph.add(make_source());
  graph.connect(src, graph.add(std::make_shared<core::ApplicationSink>()));
  graph.enable_observability();  // Default config: no latency knob.
  graph.component_as<core::SourceComponent>(src)->push(Value{1});
  const obs::MetricsSnapshot snap = graph.metrics();
  EXPECT_EQ(snap.find_histogram("perpos_e2e_latency_us"), nullptr);
}

// --- Introspection ------------------------------------------------------------

TEST(Introspection, GraphIntrospectionExtractsDeliveriesAndSelfTime) {
  core::ProcessingGraph graph;
  const auto src = graph.add(make_source());
  const auto relay = graph.add(make_relay());
  const auto sink = graph.add(std::make_shared<core::ApplicationSink>());
  graph.connect(src, relay);
  graph.connect(relay, sink);
  graph.enable_observability();  // metrics + timing on by default

  auto* source = graph.component_as<core::SourceComponent>(src);
  for (int i = 0; i < 10; ++i) source->push(Value{i});

  const auto g = obs::graph_introspection("wifi-floor2", graph.metrics());
  EXPECT_EQ(g.name, "wifi-floor2");
  EXPECT_EQ(g.deliveries, 20u);  // 10 into the relay + 10 into the sink.
  EXPECT_EQ(g.components, 3u);
  ASSERT_FALSE(g.top_self_time.empty());
  std::uint64_t on_input_calls = 0;
  for (const auto& c : g.top_self_time) on_input_calls += c.count;
  EXPECT_EQ(on_input_calls, 20u);
  // Hottest-first ordering.
  for (std::size_t i = 1; i < g.top_self_time.size(); ++i) {
    EXPECT_GE(g.top_self_time[i - 1].total_us, g.top_self_time[i].total_us);
  }

  obs::IntrospectionSnapshot snapshot;
  snapshot.graphs.push_back(g);
  const std::string json = obs::to_json(snapshot);
  EXPECT_NE(json.find("\"graphs\""), std::string::npos);
  EXPECT_NE(json.find("wifi-floor2"), std::string::npos);
  const std::string screen = obs::render_dashboard(snapshot, nullptr);
  EXPECT_NE(screen.find("wifi-floor2"), std::string::npos);
}
