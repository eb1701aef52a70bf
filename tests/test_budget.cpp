// Tests for the quantitative budget analysis (perpos::verify, budget.hpp):
// interval arithmetic, the calibration table, rate propagation including
// feedback closure, queue and latency bounds, the lane planner, a
// table-driven audit of what the config front end feeds the analysis for
// every standard component kind, and — load-bearing — the cross-validation
// property suite asserting the static queue bounds dominate the runtime
// high-water marks the GraphSanitizer observes under chaos workloads.

#include "perpos/core/components.hpp"
#include "perpos/sanitize/sanitizer.hpp"
#include "perpos/verify/budget.hpp"
#include "perpos/verify/emit.hpp"
#include "perpos/verify/rules.hpp"
#include "perpos/verify/verify.hpp"

#include "standard_registry.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <vector>

namespace core = perpos::core;
namespace rt = perpos::runtime;
namespace san = perpos::sanitize;
namespace vfy = perpos::verify;

namespace {

struct V0 {
  int value = 0;
};

std::shared_ptr<core::SourceComponent> make_source(std::string kind = "Src") {
  return std::make_shared<core::SourceComponent>(
      std::move(kind), std::vector<core::DataSpec>{core::provide<V0>()});
}

std::shared_ptr<core::ApplicationSink> make_sink(std::string name = "Sink") {
  return std::make_shared<core::ApplicationSink>(
      std::move(name),
      std::vector<core::InputRequirement>{core::require<V0>()});
}

/// V0 -> V0 transform emitting exactly `factor` samples per input, and
/// declaring exactly that multiplicity to the analyzer — runtime behaviour
/// and static annotation agree by construction, which is what the
/// cross-validation suite varies. Integer factors only: fractional gains
/// are *amortized* (a decimator emits a whole sample every N inputs, not
/// 1/N of a sample per input), so per-event bounds computed from them are
/// steady-state statements, not per-cascade ones.
class Amplifier final : public core::ProcessingComponent {
 public:
  explicit Amplifier(int factor) : factor_(factor) {}

  std::string_view kind() const override { return "Amplifier"; }
  std::vector<core::InputRequirement> input_requirements() const override {
    return {core::require<V0>()};
  }
  std::vector<core::DataSpec> output_capabilities() const override {
    return {core::provide<V0>()};
  }
  double emit_multiplicity() const override {
    return static_cast<double>(factor_);
  }

  void on_input(const core::Sample&) override {
    for (int i = 0; i < factor_; ++i) {
      context().emit(core::Payload::make(V0{}));
    }
  }

 private:
  int factor_;
};

const double kInf = std::numeric_limits<double>::infinity();

/// Minimal hand-built node (mirrors test_verify.cpp's helper).
vfy::NodeModel node(core::ComponentId id, std::string name,
                    std::vector<core::InputRequirement> reqs,
                    std::vector<core::DataSpec> caps) {
  vfy::NodeModel n;
  n.id = id;
  n.name = std::move(name);
  n.kind = n.name;
  n.requirements = std::move(reqs);
  n.capabilities = std::move(caps);
  return n;
}

}  // namespace

// --- Interval arithmetic and the calibration table ---------------------------

TEST(RateInterval, ArithmeticAndScaling) {
  vfy::RateInterval a{1.0, 2.0};
  a += vfy::RateInterval{0.5, 3.0};
  EXPECT_EQ(a, (vfy::RateInterval{1.5, 5.0}));
  EXPECT_EQ(a.scaled(2.0), (vfy::RateInterval{3.0, 10.0}));
  EXPECT_EQ(vfy::RateInterval{}, (vfy::RateInterval{0.0, 0.0}));
}

TEST(Calibration, KnownKindsAndFallbacks) {
  // Pins the calibration keys to the components' kind() strings: a kind
  // rename that silently downgrades a component to the generic transform
  // cost fails here.
  EXPECT_EQ(vfy::calibrated_cost_us("GPS"), 2.0);
  EXPECT_EQ(vfy::calibrated_cost_us("KalmanFilter"), 12.0);
  EXPECT_EQ(vfy::calibrated_cost_us("ParticleFilter"), 45.0);
  EXPECT_EQ(vfy::calibrated_cost_us("WifiPositioner"), 15.0);
  // Unknown interior kind: generic transform estimate.
  const double generic = vfy::calibrated_cost_us("SomethingNew");
  EXPECT_GT(generic, 0.0);
  // Sinks are keyed structurally (ApplicationSink::kind() is the app
  // name), so the sink flag must win over the kind lookup.
  EXPECT_NE(vfy::calibrated_cost_us("SomethingNew", /*sink=*/true), generic);
}

// --- Rate propagation --------------------------------------------------------

TEST(Budget, LinearPipelinePropagatesRatesThroughGains) {
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto amp = g.add(std::make_shared<Amplifier>(3));
  const auto sink = g.add(make_sink());
  g.connect(src, amp);
  g.connect(amp, sink);

  vfy::Options options;
  vfy::BudgetAnnotation rate;
  rate.rate_lo_hz = 8.0;
  rate.rate_hi_hz = 10.0;
  options.budget.annotations.emplace(src, rate);

  const vfy::BudgetReport report =
      vfy::analyze_budget(vfy::GraphModel::from_graph(g), options);
  const vfy::NodeBudget* a = report.node(amp);
  ASSERT_NE(a, nullptr);
  EXPECT_DOUBLE_EQ(a->in_rate.lo, 8.0);
  EXPECT_DOUBLE_EQ(a->in_rate.hi, 10.0);
  EXPECT_DOUBLE_EQ(a->out_rate.lo, 24.0);
  EXPECT_DOUBLE_EQ(a->out_rate.hi, 30.0);
  const vfy::NodeBudget* s = report.node(sink);
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->in_rate.hi, 30.0);
  EXPECT_EQ(s->out_rate, (vfy::RateInterval{}));  // Sinks emit nothing.
}

TEST(Budget, PinnedInteriorRateOverridesDerivation) {
  // An interior annotation wins over upstream derivation — the knob for
  // "I measured this stage at N Hz, trust me".
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto amp = g.add(std::make_shared<Amplifier>(3));
  const auto sink = g.add(make_sink());
  g.connect(src, amp);
  g.connect(amp, sink);

  vfy::Options options;
  vfy::BudgetAnnotation pin;
  pin.rate_lo_hz = 5.0;
  pin.rate_hi_hz = 7.0;
  options.budget.annotations.emplace(amp, pin);

  const vfy::BudgetReport report =
      vfy::analyze_budget(vfy::GraphModel::from_graph(g), options);
  EXPECT_DOUBLE_EQ(report.node(amp)->out_rate.hi, 7.0);
  EXPECT_DOUBLE_EQ(report.node(sink)->in_rate.lo, 5.0);
}

TEST(Budget, MergeFanInSumsRates) {
  core::ProcessingGraph g;
  const auto a = g.add(make_source("SrcA"));
  const auto b = g.add(make_source("SrcB"));
  const auto sink = g.add(make_sink());
  g.connect(a, sink);
  g.connect(b, sink);

  vfy::Options options;
  vfy::BudgetAnnotation ra;
  ra.rate_lo_hz = ra.rate_hi_hz = 10.0;
  options.budget.annotations.emplace(a, ra);
  vfy::BudgetAnnotation rb;
  rb.rate_lo_hz = rb.rate_hi_hz = 4.0;
  options.budget.annotations.emplace(b, rb);

  const vfy::BudgetReport report =
      vfy::analyze_budget(vfy::GraphModel::from_graph(g), options);
  EXPECT_DOUBLE_EQ(report.node(sink)->in_rate.hi, 14.0);
}

TEST(Budget, DampedFeedbackClosesWithGeometricFactor) {
  // src -> a, a <-> b with loop gain 0.5: the region's rates close at
  // 1/(1-0.5) = 2x the injected rate. (Hand-built model: a live graph
  // refuses cycles; representing them anyway is the analyzer's job.)
  vfy::GraphModel model;
  model.nodes.push_back(node(1, "src", {}, {core::provide<V0>()}));
  model.nodes[0].rate_lo_hz = model.nodes[0].rate_hi_hz = 8.0;
  model.nodes.push_back(
      node(2, "a", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes.push_back(
      node(3, "b", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes[2].emit_per_input = 0.5;
  model.edges.push_back({1, 2});
  model.edges.push_back({2, 3});
  model.edges.push_back({3, 2});

  const vfy::BudgetReport report = vfy::analyze_budget(model, {});
  // a receives 8 from outside, amplified to 16 through the loop closure.
  EXPECT_DOUBLE_EQ(report.node(2)->out_rate.hi, 16.0);
  EXPECT_DOUBLE_EQ(report.node(3)->out_rate.hi, 8.0);
}

TEST(Budget, CriticalFeedbackDivergesToInfinity) {
  vfy::GraphModel model;
  model.nodes.push_back(node(1, "src", {}, {core::provide<V0>()}));
  model.nodes[0].rate_lo_hz = model.nodes[0].rate_hi_hz = 1.0;
  model.nodes.push_back(
      node(2, "a", {core::require<V0>()}, {core::provide<V0>()}));
  model.nodes.push_back(
      node(3, "b", {core::require<V0>()}, {core::provide<V0>()}));
  model.edges.push_back({1, 2});
  model.edges.push_back({2, 3});
  model.edges.push_back({3, 2});  // Gain product 1.0: never drains.

  const vfy::BudgetReport report = vfy::analyze_budget(model, {});
  EXPECT_TRUE(std::isinf(report.node(2)->out_rate.hi));
  EXPECT_TRUE(std::isinf(report.dispatch_queue_bound));
  // JSON has no infinity literal; the convention is the string
  // "unbounded", and the report must embed under to_json's "budget" key.
  const std::string json = vfy::budget_to_json(report);
  EXPECT_NE(json.find("\"unbounded\""), std::string::npos);
  vfy::Report empty;
  const std::string combined = vfy::to_json(empty, &report);
  EXPECT_NE(combined.find("\"budget\":"), std::string::npos);
}

TEST(Budget, PathEnumerationTruncatesAtTheCap) {
  // A chain of 9 diamonds has 2^9 = 512 source->sink paths; enumeration
  // must stop at kMaxPaths and say so.
  vfy::GraphModel model;
  core::ComponentId next = 1;
  const core::ComponentId src = next++;
  model.nodes.push_back(node(src, "src", {}, {core::provide<V0>()}));
  core::ComponentId tail = src;
  for (int d = 0; d < 9; ++d) {
    const core::ComponentId left = next++;
    const core::ComponentId right = next++;
    const core::ComponentId join = next++;
    for (const core::ComponentId id : {left, right, join}) {
      model.nodes.push_back(node(id, "n" + std::to_string(id),
                                 {core::require<V0>()},
                                 {core::provide<V0>()}));
    }
    model.edges.push_back({tail, left});
    model.edges.push_back({tail, right});
    model.edges.push_back({left, join});
    model.edges.push_back({right, join});
    tail = join;
  }
  const core::ComponentId sink = next++;
  model.nodes.push_back(node(sink, "sink", {core::require<V0>()}, {}));
  model.edges.push_back({tail, sink});

  const vfy::BudgetReport report = vfy::analyze_budget(model, {});
  EXPECT_TRUE(report.paths_truncated);
  EXPECT_EQ(report.paths.size(), vfy::kMaxPaths);
  EXPECT_NE(vfy::budget_to_text(report).find("truncated"),
            std::string::npos);
}

// --- The lane planner --------------------------------------------------------

TEST(Planner, SeparatesIndependentPipelinesByWeight) {
  // Two independent pipelines with a 3:1 busy ratio, both serialized on
  // one lane: a 2-lane plan must split them, and the resulting maximum
  // utilization is the heavy pipeline's own. Source costs are pinned to
  // zero so the expected utilizations are exact.
  core::ProcessingGraph g;
  const auto heavy_src = g.add(make_source("Heavy"));
  const auto heavy_sink = g.add(make_sink("HeavyApp"));
  g.connect(heavy_src, heavy_sink);
  const auto light_src = g.add(make_source("Light"));
  const auto light_sink = g.add(make_sink("LightApp"));
  g.connect(light_src, light_sink);

  vfy::Options options;
  for (const auto id : {heavy_src, heavy_sink, light_src, light_sink}) {
    options.lanes.emplace(id, "all");
  }
  vfy::BudgetAnnotation heavy_rate;
  heavy_rate.rate_lo_hz = heavy_rate.rate_hi_hz = 300.0;
  heavy_rate.cost_us = 0.0;
  options.budget.annotations.emplace(heavy_src, heavy_rate);
  vfy::BudgetAnnotation light_rate;
  light_rate.rate_lo_hz = light_rate.rate_hi_hz = 100.0;
  light_rate.cost_us = 0.0;
  options.budget.annotations.emplace(light_src, light_rate);
  vfy::BudgetAnnotation cost;
  cost.cost_us = 1000.0;
  options.budget.annotations.emplace(heavy_sink, cost);
  options.budget.annotations.emplace(light_sink, cost);

  const vfy::GraphModel model = vfy::GraphModel::from_graph(g);
  const vfy::LanePlan plan = vfy::plan_lanes(model, options, 2);
  ASSERT_EQ(plan.lanes.size(), 4u);
  EXPECT_EQ(plan.lanes.at(heavy_src), plan.lanes.at(heavy_sink));
  EXPECT_EQ(plan.lanes.at(light_src), plan.lanes.at(light_sink));
  EXPECT_NE(plan.lanes.at(heavy_src), plan.lanes.at(light_src));
  // before: 0.3 + 0.1 on one lane; after: the heavy pipeline alone.
  EXPECT_NEAR(plan.max_utilization_before, 0.4, 1e-9);
  EXPECT_NEAR(plan.max_utilization_after, 0.3, 1e-9);
}

TEST(Planner, KeepsWeakComponentsIntact) {
  // A connected pipeline cannot be split no matter how many lanes are
  // offered — that would manufacture PPV009 cross-lane edges.
  core::ProcessingGraph g;
  const auto src = g.add(make_source());
  const auto amp = g.add(std::make_shared<Amplifier>(2));
  const auto sink = g.add(make_sink());
  g.connect(src, amp);
  g.connect(amp, sink);

  const vfy::LanePlan plan =
      vfy::plan_lanes(vfy::GraphModel::from_graph(g), {}, 4);
  ASSERT_EQ(plan.lanes.size(), 3u);
  EXPECT_EQ(plan.lanes.at(src), plan.lanes.at(amp));
  EXPECT_EQ(plan.lanes.at(amp), plan.lanes.at(sink));
}

// --- Table-driven kind audit of the config front end -------------------------

TEST(KindAudit, EveryStandardKindFeedsTheQuantitativeModel) {
  // For every kind in the tools' standard registry: instantiate it through
  // the config front end and pin exactly what the quantitative pass sees —
  // emit_per_input, the nominal-rate seed, and the unannotated cost marker.
  // A kind whose multiplicity silently defaults to 1.0 is pinned as such
  // here; giving it a real override must update this table consciously.
  struct Expectation {
    const char* config_kind;
    const char* extra_args;   // Appended to the component line.
    double emit_per_input;
    bool rate_seeded;         // nominal_rate_hz() > 0 seeds rate_lo/hi.
    bool cost_calibrated;     // Kind resolves in the calibration table.
  };
  const Expectation table[] = {
      {"gps-sensor", "", 1.0, true, true},
      {"wifi-scanner", "", 1.0, true, true},
      {"nmea-parser", "", 1.0, false, true},
      {"nmea-interpreter", "", 1.0, false, true},
      {"kalman-filter", "", 1.0, false, true},
      {"wifi-positioner", "", 1.0, false, true},
      {"local-to-geo", "", 1.0, false, true},
      {"room-resolver", "", 1.0, false, true},
      // ApplicationSink: multiplicity 0 (pure sink), costed structurally.
      {"application", " App any", 0.0, false, false},
  };

  perpos::tools::Fixtures fx;
  const rt::ComponentFactoryRegistry registry =
      perpos::tools::standard_registry(fx);
  for (const Expectation& e : table) {
    const std::string text = std::string("component only ") + e.config_kind +
                             e.extra_args + "\n";
    const vfy::ConfigVerification result = vfy::verify_config(text, registry);
    ASSERT_EQ(result.model.nodes.size(), 1u) << e.config_kind;
    const vfy::NodeModel& n = result.model.nodes[0];
    EXPECT_EQ(n.emit_per_input, e.emit_per_input) << e.config_kind;
    EXPECT_EQ(n.rate_hi_hz > 0.0, e.rate_seeded) << e.config_kind;
    EXPECT_EQ(n.rate_lo_hz, n.rate_hi_hz) << e.config_kind;
    // Costs are never seeded by the front end: -1 = "ask the table".
    EXPECT_LT(n.cost_us, 0.0) << e.config_kind;
    const bool sink = n.capabilities.empty();
    const double cost = vfy::calibrated_cost_us(n.kind, sink);
    EXPECT_GT(cost, 0.0) << e.config_kind;
    if (e.cost_calibrated) {
      EXPECT_NE(cost, vfy::calibrated_cost_us("UnknownKind"))
          << e.config_kind << " fell back to the generic transform cost "
          << "(calibration key no longer matches kind() = '" << n.kind
          << "')";
    }
    // And the budget verb must be able to override each of them.
    const vfy::ConfigVerification annotated = vfy::verify_config(
        text + "budget only rate=5..6 cost_us=42\n", registry);
    const vfy::NodeModel& an = annotated.model.nodes[0];
    EXPECT_DOUBLE_EQ(an.rate_lo_hz, 5.0) << e.config_kind;
    EXPECT_DOUBLE_EQ(an.rate_hi_hz, 6.0) << e.config_kind;
    EXPECT_DOUBLE_EQ(an.cost_us, 42.0) << e.config_kind;
  }
}

// --- Cross-validation: static bounds vs. runtime high-water marks ------------
//
// The soundness claim budget.hpp makes: under the drain-between-events
// discipline, the static dispatch-queue bound dominates every queue depth
// and cascade the GraphSanitizer observes at runtime. These tests drive
// live graphs — fixed shapes and randomized chaos workloads — and assert
// the dominance, logging the slack so a bound that drifts toward
// uselessly-loose shows up in the test output.

namespace {

struct CrossValidation {
  double static_bound = 0.0;
  std::size_t runtime_queue = 0;
  std::uint64_t runtime_cascade = 0;
};

/// Drive 3 single-sample events plus a `burst`-long run of pushes from
/// every source, then compare the sanitizer's high-water marks against the
/// static bound computed with the same burst size. (Each push drains
/// before the next, so the burst bound over-approximates them: burst >= 1
/// and cascades scale with it.)
CrossValidation cross_validate(
    core::ProcessingGraph& g,
    const std::vector<std::shared_ptr<core::SourceComponent>>& sources,
    double burst) {
  vfy::Options options;
  options.budget.burst = burst;
  const vfy::BudgetReport report =
      vfy::analyze_budget(vfy::GraphModel::from_graph(g), options);

  san::SanitizerConfig config;
  config.max_cascade = std::uint64_t{1} << 40;  // Observe, don't diagnose.
  config.max_queue_depth = std::size_t{1} << 30;
  san::GraphSanitizer sanitizer(config);
  sanitizer.attach(g);
  for (const auto& src : sources) {
    for (int i = 0; i < 3; ++i) src->push(V0{i});
    for (int i = 0; i < static_cast<int>(burst); ++i) src->push(V0{});
  }
  CrossValidation out;
  out.static_bound = report.dispatch_queue_bound;
  out.runtime_queue = sanitizer.dispatch_queue_high_water();
  out.runtime_cascade = sanitizer.cascade_high_water();
  sanitizer.detach();
  return out;
}

}  // namespace

TEST(CrossValidation, FanOutBurstStaysUnderStaticBound) {
  core::ProcessingGraph g;
  auto src = make_source();
  const auto src_id = g.add(src);
  for (int i = 0; i < 6; ++i) {
    g.connect(src_id, g.add(make_sink("App" + std::to_string(i))));
  }
  const CrossValidation cv = cross_validate(g, {src}, 8.0);
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_queue));
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_cascade));
  EXPECT_GT(cv.runtime_queue, 0u);  // The workload actually queued.
}

TEST(CrossValidation, AmplifierChainStaysUnderStaticBound) {
  core::ProcessingGraph g;
  auto src = make_source();
  const auto src_id = g.add(src);
  const auto a1 = g.add(std::make_shared<Amplifier>(3));
  const auto a2 = g.add(std::make_shared<Amplifier>(2));
  const auto sink = g.add(make_sink());
  g.connect(src_id, a1);
  g.connect(a1, a2);
  g.connect(a2, sink);
  const CrossValidation cv = cross_validate(g, {src}, 4.0);
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_queue));
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_cascade));
  EXPECT_GT(cv.runtime_cascade, 1u);  // Amplification actually cascaded.
}

TEST(CrossValidation, ReconvergentMergeStaysUnderStaticBound) {
  // src fans out into two amplifying branches that reconverge on a relay
  // before the sink — the shape where deliveries sum, not max.
  core::ProcessingGraph g;
  auto src = make_source();
  const auto src_id = g.add(src);
  const auto a = g.add(std::make_shared<Amplifier>(2));
  const auto b = g.add(std::make_shared<Amplifier>(3));
  const auto join = g.add(std::make_shared<Amplifier>(1));
  const auto sink = g.add(make_sink());
  g.connect(src_id, a);
  g.connect(src_id, b);
  g.connect(a, join);
  g.connect(b, join);
  g.connect(join, sink);
  const CrossValidation cv = cross_validate(g, {src}, 2.0);
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_queue));
  EXPECT_GE(cv.static_bound, static_cast<double>(cv.runtime_cascade));
  EXPECT_GT(cv.runtime_cascade, 1u);
}

TEST(CrossValidation, ChaosWorkloadsNeverExceedStaticBounds) {
  // Randomized layered graphs: every layer fans out into amplifiers with
  // random integer gains, terminated by sinks, driven by random burst
  // sizes. For every seed the static bound must dominate both runtime
  // marks. (Fractional gains are deliberately absent: a decimator's 1/N
  // multiplicity is amortized, so its per-event cascade can momentarily
  // exceed the steady-state figure — see the Amplifier comment.)
  double worst_slack_ratio = kInf;
  int exercised = 0;
  for (unsigned seed = 0; seed < 25; ++seed) {
    std::mt19937 rng(seed);
    auto pick = [&](int lo, int hi) {
      return std::uniform_int_distribution<>(lo, hi)(rng);
    };

    core::ProcessingGraph g;
    auto src = make_source();
    std::vector<core::ComponentId> frontier = {g.add(src)};
    const int layers = pick(1, 3);
    for (int layer = 0; layer < layers; ++layer) {
      std::vector<core::ComponentId> next;
      for (const core::ComponentId from : frontier) {
        const int width = pick(1, 3);
        for (int w = 0; w < width; ++w) {
          const auto to = g.add(std::make_shared<Amplifier>(pick(1, 3)));
          g.connect(from, to);
          next.push_back(to);
        }
      }
      frontier = std::move(next);
    }
    for (const core::ComponentId tail : frontier) {
      g.connect(tail, g.add(make_sink("App" + std::to_string(tail))));
    }

    const double burst = static_cast<double>(pick(1, 16));
    const CrossValidation cv = cross_validate(g, {src}, burst);
    ASSERT_GE(cv.static_bound, static_cast<double>(cv.runtime_queue))
        << "seed " << seed << " burst " << burst;
    ASSERT_GE(cv.static_bound, static_cast<double>(cv.runtime_cascade))
        << "seed " << seed << " burst " << burst;
    if (cv.runtime_queue > 0) {
      ++exercised;
      worst_slack_ratio = std::min(
          worst_slack_ratio,
          cv.static_bound / static_cast<double>(cv.runtime_queue));
    }
  }
  EXPECT_GT(exercised, 0);
  // Log the tightness so a bound drifting toward meaningless looseness is
  // visible in test output (it is an upper bound, not an estimate).
  std::cout << "[cross-validation] " << exercised
            << " workloads queued; tightest static/runtime ratio: "
            << worst_slack_ratio << "\n";
}

// --- Budget verb round-trip through export_config ---------------------------

TEST(ConfigRoundTrip, BudgetLinesSurviveExport) {
  rt::ComponentFactoryRegistry registry;
  registry.register_kind("source", [](const auto&) {
    return make_source("Source");
  });
  registry.register_kind("sink", [](const auto&) { return make_sink(); });

  core::ProcessingGraph g;
  const rt::ConfigResult first = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
budget src rate=20..25 cost_us=3
budget app min_rate=5
budget * source_rate=2 burst=8 watermark=128 slo_us=250000
)",
                                                          registry, g);
  ASSERT_TRUE(first.ok()) << (first.errors.empty() ? "" : first.errors[0]);
  ASSERT_EQ(first.budgets.size(), 2u);
  ASSERT_TRUE(first.budget_defaults.has_value());

  // Re-key the annotations by id for export, as a live caller would.
  std::map<core::ComponentId, rt::BudgetAnnotation> by_id;
  for (const auto& [name, id] : first.report.instantiated) {
    const auto it = first.budgets.find(name);
    if (it != first.budgets.end()) by_id.emplace(id, it->second);
  }
  ASSERT_EQ(by_id.size(), 2u);
  const std::string exported = rt::export_config(
      g, nullptr, nullptr, nullptr, nullptr, &by_id, &*first.budget_defaults);
  EXPECT_NE(exported.find("budget "), std::string::npos);
  EXPECT_NE(exported.find("budget *"), std::string::npos);

  // Exported component names are "<kind>_<id>", so re-assembly needs a
  // kind()-keyed registry (same convention as the test_config round trips).
  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return make_source("Source");
  });
  by_kind.register_kind("Sink", [](const auto&) { return make_sink(); });
  core::ProcessingGraph rebuilt;
  const rt::ConfigResult second =
      rt::assemble_from_config(exported, by_kind, rebuilt);
  ASSERT_TRUE(second.errors.empty())
      << second.errors[0] << "\nexported:\n" << exported;

  // Names changed, so compare the annotation values by shape: the source's
  // carries the rate interval and cost, the sink's the min-rate floor.
  ASSERT_EQ(second.budgets.size(), 2u);
  for (const auto& [name, annotation] : second.budgets) {
    if (annotation.rate_hi_hz > 0.0) {
      EXPECT_EQ(annotation, first.budgets.at("src")) << name;
    } else {
      EXPECT_EQ(annotation, first.budgets.at("app")) << name;
    }
  }
  ASSERT_TRUE(second.budget_defaults.has_value());
  EXPECT_EQ(*second.budget_defaults, *first.budget_defaults);
}

// --- Explain sketches are runnable and trigger their own rule ----------------
//
// `perpos-verify --explain PPQxxx` prints a "minimal failing config"; this
// holds each quantitative sketch to that promise: the sketch text must
// assemble cleanly against the standard registry and its analysis must
// report the advertised rule. (PPQ005's feedback scenario is not
// expressible as a config line sketch and stays prose, like the PPS
// runtime sketches.)
TEST(BudgetRules, ExplainSketchesTriggerTheirOwnRule) {
  perpos::tools::Fixtures fx;
  const rt::ComponentFactoryRegistry registry =
      perpos::tools::standard_registry(fx);
  for (const std::string id : {"PPQ001", "PPQ002", "PPQ003", "PPQ004"}) {
    const std::string_view sketch = vfy::rule_sketch(id);
    ASSERT_FALSE(sketch.empty()) << id;
    const vfy::ConfigVerification result =
        vfy::verify_config(std::string(sketch), registry);
    ASSERT_TRUE(result.assembly.errors.empty())
        << id << ": " << result.assembly.errors[0];
    bool triggered = false;
    for (const vfy::Diagnostic& d : result.report.diagnostics) {
      if (d.rule_id == id) triggered = true;
    }
    EXPECT_TRUE(triggered) << id << " sketch did not trigger " << id << ":\n"
                           << sketch;
  }
}
