// Tests for the declarative system-level configuration: parsing,
// instantiation through the factory registry, explicit edges, the resolve
// directive and per-line error reporting.

#include "perpos/core/components.hpp"
#include "perpos/runtime/config.hpp"

#include <gtest/gtest.h>

namespace rt = perpos::runtime;
namespace core = perpos::core;

namespace {

struct Num {
  int value = 0;
};

rt::ComponentFactoryRegistry make_registry() {
  rt::ComponentFactoryRegistry registry;
  registry.register_kind(
      "source", [](const std::vector<std::string>&) {
        return std::make_shared<core::SourceComponent>(
            "Source", std::vector<core::DataSpec>{core::provide<Num>()});
      });
  registry.register_kind(
      "doubler", [](const std::vector<std::string>&) {
        return std::make_shared<core::LambdaComponent>(
            "Doubler",
            std::vector<core::InputRequirement>{core::require<Num>()},
            std::vector<core::DataSpec>{core::provide<Num>()},
            [](const core::Sample& s, const core::ComponentContext& ctx) {
              ctx.emit(core::Payload::make(Num{s.payload.as<Num>().value * 2}));
            });
      });
  registry.register_kind(
      "sink", [](const std::vector<std::string>& args) {
        const std::string name = args.empty() ? "Sink" : args[0];
        return std::make_shared<core::ApplicationSink>(
            name, std::vector<core::InputRequirement>{core::require<Num>()});
      });
  return registry;
}

}  // namespace

TEST(FactoryRegistry, RegisterCreateAndList) {
  const auto registry = make_registry();
  EXPECT_TRUE(registry.has("source"));
  EXPECT_FALSE(registry.has("bogus"));
  EXPECT_EQ(registry.kinds().size(), 3u);
  EXPECT_NE(registry.create("sink", {}), nullptr);
  EXPECT_THROW(registry.create("bogus", {}), std::invalid_argument);
}

TEST(FactoryRegistry, DuplicateKindRejected) {
  rt::ComponentFactoryRegistry registry;
  registry.register_kind("x", [](const auto&) {
    return std::make_shared<core::ApplicationSink>();
  });
  EXPECT_THROW(registry.register_kind("x", [](const auto&) {
    return std::make_shared<core::ApplicationSink>();
  }),
               std::invalid_argument);
}

TEST(Config, ExplicitPipeline) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
# The classic pipeline, wired explicitly.
component src source
component dbl doubler
component app sink
connect src dbl
connect dbl app
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok()) << (result.errors.empty()
                                   ? "unsatisfied requirements"
                                   : result.errors[0]);
  EXPECT_EQ(result.report.instantiated.size(), 3u);
  EXPECT_EQ(result.report.edges.size(), 2u);

  auto* source = graph.component_as<core::SourceComponent>(
      result.report.id_of("src"));
  auto* sink =
      graph.component_as<core::ApplicationSink>(result.report.id_of("app"));
  ASSERT_NE(source, nullptr);
  ASSERT_NE(sink, nullptr);
  source->push(Num{21});
  EXPECT_EQ(sink->last()->payload.as<Num>().value, 42);
}

TEST(Config, ResolveDirectiveWiresOpenPorts) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component dbl doubler
component app sink
resolve
)",
                                               registry, graph);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.report.edges.size(), 2u);
}

TEST(Config, FactoryArgumentsPassed) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(
      "component app sink MyNamedApp\n", registry, graph);
  ASSERT_TRUE(result.errors.empty());
  EXPECT_EQ(std::string(
                graph.component(result.report.id_of("app")).kind()),
            "MyNamedApp");
}

TEST(Config, ErrorsAreCollectedPerLine) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component src source
component x bogus-kind
component incomplete
connect src missing
frobnicate
connect src
)",
                                               registry, graph);
  EXPECT_FALSE(result.ok());
  ASSERT_EQ(result.errors.size(), 6u);
  // Pass 1 (parse/instantiate) errors come first, in line order; the
  // unknown-name connect error is reported by pass 2 at the end.
  EXPECT_NE(result.errors[0].find("duplicate"), std::string::npos);
  EXPECT_NE(result.errors[1].find("bogus-kind"), std::string::npos);
  EXPECT_NE(result.errors[2].find("component needs"), std::string::npos);
  EXPECT_NE(result.errors[3].find("frobnicate"), std::string::npos);
  EXPECT_NE(result.errors[4].find("connect needs"), std::string::npos);
  EXPECT_NE(result.errors[5].find("missing"), std::string::npos);
  // The valid part still applied.
  EXPECT_EQ(graph.size(), 1u);
}

TEST(Config, IncompatibleConnectReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component a source
component b source
connect a b
)",
                                               registry, graph);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("connect"), std::string::npos);
}

TEST(Config, CommentsAndBlanksIgnored) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(
      "\n   \n# just a comment\ncomponent s source # trailing comment\n",
      registry, graph);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_EQ(graph.size(), 1u);
}

TEST(Config, UnsatisfiedAfterResolveReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component app sink
resolve
)",
                                               registry, graph);
  EXPECT_TRUE(result.errors.empty());
  EXPECT_FALSE(result.report.ok());
  ASSERT_EQ(result.report.unsatisfied.size(), 1u);
  EXPECT_EQ(result.report.unsatisfied[0].first, "app");
}

TEST(Config, ExportRoundTrip) {
  // Build a graph, export it, re-assemble from the export: the new graph
  // must have the same structure (component kinds and edge kinds).
  const auto registry = make_registry();
  core::ProcessingGraph original;
  const auto first = rt::assemble_from_config(R"(
component src source
component dbl doubler
component app sink
connect src dbl
connect dbl app
)",
                                              registry, original);
  ASSERT_TRUE(first.ok());

  const std::string exported = rt::export_config(original);
  EXPECT_NE(exported.find("component Source_0 Source"), std::string::npos);
  EXPECT_NE(exported.find("connect Source_0 Doubler_1"), std::string::npos);

  // Re-assembly needs a registry keyed by the kind() names.
  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Source", std::vector<core::DataSpec>{core::provide<Num>()});
  });
  by_kind.register_kind("Doubler", [](const auto&) {
    return std::make_shared<core::LambdaComponent>(
        "Doubler", std::vector<core::InputRequirement>{core::require<Num>()},
        std::vector<core::DataSpec>{core::provide<Num>()},
        [](const core::Sample& s, const core::ComponentContext& ctx) {
          ctx.emit(core::Payload::make(Num{s.payload.as<Num>().value * 2}));
        });
  });
  by_kind.register_kind("Sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Num>()});
  });

  core::ProcessingGraph rebuilt;
  const auto second = rt::assemble_from_config(exported, by_kind, rebuilt);
  ASSERT_TRUE(second.errors.empty())
      << (second.errors.empty() ? "" : second.errors[0]);
  EXPECT_EQ(rebuilt.size(), original.size());
  EXPECT_EQ(second.report.edges.size(), 2u);
}

TEST(Config, ObserveDirectiveEnablesObservability) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
observe metrics timing tracing
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(graph.observability_enabled());
  const auto* cfg = graph.observability_config();
  ASSERT_NE(cfg, nullptr);
  EXPECT_TRUE(cfg->metrics);
  EXPECT_TRUE(cfg->timing);
  // `tracing` is kept for old configs: the flow trace is the flight ring.
  EXPECT_TRUE(cfg->recording);
  EXPECT_FALSE(cfg->latency);
  EXPECT_NE(graph.flight_recorder(), nullptr);
}

TEST(Config, ObserveDirectiveDefaultsToMetricsAndTiming) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result =
      rt::assemble_from_config("observe\n", registry, graph);
  ASSERT_TRUE(result.ok());
  const auto* cfg = graph.observability_config();
  ASSERT_NE(cfg, nullptr);
  EXPECT_TRUE(cfg->metrics);
  EXPECT_TRUE(cfg->timing);
  EXPECT_FALSE(cfg->recording);
}

TEST(Config, ObserveUnknownFlagReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result =
      rt::assemble_from_config("observe shiny\n", registry, graph);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("unknown observe flag"), std::string::npos);
  EXPECT_FALSE(graph.observability_enabled());
}

TEST(Config, HealthDirectiveParsesSettings) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
health degraded_after_s=1.5 stale_after_s=4 dead_after_s=20 max_retries=3
health ack_timeout_ms=250
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "unsatisfied"
                                                     : result.errors[0]);
  ASSERT_TRUE(result.health.has_value());
  EXPECT_DOUBLE_EQ(result.health->degraded_after_s, 1.5);
  EXPECT_DOUBLE_EQ(result.health->stale_after_s, 4.0);
  EXPECT_DOUBLE_EQ(result.health->dead_after_s, 20.0);
  EXPECT_EQ(result.health->max_retries, 3);
  // The second line extended, not replaced, the first.
  EXPECT_DOUBLE_EQ(result.health->ack_timeout_ms, 250.0);
  // Untouched keys keep their defaults.
  EXPECT_DOUBLE_EQ(result.health->hold_s, rt::HealthSettings{}.hold_s);

  // The parsed settings translate into the watchdog's config.
  const auto watchdog = result.health->watchdog();
  EXPECT_DOUBLE_EQ(watchdog.degraded_after_s, 1.5);
  EXPECT_DOUBLE_EQ(watchdog.stale_after_s, 4.0);
}

TEST(Config, HealthDirectiveAbsentMeansNoSettings) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result =
      rt::assemble_from_config("component s source\n", registry, graph);
  EXPECT_FALSE(result.health.has_value());
}

TEST(Config, HealthDirectiveErrorsReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
health frobnication=3
health degraded_after_s=soon
health stale_after_s
)",
                                               registry, graph);
  ASSERT_EQ(result.errors.size(), 3u);
  EXPECT_NE(result.errors[0].find("unknown health key"), std::string::npos);
  EXPECT_NE(result.errors[1].find("bad number"), std::string::npos);
  EXPECT_NE(result.errors[2].find("key=value"), std::string::npos);
  // A rejected line leaves the settings untouched.
  EXPECT_FALSE(result.health.has_value());
}

TEST(Config, HealthRoundTripsThroughExport) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto first = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
health degraded_after_s=1.5 stale_after_s=4 dead_after_s=20 hold_s=7 check_interval_s=0.5 max_retries=3 ack_timeout_ms=250
)",
                                              registry, graph);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.health.has_value());

  const std::string exported = rt::export_config(graph, &*first.health);
  EXPECT_NE(exported.find("health "), std::string::npos);

  // Re-parse the export: identical settings come back.
  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Source", std::vector<core::DataSpec>{core::provide<Num>()});
  });
  by_kind.register_kind("Sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Num>()});
  });
  core::ProcessingGraph rebuilt;
  const auto second = rt::assemble_from_config(exported, by_kind, rebuilt);
  ASSERT_TRUE(second.errors.empty())
      << (second.errors.empty() ? "" : second.errors[0]);
  ASSERT_TRUE(second.health.has_value());
  EXPECT_EQ(*second.health, *first.health);
}

TEST(Config, ReconfigDirectiveParsesSettings) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
reconfig verify=0 history=4 tee_samples=64
reconfig probation_checks=10
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.reconfig.has_value());
  EXPECT_FALSE(result.reconfig->verify);
  EXPECT_EQ(result.reconfig->history, 4u);
  EXPECT_EQ(result.reconfig->tee_samples, 64u);
  // Second line merged into the first, defaults untouched elsewhere.
  EXPECT_EQ(result.reconfig->probation_checks, 10u);
}

TEST(Config, ReconfigDirectiveErrorsReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
reconfig frobnication=3
reconfig history=soon
reconfig verify
)",
                                               registry, graph);
  ASSERT_EQ(result.errors.size(), 3u);
  EXPECT_NE(result.errors[0].find("unknown reconfig key"), std::string::npos);
  EXPECT_NE(result.errors[1].find("bad number"), std::string::npos);
  EXPECT_NE(result.errors[2].find("key=value"), std::string::npos);
  EXPECT_FALSE(result.reconfig.has_value());
}

TEST(Config, ReconfigRoundTripsThroughExport) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto first = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
reconfig verify=1 history=16 tee_samples=128 probation_checks=5
)",
                                              registry, graph);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.reconfig.has_value());

  const std::string exported = rt::export_config(
      graph, nullptr, nullptr, nullptr, &*first.reconfig);
  EXPECT_NE(exported.find("reconfig "), std::string::npos);

  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Source", std::vector<core::DataSpec>{core::provide<Num>()});
  });
  by_kind.register_kind("Sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Num>()});
  });
  core::ProcessingGraph rebuilt;
  const auto second = rt::assemble_from_config(exported, by_kind, rebuilt);
  ASSERT_TRUE(second.errors.empty())
      << (second.errors.empty() ? "" : second.errors[0]);
  ASSERT_TRUE(second.reconfig.has_value());
  EXPECT_EQ(*second.reconfig, *first.reconfig);
}

TEST(Config, PlanDirectiveParsesSettingsAndReportsErrors) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
plan
plan auto_refreeze=0
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result.plan.has_value());
  EXPECT_TRUE(result.plan->freeze);  // Bare `plan` keeps the default.
  EXPECT_FALSE(result.plan->auto_refreeze);

  core::ProcessingGraph other;
  const auto bad = rt::assemble_from_config(R"(
component src source
plan melt=1
plan freeze=maybe
plan freeze
)",
                                            registry, other);
  ASSERT_EQ(bad.errors.size(), 3u);
  EXPECT_NE(bad.errors[0].find("unknown plan key"), std::string::npos);
  EXPECT_NE(bad.errors[1].find("bad number"), std::string::npos);
  EXPECT_NE(bad.errors[2].find("key=value"), std::string::npos);
  EXPECT_FALSE(bad.plan.has_value());
}

TEST(Config, SettingsRejectNonFiniteAndOutOfRangeNumbers) {
  // Each line would otherwise store NaN/inf or cast a value no integer
  // setting can hold.
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
reconfig history=1e300
reconfig tee_samples=inf
budget * watermark=18446744073709551616
budget * slo_us=nan
health max_retries=4294967296
health hold_s=-inf
plan freeze=nan
observe slo_us=inf
)",
                                               registry, graph);
  ASSERT_EQ(result.errors.size(), 8u);
  for (std::size_t i = 0; i < result.errors.size(); ++i) {
    EXPECT_EQ(result.errors[i].rfind("line " + std::to_string(i + 2) + ": ",
                                     0),
              0u)
        << result.errors[i];
    EXPECT_NE(result.errors[i].find("bad number"), std::string::npos)
        << result.errors[i];
  }
  EXPECT_FALSE(result.reconfig.has_value());
  EXPECT_FALSE(result.budget_defaults.has_value());
  EXPECT_FALSE(result.health.has_value());
  EXPECT_FALSE(result.plan.has_value());
  EXPECT_EQ(graph.observability_config(), nullptr);
}

TEST(Config, ExportedNumbersReadBackExactly) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto first = rt::assemble_from_config(R"(
health ack_timeout_ms=2147483648 stale_after_s=0.1234567890123
budget * slo_us=123456789 burst=4
)",
                                              registry, graph);
  ASSERT_TRUE(first.errors.empty()) << first.errors.front();
  const std::string exported =
      rt::export_config(graph, &*first.health, nullptr, nullptr, nullptr,
                        nullptr, &*first.budget_defaults);
  // Six digits where they suffice; all 17 only where they do not.
  EXPECT_NE(exported.find(" burst=4 "), std::string::npos) << exported;
  core::ProcessingGraph rebuilt;
  const auto second = rt::assemble_from_config(exported, registry, rebuilt);
  ASSERT_TRUE(second.errors.empty()) << second.errors.front();
  EXPECT_EQ(second.health, first.health);
  EXPECT_EQ(second.budget_defaults, first.budget_defaults);
}

TEST(Config, PlanRoundTripsThroughExport) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto first = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
plan freeze=1 auto_refreeze=0
)",
                                              registry, graph);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.plan.has_value());

  const std::string exported = rt::export_config(
      graph, nullptr, nullptr, nullptr, nullptr, nullptr, nullptr,
      &*first.plan);
  EXPECT_NE(exported.find("plan freeze=1 auto_refreeze=0"),
            std::string::npos);

  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Source", std::vector<core::DataSpec>{core::provide<Num>()});
  });
  by_kind.register_kind("Sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Num>()});
  });
  core::ProcessingGraph rebuilt;
  const auto second = rt::assemble_from_config(exported, by_kind, rebuilt);
  ASSERT_TRUE(second.errors.empty())
      << (second.errors.empty() ? "" : second.errors[0]);
  ASSERT_TRUE(second.plan.has_value());
  EXPECT_EQ(*second.plan, *first.plan);
}

TEST(Config, ObserveRoundTripsThroughExport) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  ASSERT_TRUE(rt::assemble_from_config(R"(
component src source
observe metrics tracing
)",
                                       registry, graph)
                  .ok());
  const std::string exported = rt::export_config(graph);
  EXPECT_NE(exported.find("observe metrics recording\n"), std::string::npos);
  EXPECT_EQ(exported.find("timing"), std::string::npos);
  EXPECT_EQ(exported.find("tracing"), std::string::npos);
}

TEST(Config, ObserveLatencyRecordingAndSloParse) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
observe latency recording slo_us=250
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  const auto* cfg = graph.observability_config();
  ASSERT_NE(cfg, nullptr);
  EXPECT_TRUE(cfg->latency);
  EXPECT_TRUE(cfg->recording);
  EXPECT_DOUBLE_EQ(cfg->latency_slo_us, 250.0);
  // `recording` attaches the graph-owned flight recorder.
  EXPECT_NE(graph.flight_recorder(), nullptr);

  const std::string exported = rt::export_config(graph);
  EXPECT_NE(exported.find("latency"), std::string::npos);
  EXPECT_NE(exported.find("recording"), std::string::npos);
  EXPECT_NE(exported.find("slo_us=250"), std::string::npos);

  // Re-parsing the export reproduces the observability config exactly.
  // (Re-assembly of the component lines needs a kind()-keyed registry, as
  // in ExportRoundTrip; the observe semantics are what's under test here.)
  rt::ComponentFactoryRegistry by_kind;
  by_kind.register_kind("Source", [](const auto&) {
    return std::make_shared<core::SourceComponent>(
        "Source", std::vector<core::DataSpec>{core::provide<Num>()});
  });
  by_kind.register_kind("Sink", [](const auto&) {
    return std::make_shared<core::ApplicationSink>(
        "Sink", std::vector<core::InputRequirement>{core::require<Num>()});
  });
  core::ProcessingGraph second;
  const auto round = rt::assemble_from_config(exported, by_kind, second);
  ASSERT_TRUE(round.ok()) << (round.errors.empty() ? "" : round.errors[0]);
  const auto* cfg2 = second.observability_config();
  ASSERT_NE(cfg2, nullptr);
  EXPECT_TRUE(cfg2->latency);
  EXPECT_TRUE(cfg2->recording);
  EXPECT_DOUBLE_EQ(cfg2->latency_slo_us, 250.0);
}

TEST(Config, ObserveAllEnablesEverything) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  ASSERT_TRUE(rt::assemble_from_config("observe all\n", registry, graph).ok());
  const auto* cfg = graph.observability_config();
  ASSERT_NE(cfg, nullptr);
  EXPECT_TRUE(cfg->metrics);
  EXPECT_TRUE(cfg->timing);
  EXPECT_TRUE(cfg->latency);
  EXPECT_TRUE(cfg->recording);
}

TEST(Config, ObserveBadSloReported) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result =
      rt::assemble_from_config("observe slo_us=banana\n", registry, graph);
  ASSERT_EQ(result.errors.size(), 1u);
  EXPECT_NE(result.errors[0].find("slo_us"), std::string::npos);
}

// --- The budget verb ---------------------------------------------------------

TEST(Config, BudgetAnnotationAndDefaultsParse) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
component app sink
connect src app
budget src rate=10..20 cost_us=2.5
budget app min_rate=0.5
budget * source_rate=4 burst=16 watermark=256 slo_us=50000
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  const rt::BudgetAnnotation& src = result.budgets.at("src");
  EXPECT_DOUBLE_EQ(src.rate_lo_hz, 10.0);
  EXPECT_DOUBLE_EQ(src.rate_hi_hz, 20.0);
  EXPECT_DOUBLE_EQ(src.cost_us, 2.5);
  EXPECT_DOUBLE_EQ(src.min_rate_hz, 0.0);
  const rt::BudgetAnnotation& app = result.budgets.at("app");
  EXPECT_DOUBLE_EQ(app.min_rate_hz, 0.5);
  EXPECT_LT(app.cost_us, 0.0);  // Untouched: stays "calibrated".
  ASSERT_TRUE(result.budget_defaults.has_value());
  EXPECT_DOUBLE_EQ(result.budget_defaults->source_rate_hz, 4.0);
  EXPECT_DOUBLE_EQ(result.budget_defaults->burst, 16.0);
  EXPECT_EQ(result.budget_defaults->queue_watermark, 256u);
  EXPECT_DOUBLE_EQ(result.budget_defaults->latency_slo_us, 50000.0);
}

TEST(Config, BudgetLinesMergeFieldByField) {
  // A later line refines, never resets: rate from line one survives a
  // cost-only line two, and a rate-only line three replaces only the rate.
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
budget src rate=10
budget src cost_us=7
budget src rate=30..40
)",
                                               registry, graph);
  ASSERT_TRUE(result.errors.empty()) << result.errors[0];
  const rt::BudgetAnnotation& src = result.budgets.at("src");
  EXPECT_DOUBLE_EQ(src.rate_lo_hz, 30.0);
  EXPECT_DOUBLE_EQ(src.rate_hi_hz, 40.0);
  EXPECT_DOUBLE_EQ(src.cost_us, 7.0);
}

TEST(Config, BudgetErrorsArePerLine) {
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
budget src frobs=3
budget src cost_us=soon
budget src rate=9..3
budget src not-key-value
budget
budget src
budget * rate=5
budget ghost rate=5
)",
                                               registry, graph);
  ASSERT_EQ(result.errors.size(), 8u);
  EXPECT_NE(result.errors[0].find("unknown budget key 'frobs'"),
            std::string::npos);
  EXPECT_NE(result.errors[1].find("bad number 'soon'"), std::string::npos);
  EXPECT_NE(result.errors[2].find("budget rate: bad interval '9..3'"),
            std::string::npos);
  EXPECT_NE(result.errors[3].find("key=value tokens"), std::string::npos);
  EXPECT_NE(result.errors[4].find("budget needs <component-name>"),
            std::string::npos);
  EXPECT_NE(result.errors[5].find("budget 'src' sets no annotation"),
            std::string::npos);
  EXPECT_NE(result.errors[6].find("unknown budget * key 'rate'"),
            std::string::npos);
  // Unknown targets surface in the resolution pass, after every parse
  // error, because `budget` lines may precede the components they name.
  EXPECT_NE(result.errors[7].find("budget: unknown component 'ghost'"),
            std::string::npos);
  // Nothing half-applied: the only valid target never got a valid key.
  EXPECT_TRUE(result.budgets.empty());
  EXPECT_FALSE(result.budget_defaults.has_value());
}

TEST(Config, BudgetZeroValuesAreTheUnsetConvention) {
  // min_rate=0 / rate interval 0..0 ARE the "unset" encodings, so a line
  // writing only zeros parses fine but annotates nothing — the analyzer
  // sees calibrated cost and no rate floor, exactly as with no line.
  const auto registry = make_registry();
  core::ProcessingGraph graph;
  const auto result = rt::assemble_from_config(R"(
component src source
budget src min_rate=0
)",
                                               registry, graph);
  ASSERT_TRUE(result.ok()) << (result.errors.empty() ? "" : result.errors[0]);
  EXPECT_EQ(result.budgets.at("src"), rt::BudgetAnnotation{});
}
