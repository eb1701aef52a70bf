// perpos-top — live introspection of a running multi-graph deployment.
//
// Embeds a small deployment (N pipelines, one engine lane each, W pool
// workers) with the full translucency plane attached — flight recorder
// and graph metrics, next to the counts the engine always keeps — and
// renders a refreshing text dashboard from the IntrospectionSnapshot API:
// per-lane queue depth and drain rate, per-worker utilization, per-graph
// delivery rates and self-time top-K.
//
//   perpos-top                          5 frames, 500 ms apart
//   perpos-top --frames 0               run until interrupted
//   perpos-top --graphs 8 --workers 4   bigger deployment
//   perpos-top --json                   one machine-readable snapshot
//   perpos-top --inject-failure         throw from a component mid-run;
//                                       the flight recorder dumps the
//                                       black box (perpos_flight.json +
//                                       perpos_flight.trace.json)
//
// The same IntrospectionSnapshot/render_dashboard plumbing works against
// any ExecutionEngine + PositioningService in-process; this tool is both
// the operator demo and the smoke test for it.

#include "perpos/core/components.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/introspection.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

using namespace perpos;

namespace {

struct Value {
  int n = 0;
};

/// One pipeline: Src -> depth relays -> sink. The middle relay can be
/// armed to throw once (--inject-failure).
struct Pipeline {
  Pipeline(int depth, bool arm_failure) {
    source = std::make_shared<core::SourceComponent>(
        "Src", std::vector<core::DataSpec>{core::provide<Value>()});
    core::ComponentId prev = graph.add(source);
    for (int i = 0; i < depth; ++i) {
      const bool faulty = arm_failure && i == depth / 2;
      auto relay = std::make_shared<core::LambdaComponent>(
          "Relay",
          std::vector<core::InputRequirement>{core::require<Value>()},
          std::vector<core::DataSpec>{core::provide<Value>()},
          [this, faulty](const core::Sample& s,
                         const core::ComponentContext& ctx) {
            if (faulty && fail_next) {
              fail_next = false;
              throw std::runtime_error("injected relay failure");
            }
            ctx.emit(s.payload);
          });
      const auto mid = graph.add(relay);
      graph.connect(prev, mid);
      prev = mid;
    }
    graph.connect(prev, graph.add(std::make_shared<core::ApplicationSink>()));
  }
  core::ProcessingGraph graph;
  std::shared_ptr<core::SourceComponent> source;
  bool fail_next = false;
};

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--graphs N] [--workers N] [--depth N]\n"
               "          [--frames N] [--interval-ms N] [--burst N]\n"
               "          [--json] [--no-clear] [--inject-failure]\n"
               "          [--flight-dump PATH] [--chrome-trace PATH]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int graphs = 3;
  std::size_t workers = 2;
  int depth = 8;
  int frames = 5;
  int interval_ms = 500;
  int burst = 256;
  bool json = false;
  bool clear_screen = true;
  bool inject_failure = false;
  std::string flight_dump = "perpos_flight.json";
  std::string chrome_trace = "perpos_flight.trace.json";

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--graphs") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      graphs = std::atoi(v);
    } else if (std::strcmp(argv[i], "--workers") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      workers = static_cast<std::size_t>(std::atoi(v));
    } else if (std::strcmp(argv[i], "--depth") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      depth = std::atoi(v);
    } else if (std::strcmp(argv[i], "--frames") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      frames = std::atoi(v);
    } else if (std::strcmp(argv[i], "--interval-ms") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      interval_ms = std::atoi(v);
    } else if (std::strcmp(argv[i], "--burst") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      burst = std::atoi(v);
    } else if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--no-clear") == 0) {
      clear_screen = false;
    } else if (std::strcmp(argv[i], "--inject-failure") == 0) {
      inject_failure = true;
    } else if (std::strcmp(argv[i], "--flight-dump") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      flight_dump = v;
    } else if (std::strcmp(argv[i], "--chrome-trace") == 0) {
      const char* v = next();
      if (v == nullptr) return usage(argv[0]);
      chrome_trace = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (graphs < 1 || depth < 1 || burst < 1) return usage(argv[0]);

  // --- The translucency plane ---------------------------------------------
  obs::FlightRecorder recorder(4096);
  int dumps = 0;
  recorder.set_dump_handler(
      [&](const std::string& reason, const obs::FlightRecorder& r) {
        ++dumps;
        std::ofstream(flight_dump) << r.dump_json(reason);
        std::ofstream(chrome_trace) << r.dump_chrome_trace();
        std::fprintf(stderr, "[flight recorder] dumped black box (%s) -> %s\n",
                     reason.c_str(), flight_dump.c_str());
      });

  exec::ExecutionEngine engine(workers);
  engine.set_flight_recorder(&recorder);

  // --- The deployment: one pipeline per lane ------------------------------
  std::vector<std::unique_ptr<Pipeline>> pipelines;
  std::vector<std::function<void(exec::Task)>> lanes;
  for (int g = 0; g < graphs; ++g) {
    auto p = std::make_unique<Pipeline>(depth, inject_failure && g == 0);
    obs::ObservabilityConfig cfg;
    cfg.latency = true;
    p->graph.enable_observability(cfg);
    const std::uint32_t lane =
        recorder.add_lane("graph-" + std::to_string(g));
    p->graph.set_flight_recorder(&recorder, lane,
                                 static_cast<std::uint32_t>(g));
    pipelines.push_back(std::move(p));
    lanes.push_back(
        engine.executor(engine.create_lane("graph-" + std::to_string(g))));
  }

  // --- The refresh loop ----------------------------------------------------
  obs::IntrospectionSnapshot prev;
  bool have_prev = false;
  int sample = 0;
  for (int frame = 0; frames <= 0 || frame < frames; ++frame) {
    if (inject_failure && frame == 1) pipelines[0]->fail_next = true;
    for (int g = 0; g < graphs; ++g) {
      Pipeline* p = pipelines[static_cast<std::size_t>(g)].get();
      const int base = sample;
      lanes[static_cast<std::size_t>(g)]([p, base, burst] {
        for (int b = 0; b < burst; ++b) p->source->push(Value{base + b});
      });
    }
    sample += burst;
    try {
      engine.run_until_idle();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "[engine] task failed: %s\n", e.what());
    }

    obs::IntrospectionSnapshot now = engine.introspect();
    for (int g = 0; g < graphs; ++g) {
      now.graphs.push_back(obs::graph_introspection(
          "graph-" + std::to_string(g),
          pipelines[static_cast<std::size_t>(g)]->graph.metrics()));
    }

    if (json) {
      std::printf("%s\n", obs::to_json(now).c_str());
      return 0;
    }
    if (clear_screen) std::printf("\x1b[2J\x1b[H");
    std::fputs(obs::render_dashboard(now, have_prev ? &prev : nullptr).c_str(),
               stdout);
    std::fflush(stdout);
    prev = std::move(now);
    have_prev = true;
    if (interval_ms > 0 && (frames <= 0 || frame + 1 < frames)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }

  if (inject_failure && dumps == 0) {
    std::fprintf(stderr, "expected a flight-recorder dump, got none\n");
    return 1;
  }
  return 0;
}
