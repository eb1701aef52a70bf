// Property and fuzz tests: randomized (but seeded, deterministic)
// workloads checking structural invariants of the graph engine, parser
// robustness against arbitrary bytes, codec totality, and the config
// parser against mutated example configs.

#include "perpos/core/channel.hpp"
#include "perpos/core/components.hpp"
#include "perpos/core/data_types.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/nmea/generate.hpp"
#include "perpos/nmea/stream_parser.hpp"
#include "perpos/runtime/config.hpp"
#include "perpos/runtime/payload_codec.hpp"
#include "perpos/sim/random.hpp"

#include "standard_registry.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace core = perpos::core;
namespace nmea = perpos::nmea;
namespace rt = perpos::runtime;
namespace sim = perpos::sim;

namespace {

struct Token {
  int value = 0;
};

std::shared_ptr<core::ProcessingComponent> make_node(sim::Random& random) {
  switch (random.uniform_int(0, 2)) {
    case 0:
      return std::make_shared<core::SourceComponent>(
          "Src", std::vector<core::DataSpec>{core::provide<Token>()});
    case 1:
      return std::make_shared<core::LambdaComponent>(
          "Relay",
          std::vector<core::InputRequirement>{core::require<Token>()},
          std::vector<core::DataSpec>{core::provide<Token>()},
          [](const core::Sample& s, const core::ComponentContext& ctx) {
            ctx.emit(s.payload);
          });
    default:
      return std::make_shared<core::ApplicationSink>();
  }
}

/// Structural invariants that must hold after any mutation sequence.
void check_invariants(core::ProcessingGraph& graph,
                      core::ChannelManager& channels) {
  const auto ids = graph.components();
  std::set<core::ComponentId> live(ids.begin(), ids.end());

  for (core::ComponentId id : ids) {
    const core::ComponentInfo info = graph.info(id);
    // Edge symmetry: consumers' producer lists contain us and vice versa.
    for (core::ComponentId c : info.consumers) {
      ASSERT_TRUE(live.contains(c));
      const auto back = graph.info(c).producers;
      EXPECT_NE(std::find(back.begin(), back.end(), id), back.end());
    }
    for (core::ComponentId p : info.producers) {
      ASSERT_TRUE(live.contains(p));
      const auto fwd = graph.info(p).consumers;
      EXPECT_NE(std::find(fwd.begin(), fwd.end(), id), fwd.end());
    }
  }

  // Acyclicity: DFS from every node never returns to it.
  for (core::ComponentId start : ids) {
    std::vector<core::ComponentId> stack{start};
    std::set<core::ComponentId> seen;
    bool first = true;
    while (!stack.empty()) {
      const core::ComponentId n = stack.back();
      stack.pop_back();
      if (!first && n == start) FAIL() << "cycle through " << start;
      if (!seen.insert(n).second) continue;
      first = false;
      for (core::ComponentId next : graph.info(n).consumers) {
        stack.push_back(next);
      }
    }
  }

  // Channel view is derivable and consistent: every channel's path exists,
  // interior nodes are 1-in/1-out, sink consumes last path node.
  for (core::Channel* c : channels.channels()) {
    ASSERT_FALSE(c->path().empty());
    EXPECT_TRUE(live.contains(c->source()));
    EXPECT_TRUE(live.contains(c->sink()));
    const auto sink_producers = graph.info(c->sink()).producers;
    EXPECT_NE(std::find(sink_producers.begin(), sink_producers.end(),
                        c->last()),
              sink_producers.end());
    for (std::size_t i = 1; i + 1 < c->path().size(); ++i) {
      const auto info = graph.info(c->path()[i]);
      if (!graph.component(c->path()[i]).is_channel_endpoint()) {
        EXPECT_EQ(info.producers.size(), 1u);
        EXPECT_EQ(info.consumers.size(), 1u);
      }
    }
  }
}

}  // namespace

class GraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzz, RandomMutationsPreserveInvariants) {
  sim::Random random(GetParam());
  core::ProcessingGraph graph;
  core::ChannelManager channels(graph);
  std::vector<core::ComponentId> ids;
  std::vector<std::shared_ptr<core::SourceComponent>> sources;

  for (int step = 0; step < 300; ++step) {
    const int op = random.uniform_int(0, 9);
    if (op <= 2 || ids.empty()) {  // Add (30%).
      auto node = make_node(random);
      auto source = std::dynamic_pointer_cast<core::SourceComponent>(node);
      ids.push_back(graph.add(node));
      if (source) sources.push_back(source);
    } else if (op <= 6) {  // Connect (40%).
      const auto a = ids[static_cast<std::size_t>(
          random.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      const auto b = ids[static_cast<std::size_t>(
          random.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      if (graph.has(a) && graph.has(b)) {
        try {
          graph.connect(a, b);
        } catch (const std::invalid_argument&) {
          // Incompatible / duplicate / cycle — expected and fine.
        }
      }
    } else if (op <= 7) {  // Disconnect (10%).
      const auto a = ids[static_cast<std::size_t>(
          random.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      if (graph.has(a)) {
        const auto consumers = graph.info(a).consumers;
        if (!consumers.empty()) {
          graph.disconnect(a, consumers.front());
        }
      }
    } else if (op <= 8) {  // Remove (10%).
      const auto a = ids[static_cast<std::size_t>(
          random.uniform_int(0, static_cast<int>(ids.size()) - 1))];
      if (graph.has(a)) graph.remove(a);
    } else {  // Pump data through a random live source (10%).
      for (auto& s : sources) {
        if (s->context().attached()) {
          s->push(Token{step});
          break;
        }
      }
    }

    if (step % 25 == 0) check_invariants(graph, channels);
  }
  check_invariants(graph, channels);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 42, 99,
                                           12345));

class NmeaFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NmeaFuzz, RandomBytesNeverCrashAndNeverFalselyParse) {
  sim::Random random(GetParam());
  nmea::StreamParser parser;
  for (int round = 0; round < 200; ++round) {
    std::string junk;
    const int len = random.uniform_int(0, 120);
    for (int i = 0; i < len; ++i) {
      junk.push_back(static_cast<char>(random.uniform_int(0, 255)));
    }
    for (const nmea::Sentence& s : parser.feed(junk)) {
      // Anything that parses from random bytes must have had a valid
      // checksum — astronomically unlikely but legal; verify integrity.
      EXPECT_FALSE(s.raw.empty());
    }
  }
}

TEST_P(NmeaFuzz, MutatedValidSentencesNeverYieldWrongPositions) {
  sim::Random random(GetParam());
  nmea::GgaSentence gga;
  gga.quality = nmea::FixQuality::kGps;
  gga.satellites_in_use = 8;
  gga.hdop = 1.0;
  gga.latitude_deg = 56.1697;
  gga.longitude_deg = 10.1994;
  const std::string valid = nmea::generate_gga(gga) + "\r\n";

  nmea::StreamParser parser;
  int parsed = 0;
  for (int round = 0; round < 500; ++round) {
    std::string mutated = valid;
    const int flips = random.uniform_int(1, 3);
    for (int i = 0; i < flips; ++i) {
      const auto idx = static_cast<std::size_t>(random.uniform_int(
          0, static_cast<int>(mutated.size()) - 1));
      mutated[idx] = static_cast<char>(random.uniform_int(32, 126));
    }
    for (const nmea::Sentence& s : parser.feed(mutated)) {
      ++parsed;
      // If it parsed, the checksum held, so either the mutation was a
      // no-op or hit a "don't care" byte; position fields must be sane.
      if (s.gga && nmea::is_fix(s.gga->quality)) {
        EXPECT_GE(s.gga->latitude_deg, -90.0);
        EXPECT_LE(s.gga->latitude_deg, 90.0);
        EXPECT_GE(s.gga->longitude_deg, -180.0);
        EXPECT_LE(s.gga->longitude_deg, 180.0);
      }
    }
    parser.reset();
  }
  // The vast majority of mutations must be rejected by the checksum.
  EXPECT_LT(parsed, 50);
}

INSTANTIATE_TEST_SUITE_P(Seeds, NmeaFuzz, ::testing::Values(7, 21, 777));

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CodecFuzz, RandomWireInputNeverCrashes) {
  sim::Random random(GetParam());
  for (int round = 0; round < 500; ++round) {
    std::string wire;
    const int len = random.uniform_int(0, 80);
    for (int i = 0; i < len; ++i) {
      wire.push_back(static_cast<char>(random.uniform_int(32, 126)));
    }
    // Must either decode to a valid payload or return nullopt — never
    // throw, never crash.
    EXPECT_NO_THROW({
      const auto decoded = perpos::runtime::decode_payload(wire);
      if (decoded) {
        EXPECT_TRUE(perpos::runtime::is_encodable(*decoded));
      }
    });
  }
}

TEST_P(CodecFuzz, EncodeDecodeIsStableUnderRandomFixes) {
  sim::Random random(GetParam());
  for (int round = 0; round < 200; ++round) {
    core::PositionFix fix;
    fix.position = {random.uniform(-90.0, 90.0),
                    random.uniform(-180.0, 180.0), random.uniform(-100, 9000)};
    fix.horizontal_accuracy_m = random.uniform(0.0, 500.0);
    fix.timestamp = sim::SimTime{random.uniform_int(0, 1 << 30)};
    fix.technology = round % 2 == 0 ? "GPS" : "WiFi";
    const auto wire =
        perpos::runtime::encode_payload(core::Payload::make(fix));
    const auto back = perpos::runtime::decode_payload(wire);
    ASSERT_TRUE(back.has_value());
    const auto& f = back->as<core::PositionFix>();
    EXPECT_NEAR(f.position.latitude_deg, fix.position.latitude_deg, 1e-8);
    EXPECT_NEAR(f.position.longitude_deg, fix.position.longitude_deg, 1e-8);
    EXPECT_EQ(f.timestamp, fix.timestamp);
    EXPECT_EQ(f.technology, fix.technology);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(5, 55, 555));

// --- Config parser -----------------------------------------------------------

namespace {

std::vector<std::string> example_configs() {
  std::vector<std::string> out;
  for (const char* name :
       {"gps_pipeline.conf", "wifi_room.conf", "distributed_gps.conf",
        "fleet_budget.conf", "broken_pipeline.conf", "broken-lanes.cfg",
        "broken-budget.cfg"}) {
    std::ifstream in(std::string(PERPOS_CONFIG_DIR) + "/" + name);
    std::ostringstream text;
    text << in.rdbuf();
    out.push_back(text.str());
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

std::vector<std::string> split_tokens(const std::string& line) {
  std::vector<std::string> tokens;
  std::istringstream in(line);
  for (std::string token; in >> token;) tokens.push_back(token);
  return tokens;
}

std::string join(const std::vector<std::string>& parts, char sep) {
  std::string out;
  for (const std::string& part : parts) {
    if (!out.empty()) out += sep;
    out += part;
  }
  return out;
}

/// Numbers no setting can hold, or that stod reads oddly.
const std::vector<std::string> kOddNumbers = {
    "1e309", "-1",  "1e300", "nan",     "inf",  "-inf", "-0",    "0x10",
    "1e-320", "18446744073709551616", "2147483648", "0.1234567890123",
    "123456789", "1..2", "5..1", "0..0", ""};

const std::vector<std::pair<std::string, std::vector<std::string>>>
    kSettingKeys = {
        {"plan", {"freeze", "auto_refreeze", "thaw"}},
        {"reconfig",
         {"verify", "history", "tee_samples", "probation_checks", "teeth"}},
        {"budget *", {"source_rate", "burst", "watermark", "slo_us", "rate"}},
        {"health", {"stale_after_s", "max_retries", "ack_timeout_ms", "x"}},
};

/// One to three random edits of `text`: a dropped or duplicated token,
/// random bytes, an out-of-range number, or a plan/reconfig/budget/health
/// line (often with an unknown key or an odd value).
std::string mutate(const std::string& text, sim::Random& random) {
  std::vector<std::string> lines = split_lines(text);
  const auto pick = [&random](std::size_t n) {
    return static_cast<std::size_t>(
        random.uniform_int(0, static_cast<int>(n) - 1));
  };
  const int edits = random.uniform_int(1, 3);
  for (int e = 0; e < edits; ++e) {
    if (lines.empty()) lines.emplace_back();
    std::string& line = lines[pick(lines.size())];
    std::vector<std::string> tokens = split_tokens(line);
    switch (random.uniform_int(0, 5)) {
      case 0:  // Drop a token.
        if (!tokens.empty()) tokens.erase(tokens.begin() + pick(tokens.size()));
        line = join(tokens, ' ');
        break;
      case 1:  // Duplicate a token in place.
        if (!tokens.empty()) {
          const std::size_t i = pick(tokens.size());
          tokens.insert(tokens.begin() + i, tokens[i]);
        }
        line = join(tokens, ' ');
        break;
      case 2: {  // Overwrite a span with random bytes.
        const int n = random.uniform_int(1, 8);
        const std::size_t at = line.empty() ? 0 : pick(line.size());
        std::string junk;
        for (int i = 0; i < n; ++i) {
          junk.push_back(static_cast<char>(random.uniform_int(0, 255)));
        }
        line.replace(at, std::min<std::size_t>(junk.size(), line.size() - at),
                     junk);
        break;
      }
      case 3: {  // An odd number in place of a value.
        if (tokens.empty()) break;
        std::string& token = tokens[pick(tokens.size())];
        const std::size_t eq = token.find('=');
        const std::string& odd = kOddNumbers[pick(kOddNumbers.size())];
        token = eq == std::string::npos ? odd : token.substr(0, eq + 1) + odd;
        line = join(tokens, ' ');
        break;
      }
      default: {  // A settings line, values valid or odd, keys known or not.
        const auto& [verb, keys] = kSettingKeys[pick(kSettingKeys.size())];
        std::string added = verb;
        const int n = random.uniform_int(0, 3);
        for (int i = 0; i < n; ++i) {
          const std::string value =
              random.uniform_int(0, 2) == 0
                  ? kOddNumbers[pick(kOddNumbers.size())]
                  : std::to_string(random.uniform_int(0, 4)) + "." +
                        std::to_string(random.uniform_int(0, 99));
          added += " " + keys[pick(keys.size())] + "=" + value;
        }
        lines.insert(lines.begin() + pick(lines.size() + 1), added);
        break;
      }
    }
  }
  return join(lines, '\n') + "\n";
}

/// Wraps the tools' standard registry and remembers which kind and
/// arguments built each component kind() name, so an export (which names
/// kinds by kind()) re-assembles to the same components.
struct KindMemo {
  std::map<std::string, std::pair<std::string, std::vector<std::string>>>
      by_kind;
  bool ambiguous = false;
};

rt::ComponentFactoryRegistry recording_registry(
    const rt::ComponentFactoryRegistry& standard, KindMemo& memo) {
  rt::ComponentFactoryRegistry registry;
  for (const std::string& kind : standard.kinds()) {
    registry.register_kind(
        kind, [&standard, &memo, kind](const std::vector<std::string>& args) {
          auto component = standard.create(kind, args);
          const auto [it, inserted] = memo.by_kind.try_emplace(
              std::string(component->kind()), kind, args);
          if (!inserted && it->second != std::make_pair(kind, args)) {
            memo.ambiguous = true;
          }
          return component;
        });
  }
  return registry;
}

rt::ComponentFactoryRegistry replay_registry(
    const rt::ComponentFactoryRegistry& standard, const KindMemo& memo) {
  rt::ComponentFactoryRegistry registry;
  for (const auto& [name, recipe] : memo.by_kind) {
    registry.register_kind(name, [&standard, recipe = recipe](const auto&) {
      return standard.create(recipe.first, recipe.second);
    });
  }
  return registry;
}

/// export_config of an assembled config, its settings keyed by id.
std::string export_assembled(const core::ProcessingGraph& graph,
                             const rt::ConfigResult& result) {
  std::map<std::string, core::ComponentId> ids;
  for (const auto& [name, id] : result.report.instantiated) ids[name] = id;
  std::map<core::ComponentId, std::string> hosts;
  for (const auto& [name, host] : result.hosts) hosts[ids.at(name)] = host;
  std::map<core::ComponentId, std::string> lanes;
  for (const auto& [name, lane] : result.lanes) lanes[ids.at(name)] = lane;
  std::map<core::ComponentId, rt::BudgetAnnotation> budgets;
  for (const auto& [name, budget] : result.budgets) {
    budgets[ids.at(name)] = budget;
  }
  const auto ptr = [](const auto& optional) {
    return optional.has_value() ? &*optional : nullptr;
  };
  return rt::export_config(graph, ptr(result.health), &hosts, &lanes,
                           ptr(result.reconfig), &budgets,
                           ptr(result.budget_defaults), ptr(result.plan));
}

}  // namespace

class ConfigFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConfigFuzz, MutatedExampleConfigsReportPerLineAndRoundTrip) {
  sim::Random random(GetParam());
  perpos::tools::Fixtures fixtures;
  const rt::ComponentFactoryRegistry standard =
      perpos::tools::standard_registry(fixtures);
  const std::vector<std::string> configs = example_configs();
  std::size_t accepted = 0;
  for (int round = 0; round < 150; ++round) {
    const std::string& base = configs[static_cast<std::size_t>(
        random.uniform_int(0, static_cast<int>(configs.size()) - 1))];
    ASSERT_FALSE(base.empty());
    const std::string text = mutate(base, random);
    SCOPED_TRACE("config:\n" + text);
    const std::size_t line_count = split_lines(text).size();

    KindMemo memo;
    const rt::ComponentFactoryRegistry recording =
        recording_registry(standard, memo);
    core::ProcessingGraph graph;
    rt::ConfigResult result;
    ASSERT_NO_THROW(result = rt::assemble_from_config(text, recording, graph));
    for (const std::string& error : result.errors) {
      std::size_t line = 0;
      std::size_t used = 0;
      ASSERT_EQ(error.rfind("line ", 0), 0u) << error;
      ASSERT_NO_THROW(line = std::stoul(error.substr(5), &used)) << error;
      EXPECT_EQ(error.substr(5 + used, 2), ": ") << error;
      EXPECT_GE(line, 1u) << error;
      EXPECT_LE(line, line_count) << error;
    }
    if (!result.ok() || memo.ambiguous) continue;
    ++accepted;

    // An accepted config exports, re-parses and exports again unchanged,
    // with every setting equal.
    const std::string exported = export_assembled(graph, result);
    const rt::ComponentFactoryRegistry replay = replay_registry(standard, memo);
    core::ProcessingGraph rebuilt;
    rt::ConfigResult again;
    ASSERT_NO_THROW(again =
                        rt::assemble_from_config(exported, replay, rebuilt));
    ASSERT_TRUE(again.errors.empty())
        << again.errors.front() << "\nexported:\n" << exported;
    EXPECT_EQ(export_assembled(rebuilt, again), exported);
    EXPECT_EQ(again.health, result.health);
    EXPECT_EQ(again.reconfig, result.reconfig);
    EXPECT_EQ(again.plan, result.plan);
    EXPECT_EQ(again.budget_defaults, result.budget_defaults);
    EXPECT_EQ(again.budgets.size(), result.budgets.size());
    EXPECT_EQ(again.hosts.size(), result.hosts.size());
    EXPECT_EQ(again.lanes.size(), result.lanes.size());
    EXPECT_EQ(rebuilt.components().size(), graph.components().size());
  }
  // Some mutants are harmless (a comment edit, a valid settings line), so
  // the round trip is exercised on every seed.
  EXPECT_GT(accepted, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConfigFuzz,
                         ::testing::Values(3, 31, 314, 3141, 31415));
