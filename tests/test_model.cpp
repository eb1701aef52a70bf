// Tests for the bounded explicit-state model checker (perpos::verify::mc)
// and the PPM protocol models: the checker core on toy state machines
// (BFS shortest-counterexample, dedup, terminal checks, budget truncation),
// the built-in protocol models verifying clean exhaustively, the
// mutation-kill variants each producing their PPM finding with a short
// replayable trace, and the counterexample rendering across text / JSON /
// SARIF (codeFlows).

#include "perpos/verify/emit.hpp"
#include "perpos/verify/model_check.hpp"
#include "perpos/verify/protocol_models.hpp"
#include "perpos/verify/rules.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace vfy = perpos::verify;
namespace mc = perpos::verify::mc;

namespace {

// --- Toy models for the checker core ---------------------------------------

// Two independent counters, 0..3 each: 16 states, no properties. Exercises
// dedup (many interleavings, one lattice) and clean termination.
struct GridState {
  std::uint8_t a = 0;
  std::uint8_t b = 0;
};

class GridModel {
 public:
  using State = GridState;
  std::string_view name() const { return "toy-grid"; }
  std::vector<State> initial() const { return {State{}}; }
  void successors(const State& s, std::vector<mc::Step<State>>& out) const {
    if (s.a < 3) {
      State n = s;
      ++n.a;
      out.push_back({n, {"a", "inc to " + std::to_string(int(n.a))}});
    }
    if (s.b < 3) {
      State n = s;
      ++n.b;
      out.push_back({n, {"b", "inc to " + std::to_string(int(n.b))}});
    }
  }
  mc::Violation invariant(const State&) const { return {}; }
  mc::Violation terminal(const State&) const { return {}; }
};

// Same lattice, but (a,b) = (2,1) violates the invariant. The shortest
// path there is 3 steps; BFS must find exactly that length.
class BadCellModel : public GridModel {
 public:
  std::string_view name() const { return "toy-bad-cell"; }
  mc::Violation invariant(const State& s) const {
    if (s.a == 2 && s.b == 1) return {"bad-cell", "reached (2,1)"};
    return {};
  }
};

// Clean invariants but the (only) terminal state (3,3) fails the goal
// check — exercises the liveness-at-termination path.
class BadGoalModel : public GridModel {
 public:
  std::string_view name() const { return "toy-bad-goal"; }
  mc::Violation terminal(const State&) const {
    return {"goal-missed", "drained without reaching the goal"};
  }
};

}  // namespace

// --- Checker core -----------------------------------------------------------

TEST(ModelChecker, ExploresDedupedStateSpace) {
  const mc::Outcome o = mc::explore(GridModel{}, mc::Budget{});
  EXPECT_EQ(o.verdict, mc::Verdict::kClean);
  EXPECT_TRUE(o.clean());
  // 4x4 lattice: 16 distinct states regardless of interleaving count.
  EXPECT_EQ(o.states, 16u);
  // Each state has an edge per enabled counter: 2*12 + ... = 24 total.
  EXPECT_EQ(o.transitions, 24u);
  EXPECT_EQ(o.depth, 6u);
  EXPECT_TRUE(o.property.empty());
  EXPECT_TRUE(o.trace.empty());
}

TEST(ModelChecker, FindsShortestCounterexample) {
  const mc::Outcome o = mc::explore(BadCellModel{}, mc::Budget{});
  ASSERT_EQ(o.verdict, mc::Verdict::kViolation);
  EXPECT_EQ(o.property, "bad-cell");
  EXPECT_EQ(o.model, "toy-bad-cell");
  // (2,1) is 3 moves from the origin; BFS guarantees the minimum.
  ASSERT_EQ(o.trace.size(), 3u);
  int a = 0;
  int b = 0;
  for (const vfy::TraceStep& step : o.trace) {
    EXPECT_TRUE(step.actor == "a" || step.actor == "b") << step.actor;
    (step.actor == "a" ? a : b) += 1;
  }
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 1);
}

TEST(ModelChecker, ChecksTerminalStates) {
  const mc::Outcome o = mc::explore(BadGoalModel{}, mc::Budget{});
  ASSERT_EQ(o.verdict, mc::Verdict::kViolation);
  EXPECT_EQ(o.property, "goal-missed");
  // The only successor-free state is (3,3), six steps out.
  EXPECT_EQ(o.trace.size(), 6u);
}

TEST(ModelChecker, TruncatesOnStateBudget) {
  mc::Budget budget;
  budget.max_states = 5;
  const mc::Outcome o = mc::explore(GridModel{}, budget);
  EXPECT_EQ(o.verdict, mc::Verdict::kTruncated);
  EXPECT_FALSE(o.clean());
  EXPECT_EQ(o.truncated_by, "states");
  EXPECT_NE(o.message.find("unverified"), std::string::npos);
}

TEST(ModelChecker, TruncatesOnDepthBudget) {
  mc::Budget budget;
  budget.max_depth = 2;
  const mc::Outcome o = mc::explore(GridModel{}, budget);
  EXPECT_EQ(o.verdict, mc::Verdict::kTruncated);
  EXPECT_EQ(o.truncated_by, "depth");
}

TEST(ModelChecker, DeterministicAcrossRuns) {
  const mc::Outcome x = mc::explore(BadCellModel{}, mc::Budget{});
  const mc::Outcome y = mc::explore(BadCellModel{}, mc::Budget{});
  EXPECT_EQ(x.states, y.states);
  EXPECT_EQ(x.transitions, y.transitions);
  ASSERT_EQ(x.trace.size(), y.trace.size());
  for (std::size_t i = 0; i < x.trace.size(); ++i) {
    EXPECT_EQ(x.trace[i].actor, y.trace[i].actor);
    EXPECT_EQ(x.trace[i].label, y.trace[i].label);
  }
}

TEST(ModelChecker, VerdictNames) {
  EXPECT_EQ(mc::verdict_name(mc::Verdict::kClean), "clean");
  EXPECT_EQ(mc::verdict_name(mc::Verdict::kViolation), "violation");
  EXPECT_EQ(mc::verdict_name(mc::Verdict::kTruncated), "truncated");
}

// --- Built-in protocol models: clean within the default budget -------------

TEST(ProtocolModels, ReliableLinkVerifiesClean) {
  const mc::Outcome o = vfy::check_link_model({}, mc::Budget{});
  EXPECT_EQ(o.verdict, mc::Verdict::kClean) << o.message;
  EXPECT_EQ(o.model, "reliable-link");
  // Exhaustive, not vacuous: the pipelined two-message instance under a
  // drop/dup/premature-timeout adversary has a few thousand states.
  EXPECT_GT(o.states, 1000u);
}

TEST(ProtocolModels, ReliableLinkFifoWindow1VerifiesClean) {
  vfy::LinkModelParams params;
  params.reorder = false;
  params.window1 = true;
  const mc::Outcome o = vfy::check_link_model(params, mc::Budget{});
  EXPECT_EQ(o.verdict, mc::Verdict::kClean) << o.message;
  EXPECT_EQ(o.model, "reliable-link-fifo");
}

TEST(ProtocolModels, MonotonicityNotATheoremWhenPipelined) {
  // Documented honesty check: over a FIFO transport but with pipelined
  // sending, a retransmission overtakes later seqs — the checker finds
  // that counterexample, which is why the shipped FIFO configuration
  // models the stop-and-wait (window-1) discipline.
  vfy::LinkModelParams params;
  params.reorder = false;
  params.window1 = false;
  const mc::Outcome o = vfy::check_link_model(params, mc::Budget{});
  ASSERT_EQ(o.verdict, mc::Verdict::kViolation);
  EXPECT_EQ(o.property, "non-monotonic-delivery");
}

TEST(ProtocolModels, HotSwapVerifiesClean) {
  const mc::Outcome o = vfy::check_swap_model({}, mc::Budget{});
  EXPECT_EQ(o.verdict, mc::Verdict::kClean) << o.message;
  EXPECT_EQ(o.model, "hot-swap");
}

TEST(ProtocolModels, CleanRunProducesEmptyReport) {
  const vfy::Report report = vfy::check_protocol_models();
  EXPECT_TRUE(report.ok());
  EXPECT_TRUE(report.diagnostics.empty());
}

// --- Mutation kills: seeded protocol bugs must be found --------------------

namespace {

// Every seeded bug must yield its PPM finding with a short (<= 20 steps,
// per the acceptance bar; in practice <= 6) replayable counterexample.
void expect_kill(const mc::Outcome& o, std::string_view property,
                 std::string_view rule) {
  ASSERT_EQ(o.verdict, mc::Verdict::kViolation)
      << o.model << ": " << o.message;
  EXPECT_EQ(o.property, property);
  EXPECT_EQ(vfy::model_rule_for(o), rule);
  EXPECT_FALSE(o.trace.empty());
  EXPECT_LE(o.trace.size(), 20u);
}

}  // namespace

TEST(MutationKill, DroppedAckDedupe) {
  vfy::LinkModelParams params;
  params.mutant = vfy::ModelMutant::kLinkNoDedupe;
  expect_kill(vfy::check_link_model(params, mc::Budget{}),
              "duplicate-delivery", "PPM001");
}

TEST(MutationKill, SkippedRetransmissionBound) {
  vfy::LinkModelParams params;
  params.mutant = vfy::ModelMutant::kLinkSkipRetransmitBound;
  expect_kill(vfy::check_link_model(params, mc::Budget{}),
              "premature-giveup", "PPM002");
}

TEST(MutationKill, UnfenceBeforeQuiesceCompletes) {
  vfy::SwapModelParams params;
  params.mutant = vfy::ModelMutant::kSwapUnfenceEarly;
  expect_kill(vfy::check_swap_model(params, mc::Budget{}),
              "mutation-during-drain", "PPM003");
}

TEST(MutationKill, EveryMutantKillsThroughTheReportPipeline) {
  for (const vfy::ModelMutant mutant :
       {vfy::ModelMutant::kLinkNoDedupe,
        vfy::ModelMutant::kLinkSkipRetransmitBound,
        vfy::ModelMutant::kSwapUnfenceEarly}) {
    vfy::ModelCheckOptions options;
    options.mutant = mutant;
    const vfy::Report report = vfy::check_protocol_models(options);
    EXPECT_FALSE(report.ok())
        << "mutant " << vfy::model_mutant_name(mutant) << " not killed";
    ASSERT_FALSE(report.diagnostics.empty());
    const vfy::Diagnostic& d = report.diagnostics.front();
    EXPECT_EQ(d.severity, vfy::Severity::kError);
    EXPECT_EQ(d.rule_id.rfind("PPM", 0), 0u) << d.rule_id;
    EXPECT_FALSE(d.property.empty());
    EXPECT_FALSE(d.trace.empty());
    EXPECT_LE(d.trace.size(), 20u);
  }
}

TEST(MutationKill, MutantNamesRoundTrip) {
  for (const std::string_view name : vfy::model_mutant_names()) {
    const auto mutant = vfy::parse_model_mutant(name);
    ASSERT_TRUE(mutant.has_value()) << name;
    EXPECT_EQ(vfy::model_mutant_name(*mutant), name);
  }
  EXPECT_FALSE(vfy::parse_model_mutant("no-such-mutant").has_value());
  EXPECT_TRUE(vfy::model_mutant_name(vfy::ModelMutant::kNone).empty());
}

// --- Truncation is reported, never clean -----------------------------------

TEST(ProtocolModels, BudgetExhaustionIsAnExplicitNote) {
  vfy::ModelCheckOptions options;
  options.budget.max_states = 10;
  const vfy::Report report = vfy::check_protocol_models(options);
  // Notes don't gate, but every truncated model must announce itself —
  // one PPM005 per model configuration (2 link configs + swap).
  EXPECT_EQ(report.errors(), 0u);
  EXPECT_EQ(report.notes(), 3u);
  for (const vfy::Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.rule_id, "PPM005");
    EXPECT_EQ(d.severity, vfy::Severity::kNote);
    EXPECT_EQ(d.property.rfind("budget-", 0), 0u) << d.property;
    EXPECT_NE(d.message.find("UNVERIFIED"), std::string::npos);
  }
}

// --- Catalog integration ----------------------------------------------------

TEST(ProtocolModels, PpmRulesLiveInTheOneCatalog) {
  const vfy::RuleRegistry& catalog = vfy::RuleRegistry::default_catalog();
  for (const char* id : {"PPM001", "PPM002", "PPM003", "PPM005"}) {
    const vfy::Rule* rule = catalog.find(id);
    ASSERT_NE(rule, nullptr) << id;
    EXPECT_FALSE(rule->description().empty()) << id;
    EXPECT_FALSE(vfy::rule_sketch(id).empty()) << id;
  }
  EXPECT_EQ(catalog.find("PPM001")->default_severity(),
            vfy::Severity::kError);
  EXPECT_EQ(catalog.find("PPM005")->default_severity(),
            vfy::Severity::kNote);
  // Retired with the freeze/thaw model; the id is reserved, never reused.
  EXPECT_EQ(catalog.find("PPM004"), nullptr);
}

// --- Counterexample rendering ----------------------------------------------

namespace {

vfy::Report swap_mutant_report() {
  vfy::ModelCheckOptions options;
  options.mutant = vfy::ModelMutant::kSwapUnfenceEarly;
  return vfy::check_protocol_models(options);
}

}  // namespace

TEST(ModelEmit, TextRendersNumberedSchedule) {
  const std::string text = vfy::to_text(swap_mutant_report());
  EXPECT_NE(text.find("error[PPM003]"), std::string::npos) << text;
  EXPECT_NE(text.find("counterexample ("), std::string::npos) << text;
  EXPECT_NE(text.find("1. producer: post sample 1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("reconfig: "), std::string::npos) << text;
}

TEST(ModelEmit, JsonCarriesPropertyAndTrace) {
  const std::string json = vfy::to_json(swap_mutant_report(), nullptr);
  EXPECT_NE(json.find("\"rule\":\"PPM003\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"property\":\"mutation-during-drain\""),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"trace\":[{\"actor\":\"producer\""),
            std::string::npos)
      << json;
}

TEST(ModelEmit, SarifRendersCodeFlows) {
  const std::string sarif =
      vfy::to_sarif(swap_mutant_report(),
                    vfy::RuleRegistry::default_catalog(), "", nullptr);
  EXPECT_NE(sarif.find("\"ruleId\":\"PPM003\""), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("\"codeFlows\":[{\"threadFlows\":"),
            std::string::npos)
      << sarif;
  EXPECT_NE(sarif.find("\"executionOrder\":1"), std::string::npos) << sarif;
  EXPECT_NE(sarif.find("producer: post sample 1"), std::string::npos)
      << sarif;
  // The counterexample property rides the result's property bag.
  EXPECT_NE(sarif.find("\"properties\":{\"property\":"
                       "\"mutation-during-drain\"}"),
            std::string::npos)
      << sarif;
}

TEST(ModelEmit, NonModelFindingsUnchanged) {
  // Reports without traces must render byte-identical to before the PPM
  // family existed (golden outputs elsewhere depend on it).
  vfy::Report report;
  vfy::Diagnostic d;
  d.rule_id = "PPV003";
  d.severity = vfy::Severity::kWarning;
  d.message = "nothing consumes this";
  d.component_name = "gps";
  report.diagnostics.push_back(d);
  const std::string json = vfy::to_json(report, nullptr);
  EXPECT_EQ(json.find("trace"), std::string::npos);
  EXPECT_EQ(json.find("property"), std::string::npos);
  const std::string text = vfy::to_text(report);
  EXPECT_EQ(text.find("counterexample"), std::string::npos);
}
