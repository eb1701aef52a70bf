#pragma once

#include "perpos/verify/diagnostic.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <vector>

/// \file model_check.hpp
/// Bounded explicit-state model checking of PerPos's stateful protocols
/// (the PPM rule family).
///
/// The PPV/PPS/PPQ rules check structure, live behaviour, and rates; the
/// middleware's *protocols* — seq/ack/retransmit reliable links, the
/// fence-quiesce hot-swap — are temporal:
/// their correctness claims quantify over every interleaving of concurrent
/// actors. Chaos tests sample those interleavings; the checker in this file
/// enumerates them exhaustively within a bound.
///
/// Design (mc::explore):
///  - A *model* is plain data: a POD `State` struct of uint8_t fields (no
///    padding — `has_unique_object_representations` is enforced so states
///    hash and compare as raw bytes), a set of initial states, a successor
///    enumerator (every enabled action of every actor), a safety invariant
///    checked on each discovered state, and a terminal-state predicate that
///    encodes liveness-under-fairness as "every fully-drained execution
///    reached the goal" (fairness itself is encoded as bounded adversary
///    budgets — see protocol_models.hpp).
///  - Exploration is breadth-first with a hash-deduplicated state store, so
///    the first violation found is a *shortest* counterexample; predecessor
///    links reconstruct it as a FlightRecorder-style event sequence
///    (actor + label per step) that the SARIF emitter renders as codeFlows.
///  - Exploration is bounded by distinct-state, depth and wall-clock
///    budgets. Exhausting a budget yields Verdict::kTruncated — never a
///    clean verdict — which check_protocol_models() surfaces as an explicit
///    PPM005 note.
///
/// The built-in protocol models and their PPM rules live in
/// protocol_models.hpp; this header is the reusable checker core (tests
/// drive it with toy models too).

namespace perpos::verify::mc {

/// Exploration limits for one model. Defaults are sized so the built-in
/// protocol models verify exhaustively in well under a second; a smaller
/// budget truncates (reported, never silently clean).
struct Budget {
  std::size_t max_states = 1u << 20;  ///< Distinct states stored.
  std::size_t max_depth = 192;        ///< BFS depth (protocol steps).
  double max_ms = 10000.0;            ///< Wall-clock cap.
};

enum class Verdict {
  kClean,      ///< Invariant + terminal checks hold on the full state space.
  kViolation,  ///< A property failed; `trace` is a shortest counterexample.
  kTruncated,  ///< A budget ran out first; NOT a clean verdict.
};

std::string_view verdict_name(Verdict verdict) noexcept;

/// A property violation reported by a model's invariant()/terminal().
/// Empty `property` means "holds".
struct Violation {
  std::string property;  ///< Stable kebab-case property id.
  std::string message;   ///< Human-readable, self-contained.
  bool ok() const noexcept { return property.empty(); }
};

/// One transition out of a state: the successor plus the event that labels
/// the counterexample step ("egress: retransmit seq=1 attempt=2").
template <typename State>
struct Step {
  State next{};
  TraceStep event;
};

/// The result of exploring one model.
struct Outcome {
  Verdict verdict = Verdict::kClean;
  std::string model;          ///< Model name (for findings/fingerprints).
  std::string property;       ///< Violated property (kViolation only).
  std::string message;        ///< Violation or truncation detail.
  std::vector<TraceStep> trace;  ///< Shortest counterexample (kViolation).
  std::size_t states = 0;        ///< Distinct states discovered.
  std::size_t transitions = 0;   ///< Successor edges taken.
  std::size_t depth = 0;         ///< Deepest BFS level reached.
  std::string truncated_by;      ///< "states" / "depth" / "time".

  bool clean() const noexcept { return verdict == Verdict::kClean; }
};

/// Breadth-first bounded exploration of `model`.
///
/// Model requirements (duck-typed; see protocol_models.cpp for examples):
///   using State = <POD uint8_t-only struct>;
///   std::string_view name() const;
///   std::vector<State> initial() const;
///   void successors(const State&, std::vector<Step<State>>&) const;
///   Violation invariant(const State&) const;   // safety, every state
///   Violation terminal(const State&) const;    // states with no successor
template <typename Model>
Outcome explore(const Model& model, const Budget& budget) {
  using State = typename Model::State;
  static_assert(std::is_trivially_copyable_v<State>,
                "model states must be plain data");
  static_assert(std::has_unique_object_representations_v<State>,
                "model states must have no padding (uint8_t fields only) so "
                "raw bytes are a canonical hash/equality key");

  Outcome outcome;
  outcome.model = std::string(model.name());

  const auto t0 = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&t0] {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
  };

  // State store: raw bytes -> dense index. std::deque keeps discovered
  // states addressable while growing; parent links reconstruct traces.
  std::unordered_map<std::string, std::uint32_t> index;
  std::deque<State> states;
  struct Meta {
    std::uint32_t parent = 0;
    std::uint32_t depth = 0;
    TraceStep via;
  };
  std::deque<Meta> meta;
  std::deque<std::uint32_t> frontier;

  const auto key_of = [](const State& s) {
    return std::string(reinterpret_cast<const char*>(&s), sizeof(State));
  };

  const auto rebuild_trace = [&](std::uint32_t at) {
    std::vector<TraceStep> trace;
    while (meta[at].depth > 0) {
      trace.push_back(meta[at].via);
      at = meta[at].parent;
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  const auto violate = [&](std::uint32_t at, const Violation& v) {
    outcome.verdict = Verdict::kViolation;
    outcome.property = v.property;
    outcome.message = v.message;
    outcome.trace = rebuild_trace(at);
    outcome.states = states.size();
  };

  // Seed the frontier with the initial states (checked like any other).
  for (const State& s : model.initial()) {
    const auto [it, inserted] = index.emplace(key_of(s), states.size());
    if (!inserted) continue;
    states.push_back(s);
    meta.push_back(Meta{});
    frontier.push_back(it->second);
    const Violation v = model.invariant(s);
    if (!v.ok()) {
      violate(it->second, v);
      return outcome;
    }
  }

  std::vector<Step<State>> steps;
  while (!frontier.empty()) {
    const std::uint32_t at = frontier.front();
    frontier.pop_front();
    const std::uint32_t depth = meta[at].depth;
    outcome.depth = std::max<std::size_t>(outcome.depth, depth);

    if (depth >= budget.max_depth) {
      outcome.verdict = Verdict::kTruncated;
      outcome.truncated_by = "depth";
      break;
    }
    if (elapsed_ms() > budget.max_ms) {
      outcome.verdict = Verdict::kTruncated;
      outcome.truncated_by = "time";
      break;
    }

    steps.clear();
    // Copy: deque references can be invalidated by push_back below.
    const State current = states[at];
    model.successors(current, steps);
    if (steps.empty()) {
      const Violation v = model.terminal(current);
      if (!v.ok()) {
        violate(at, v);
        return outcome;
      }
      continue;
    }
    for (const Step<State>& step : steps) {
      ++outcome.transitions;
      const auto [it, inserted] = index.emplace(key_of(step.next),
                                                states.size());
      if (!inserted) continue;  // Revisit; already checked.
      states.push_back(step.next);
      meta.push_back(Meta{at, depth + 1, step.event});
      const Violation v = model.invariant(step.next);
      if (!v.ok()) {
        violate(it->second, v);
        return outcome;
      }
      frontier.push_back(it->second);
      if (states.size() >= budget.max_states) {
        outcome.verdict = Verdict::kTruncated;
        outcome.truncated_by = "states";
        break;
      }
    }
    if (outcome.verdict == Verdict::kTruncated) break;
  }

  outcome.states = states.size();
  if (outcome.verdict == Verdict::kTruncated) {
    outcome.message = "exploration truncated by the " + outcome.truncated_by +
                      " budget after " + std::to_string(states.size()) +
                      " states / depth " + std::to_string(outcome.depth) +
                      "; the unexplored remainder is unverified";
  }
  return outcome;
}

}  // namespace perpos::verify::mc
