#pragma once

#include "perpos/core/graph.hpp"
#include "perpos/verify/incremental.hpp"

#include <cstdint>
#include <string>

/// \file graph_plan.hpp
/// Verify gate for a running graph.
///
/// The graph has one executor and no lowered copy of its structure, so
/// there is nothing to compile: a mutation changes the running process at
/// once. What a "frozen" graph adds is a standing guarantee that the
/// static analyzer (PPV structural rules plus the PPQ quantitative budget
/// rules) found the *current* structure clean — the runtime counterpart of
/// assemble_verified. freeze() runs the incremental verifier and arms the
/// gate on a clean report; while armed, every GraphMutation (a PSL edit, a
/// LiveReconfigurator hot-swap commit or rollback, a tee promotion — they
/// all reach the graph as mutations) invalidates the last check, and the
/// gate re-verifies incrementally (O(delta) via IncrementalVerifier).
/// frozen() is true while the gate is armed and that last check was clean.
///
/// Observability settings, the PPS runtime sanitizer and the flight
/// recorder are independent of the gate: the same dispatch runs either way.

namespace perpos::plan {

struct PlanOptions {
  /// Re-verify automatically after every mutation while the gate is
  /// armed (i.e. after a successful freeze() that no explicit thaw() has
  /// revoked). When off, a mutation leaves the gate armed but unverified
  /// until the next freeze().
  bool auto_refreeze = true;
  /// Analyzer options for the gate (rule toggles, budget defaults).
  verify::Options verify_options{};
};

/// Outcome of a freeze attempt.
struct FreezeResult {
  bool frozen = false;
  /// Why the freeze was refused: "verification failed" with the analyzer
  /// report attached. Empty on success.
  std::string reason;
  verify::Report report;
};

/// Lifecycle counters, for introspection and tests.
struct PlanStats {
  std::uint64_t freezes = 0;           ///< Clean checks (incl. re-verifies).
  std::uint64_t freeze_rejections = 0; ///< freeze() calls that were refused.
  std::uint64_t thaws = 0;             ///< Explicit thaw() calls that thawed.
  std::uint64_t auto_thaws = 0;        ///< Mutations observed while armed (each
                                       ///< invalidated the last clean check).
  std::uint64_t refreeze_failures = 0; ///< Re-verifies that found errors; the
                                       ///< gate stays armed but not frozen.
};

class GraphPlan {
 public:
  /// Subscribes to `graph`'s mutation observers; the graph must outlive
  /// this object. Drive it from the thread that mutates the graph (same
  /// contract as IncrementalVerifier).
  explicit GraphPlan(core::ProcessingGraph& graph, PlanOptions options = {});
  ~GraphPlan();

  GraphPlan(const GraphPlan&) = delete;
  GraphPlan& operator=(const GraphPlan&) = delete;

  /// Verify (incrementally) and arm the gate on a clean report. A refusal
  /// is reported, never thrown; dispatch is unaffected either way.
  FreezeResult freeze();

  /// Disarm the gate. No-op when not frozen.
  void thaw();

  /// Armed, and the last check of the current structure was clean.
  bool frozen() const noexcept { return armed_ && clean_; }

  /// Whether a successful freeze() armed the gate (true even while a
  /// mutation's re-verify found errors).
  bool armed() const noexcept { return armed_; }

  const PlanStats& stats() const noexcept { return stats_; }

  /// The gate's verifier, e.g. to annotate budgets (PPQ) without dropping
  /// its cache.
  verify::IncrementalVerifier& verifier() noexcept { return verifier_; }

 private:
  void on_mutation();

  core::ProcessingGraph& graph_;
  PlanOptions options_;
  verify::IncrementalVerifier verifier_;
  PlanStats stats_;
  std::size_t observer_token_ = 0;
  bool armed_ = false;
  bool clean_ = false;
};

}  // namespace perpos::plan
