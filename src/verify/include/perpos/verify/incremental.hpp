#pragma once

#include "perpos/core/graph.hpp"
#include "perpos/verify/rules.hpp"

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

/// \file incremental.hpp
/// Incremental re-verification and the verify gate of an adapting graph.
///
/// PerPos applications adapt the positioning process at runtime — a PSL
/// insert here, a provider swap there — and each adaptation should be
/// re-checked before (or right after) it takes effect. Re-running the full
/// catalog on every mutation is O(graph) per change; for a middleware
/// hosting many targets that adds up. This verifier instead tracks *dirty
/// regions*: graph mutations (observed through the core's GraphObserver
/// seam) mark the touched components, and recheck() re-analyzes only the
/// weakly-connected components containing a dirty node — O(delta) for the
/// typical adaptation that edits one pipeline among many — while replaying
/// cached findings for untouched regions.
///
/// Correctness rests on the Rule::local() contract: a local rule's findings
/// for a node depend only on that node's weak component (over edges +
/// links), so clean components' cached findings are exact. Non-local rules
/// (cross-component scans: PPV002, PPV013, PPV014, and the lane-aggregating
/// quantitative checks PPQ001, PPQ002) re-run on the full model every time —
/// they are cheap near-linear passes. recheck() therefore always yields the
/// same verdict multiset as a from-scratch verify().
///
/// Each graph has one verifier, shared through of() by the verify gate
/// (freeze()/thaw(), the runtime counterpart of assemble_verified) and the
/// LiveReconfigurator. An armed gate re-verifies after a lone PSL edit at
/// once, and after a fenced reconfiguration (one Transaction) once.

namespace perpos::verify {

/// Outcome of a freeze attempt: on refusal, `reason` says "verification
/// failed" and `report` holds the findings.
struct FreezeResult {
  bool frozen = false;
  std::string reason;
  Report report;
};

/// Verify-gate lifecycle counters, for introspection and tests.
struct GateStats {
  std::uint64_t freezes = 0;           ///< Clean checks (incl. re-verifies).
  std::uint64_t freeze_rejections = 0; ///< freeze() calls that were refused.
  std::uint64_t thaws = 0;             ///< Explicit thaw() calls that thawed.
  std::uint64_t auto_thaws = 0;        ///< Mutations observed while armed.
  std::uint64_t refreeze_failures = 0; ///< Re-verifies that found errors.
};

class IncrementalVerifier : private core::GraphObserver {
 public:
  /// The verifier of `graph`, created (subscribed to the graph's mutation
  /// observers, default Options, gate disarmed) by the first call and
  /// shared by every later one while any holder keeps it alive. The graph
  /// must outlive every holder. Thread-safe lookup; the verifier itself is
  /// not thread-safe: drive it from the thread that mutates the graph.
  static std::shared_ptr<IncrementalVerifier> of(
      core::ProcessingGraph& graph);

  ~IncrementalVerifier() override;

  IncrementalVerifier(const IncrementalVerifier&) = delete;
  IncrementalVerifier& operator=(const IncrementalVerifier&) = delete;

  /// Analyze everything from scratch (ignores the dirty set) and prime the
  /// per-component finding cache.
  Report full();

  /// Analyze only components marked dirty since the last full()/recheck();
  /// clean components replay their cached findings. Equivalent in verdicts
  /// to full(), at O(dirty subgraph) analysis cost. Everything is dirty
  /// until the first analysis.
  Report recheck();

  /// Nodes analyzed by subgraph-scoped (local-rule) analysis in the last
  /// full()/recheck() — the measure of incrementality: after a mutation
  /// touching one pipeline, recheck() reports that pipeline's size here,
  /// not the graph's.
  std::size_t nodes_visited() const noexcept { return nodes_visited_; }
  /// Weak components analyzed (not replayed from cache) in the last pass.
  std::size_t components_visited() const noexcept {
    return components_visited_;
  }

  /// Update one component's quantitative budget annotation and mark only
  /// that component dirty — the O(delta) path for rate/cost tuning, where
  /// set_options() would drop the whole cache. The next recheck()
  /// re-analyzes the annotated node's weak component locally; the
  /// non-local lane/queue rules (PPQ001/PPQ002) re-run on the full model
  /// every recheck() anyway, so lane verdicts stay exact.
  void annotate_budget(core::ComponentId id,
                       const BudgetAnnotation& annotation);

  /// Replace the analyzer options and drop the cache: the next recheck()
  /// analyzes everything.
  void set_options(Options options);
  const Options& options() const noexcept { return options_; }

  // --- Verify gate -----------------------------------------------------------

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

  const GateStats& stats() const noexcept { return stats_; }

  /// Re-verify automatically after mutations while the gate is armed (the
  /// default). When off, a mutation leaves the gate armed but unverified
  /// until the next freeze().
  void set_auto_refreeze(bool on) noexcept { auto_refreeze_ = on; }

  /// A verify transaction: while one is open, mutations only mark nodes
  /// dirty, and when the outermost closes an armed gate that saw a mutation
  /// re-verifies exactly once. Transactions nest.
  class Transaction {
   public:
    explicit Transaction(IncrementalVerifier& verifier)
        : verifier_(verifier) {
      ++verifier_.transaction_depth_;
    }
    ~Transaction() { verifier_.close_transaction(); }
    Transaction(const Transaction&) = delete;
    Transaction& operator=(const Transaction&) = delete;

   private:
    IncrementalVerifier& verifier_;
  };

 private:
  explicit IncrementalVerifier(core::ProcessingGraph& graph);

  Report analyze(bool everything_dirty);
  void on_mutation(const core::GraphMutation& mutation) override;
  void close_transaction();
  /// The gate's re-verify (when auto_refreeze is on).
  void refreeze();

  core::ProcessingGraph& graph_;
  Options options_;
  /// Nodes touched by mutations since the last analysis. A set of node
  /// ids, not components: the partition is recomputed each pass.
  std::set<core::ComponentId> dirty_;
  bool all_dirty_ = true;
  /// Cached local-rule findings keyed by the component's sorted node-id
  /// set. Structural mutations that change membership miss the cache by
  /// key; content mutations within a component hit via the dirty set.
  std::map<std::vector<core::ComponentId>, std::vector<Diagnostic>> cache_;
  std::size_t nodes_visited_ = 0;
  std::size_t components_visited_ = 0;

  GateStats stats_;
  bool armed_ = false;
  bool clean_ = false;
  bool auto_refreeze_ = true;
  std::size_t transaction_depth_ = 0;
  /// An armed gate saw a mutation inside the open transaction.
  bool refreeze_pending_ = false;
};

}  // namespace perpos::verify
