#pragma once

#include "perpos/core/feature.hpp"
#include "perpos/core/graph.hpp"
#include "perpos/core/watchdog.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/sanitize/sanitizer.hpp"
#include "perpos/verify/incremental.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

/// \file live_reconfigurator.hpp
/// Zero-downtime reconfiguration of a live positioning process (paper
/// Sec. 5: the reified process is causally connected, so adapting the
/// model *is* adapting the running system — but production targets keep
/// producing samples while an operator swaps a provider or upgrades a
/// fusion stage).
///
/// LiveReconfigurator::replace() swaps one Processing Component while
/// samples are in flight, with no dropped and no duplicated deliveries:
///
///  1. *Quiesce.* The victim graph's execution lane is fenced
///     (exec::ExecutionEngine::fence): the in-flight task finishes under
///     the old epoch, queued and newly posted samples are held in post
///     order. Because a lane is drained by at most one worker, a returned
///     fence is a proof that nothing executes on the graph.
///  2. *Verify.* The successor is staged structurally (no state
///     transfer), the graph's verify::IncrementalVerifier rechecks the
///     delta — O(delta), not O(graph) — and any error rejects the swap
///     with the incumbent installed and the transcript untouched. The
///     fence is one verify transaction: an armed verify gate re-verifies
///     once, just before the fence lifts.
///  3. *Cut over.* The incumbent's buffered state is flushed
///     (on_teardown), serialized (ProcessingComponent::serialize_state)
///     and restored into the successor; edges, features and the
///     per-producer logical-time counter carry over
///     (core::ProcessingGraph::replace is id-preserving), so downstream
///     consumers observe one continuous, gap-free sample sequence.
///  4. *Commit.* The graph epoch advances, the displaced component is
///     pushed onto a bounded undo history, and the fence lifts — held
///     samples drain into the successor.
///
/// Failure at any point — verifier rejection, a throwing handoff, a new
/// sanitizer finding — rolls the incumbent back automatically and
/// trigger()s a FlightRecorder dump, so every failed swap leaves a black
/// box. rollback(epoch) reverses committed swaps the same way, and
/// begin_tee()/poll_tee() runs an optional live A/B comparison (incumbent
/// and successor fed the same traffic, transcripts compared) before the
/// real cutover.
///
/// The protocol's safety claims — no sample processed by both predecessor
/// and successor, every mutation inside the fenced quiesce window (the
/// PPS006 invariant), no loss across cutover or rollback, the fence
/// always released — are proved over *every* interleaving of producer,
/// worker, and reconfigurator by the bounded model checker (PPM003;
/// perpos/verify/protocol_models.hpp models steps 1–4 plus the reject and
/// rollback paths). The chaos tests sample the same interleavings at full
/// fidelity; the model covers the schedule space the samples can miss.
/// Changes to the fence/quiesce/cutover ordering here must keep the model
/// in lockstep.

namespace perpos::reconfig {

/// Tuning knobs for a LiveReconfigurator.
struct ReconfigOptions {
  /// Gate every swap on an incremental re-verification of the mutation
  /// delta (stage 2). Disable only in tests.
  bool verify = true;
  /// Committed swaps kept for rollback(). Oldest records fall off.
  std::size_t history = 8;
  /// Default A/B tee quota: matched sample pairs both variants must
  /// produce before poll_tee() promotes the successor. 0 = tee disabled
  /// unless begin_tee() passes an explicit quota.
  std::size_t tee_samples = 0;
  /// After a committed swap, watch the successor through a
  /// core::Watchdog for this many check intervals; reaching kStale or
  /// kDead inside the window rolls the swap back. 0 = no probation.
  /// Requires enable_probation().
  int probation_checks = 0;
};

/// What a reconfiguration call did.
enum class SwapOutcome {
  kCommitted,  ///< Successor installed; epoch advanced.
  kRejected,   ///< Verifier said no; incumbent untouched (no flush).
  kAborted,    ///< Handoff threw / sanitizer finding / tee divergence;
               ///< incumbent (re)installed.
  kTeeing,     ///< A/B tee in progress; call poll_tee() to advance.
};

std::string_view swap_outcome_name(SwapOutcome outcome) noexcept;

struct SwapResult {
  SwapOutcome outcome = SwapOutcome::kAborted;
  /// Graph epoch after the call (advanced only by commits/rollbacks).
  std::uint64_t epoch = 0;
  /// Findings of replace()'s staging check of the successor.
  verify::Report report;
  /// Human-readable failure cause for kRejected / kAborted.
  std::string error;

  bool ok() const noexcept { return outcome == SwapOutcome::kCommitted; }
};

/// Orchestrates verified hot swaps, epoch rollback and A/B tees for one
/// graph driven by one execution lane.
///
/// Threading: all calls must come from a thread that is *not* a task on
/// the managed lane (fence() would wait for itself) — typically the
/// control/simulation thread. The graph, engine, and any attached
/// sanitizer/watchdog must outlive this object.
class LiveReconfigurator {
 public:
  /// Compares one incumbent/successor output pair during a tee. Return
  /// false to flag divergence. The default compares payload types only
  /// (payloads are type-erased and carry no operator==).
  using TeeComparator =
      std::function<bool(const core::Sample& incumbent,
                         const core::Sample& successor)>;

  LiveReconfigurator(core::ProcessingGraph& graph,
                     exec::ExecutionEngine& engine, exec::LaneId lane,
                     ReconfigOptions options = {});
  ~LiveReconfigurator();

  LiveReconfigurator(const LiveReconfigurator&) = delete;
  LiveReconfigurator& operator=(const LiveReconfigurator&) = delete;

  /// Hot-swap `victim`'s implementation for `successor` under the full
  /// protocol (fence → verify → handoff → commit). Never throws for
  /// protocol failures — inspect the SwapResult.
  SwapResult replace(core::ComponentId victim,
                     std::shared_ptr<core::ProcessingComponent> successor);

  /// Reverse every committed swap with epoch > `to_epoch`, newest first
  /// (displaced components return with their retained state; current ones
  /// flush downstream first). The graph epoch still advances — a rollback
  /// is itself a reconfiguration — and a FlightRecorder dump is always
  /// triggered. Fails (kAborted) when `to_epoch` predates the bounded
  /// history or a tee is active.
  SwapResult rollback(std::uint64_t to_epoch);

  /// Stage `successor` as a shadow node fed by the victim's producers and
  /// start transcript comparison. Returns kTeeing on success. The victim
  /// must have at least one upstream edge (a source cannot be teed).
  SwapResult begin_tee(core::ComponentId victim,
                       std::shared_ptr<core::ProcessingComponent> successor,
                       TeeComparator compare = {}, std::size_t quota = 0);
  /// Compare transcripts accumulated so far. Divergence aborts the tee
  /// (shadow removed, dump triggered); quota reached promotes the
  /// successor through the normal verified swap. Otherwise kTeeing.
  SwapResult poll_tee();
  /// Cancel an active tee without judgment; the shadow is removed.
  SwapResult abort_tee();
  bool tee_active() const noexcept { return tee_ != nullptr; }

  /// Arm the sanitizer gate: a swap that produces new sanitizer findings
  /// during cutover is rolled back (kAborted). Also lets the protocol
  /// open a PPS006 quiesce window around its mutations. Pass nullptr to
  /// disarm.
  void set_sanitizer(sanitize::GraphSanitizer* sanitizer) noexcept {
    sanitizer_ = sanitizer;
  }

  /// Arm post-commit probation through `watchdog` (see
  /// ReconfigOptions::probation_checks): the successor is watch()ed, and
  /// a transition to kStale/kDead within the probation window triggers an
  /// automatic rollback to the pre-swap epoch. The watchdog must outlive
  /// this object or disable_probation().
  void enable_probation(core::Watchdog& watchdog);
  void disable_probation();

  /// Current graph epoch (coarse version; advanced only by committed
  /// reconfigurations).
  std::uint64_t epoch() const noexcept { return graph_.epoch(); }
  /// Epochs still reversible, oldest first.
  std::vector<std::uint64_t> rollback_epochs() const;

  /// Outcome counts, also exported as perpos_reconfig_{commits,rejects,
  /// aborts,rollbacks}_total: the reconfigurator is a metrics source of
  /// its graph (ProcessingGraph::add_metrics_source), read at scrape.
  std::uint64_t commits() const noexcept { return commits_.get(); }
  std::uint64_t rejects() const noexcept { return rejects_.get(); }
  std::uint64_t aborts() const noexcept { return aborts_.get(); }
  std::uint64_t rollbacks() const noexcept { return rollbacks_.get(); }

 private:
  struct UndoRecord {
    std::uint64_t epoch = 0;  ///< Epoch the swap committed as.
    core::ComponentId victim = core::kInvalidComponent;
    std::shared_ptr<core::ProcessingComponent> displaced;
  };
  struct Probation {
    core::ComponentId component = core::kInvalidComponent;
    std::uint64_t pre_epoch = 0;
    sim::SimTime expires = sim::SimTime::zero();
  };
  class TeeTap;
  struct TeeState;
  class FenceScope;

  /// The verify/handoff/commit protocol, fence already held.
  SwapResult replace_locked(core::ComponentId victim,
                            std::shared_ptr<core::ProcessingComponent>
                                successor);
  SwapResult teardown_tee_locked(SwapOutcome outcome, std::string error,
                                 bool dump_on_exit);
  void record_phase(std::string_view phase, core::ComponentId victim,
                    std::uint64_t aux = 0);
  void dump(const std::string& reason);
  /// Scrape time, any thread: the outcome counts.
  void collect(obs::MetricsSnapshot& out) const;
  void observe_fence_us(double us);
  void arm_probation(core::ComponentId victim, std::uint64_t pre_epoch);
  void on_health_transition(core::ComponentId source, core::HealthState to,
                            sim::SimTime when);

  core::ProcessingGraph& graph_;
  exec::ExecutionEngine& engine_;
  exec::LaneId lane_;
  ReconfigOptions options_;
  /// The graph's verifier, shared with its verify gate.
  std::shared_ptr<verify::IncrementalVerifier> verifier_;
  sanitize::GraphSanitizer* sanitizer_ = nullptr;
  core::Watchdog* watchdog_ = nullptr;
  std::size_t watchdog_token_ = 0;
  std::deque<UndoRecord> history_;
  std::vector<Probation> probation_;
  std::unique_ptr<TeeState> tee_;
  // Read by a scrape on any thread.
  obs::Tally commits_;
  obs::Tally rejects_;
  obs::Tally aborts_;
  obs::Tally rollbacks_;
  bool in_rollback_ = false;  ///< Reentrancy guard for probation rollback.
  /// Released first (declared last), so no scrape outlives the counts.
  obs::CollectorHandle metrics_source_;
};

}  // namespace perpos::reconfig
