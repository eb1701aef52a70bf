#pragma once

#include "perpos/verify/diagnostic.hpp"
#include "perpos/verify/model_check.hpp"

#include <optional>
#include <string_view>
#include <vector>

/// \file protocol_models.hpp
/// The checked protocol models behind the PPM rule family, extracted
/// from the real subsystems and kept honest against them by construction
/// (every transition mirrors a documented step of the implementation; the
/// source cross-references live in the respective headers):
///
///  - *reliable-link* (src/health/reliable_link.*): ReliableEgress /
///    ReliableIngress under message drop, duplication, reordering and
///    arbitrary delay. Safety (PPM001): no duplicate delivery; FIFO
///    transports additionally deliver in seq order. Liveness (PPM002):
///    under the bounded-loss fairness assumption (the adversary's drop +
///    premature-timeout budgets stay within the retransmission bound),
///    every accepted sample is delivered — no loss, no premature give-up.
///
///  - *hot-swap* (src/reconfig/live_reconfigurator.*, src/exec fence):
///    the fence → quiesce → verify → cutover → unfence protocol (plus the
///    reject, rollback and flush paths) interleaved with a worker draining
///    the lane and a producer posting samples. Safety (PPM003): no sample
///    is processed by both predecessor and successor, every mutation
///    happens inside the fenced quiesce window with the lane quiet (the
///    PPS006 invariant, proved over all interleavings instead of sampled),
///    no sample is lost across cutover/rollback, and the fence is always
///    released.
///
/// PPM004 is retired and stays reserved: it belonged to a freeze/thaw
/// model of a compiled dispatch plan that no longer exists (the graph has
/// one executor, so there is no lowered copy that could go stale).
///
/// Exploration that exhausts its budget is reported as PPM005 (note) —
/// explicitly unverified, never silently clean.
///
/// Mutation-kill variants: each model accepts a seeded protocol bug
/// (ModelMutant) that must produce its PPM finding with a short
/// counterexample — the proof that the checker is not vacuously green.

namespace perpos::verify {

/// Seeded protocol bugs for mutation-kill testing (and the
/// `perpos-verify --model-mutant=` flag that exposes them to CLI tests).
enum class ModelMutant {
  kNone,
  /// ReliableIngress stops suppressing duplicate seqs -> PPM001.
  kLinkNoDedupe,
  /// ReliableEgress gives up on first timeout, skipping the retransmission
  /// bound -> PPM002.
  kLinkSkipRetransmitBound,
  /// The reconfigurator proceeds to cutover without waiting for the
  /// in-flight task to retire (unfence before quiesce completes) -> PPM003.
  kSwapUnfenceEarly,
};

/// CLI names, e.g. "link-no-dedupe". kNone has no name.
std::string_view model_mutant_name(ModelMutant mutant) noexcept;
std::optional<ModelMutant> parse_model_mutant(std::string_view name) noexcept;
std::vector<std::string_view> model_mutant_names();

/// Bounds for the reliable-link model. Defaults satisfy the fairness
/// precondition drop_budget + premature_timeouts <= max_retries, under
/// which the liveness property is a theorem of the real protocol.
struct LinkModelParams {
  int messages = 2;           ///< Samples the application hands the egress.
  int max_retries = 3;        ///< Retransmissions before give-up (config).
  int drop_budget = 2;        ///< Adversary: total wire drops (DATA or ACK).
  int dup_budget = 1;         ///< Adversary: total wire duplications.
  int premature_timeouts = 1; ///< Adversary: timeouts while a copy is still
                              ///< in flight (models jitter/slow acks).
  bool reorder = true;        ///< Channel delivers any in-flight message;
                              ///< false = FIFO, enabling the seq-order check.
  bool window1 = false;       ///< Stop-and-wait: the egress accepts the next
                              ///< sample only once the previous is resolved.
                              ///< Monotonic delivery is a theorem only under
                              ///< this discipline — with pipelined sending, a
                              ///< retransmission reorders past later seqs
                              ///< even over a FIFO transport (the checker
                              ///< finds that 6-step counterexample).
  ModelMutant mutant = ModelMutant::kNone;
};

/// Bounds for the hot-swap model.
struct SwapModelParams {
  int samples = 3;  ///< Samples the producer posts onto the lane.
  ModelMutant mutant = ModelMutant::kNone;
};

mc::Outcome check_link_model(const LinkModelParams& params,
                             const mc::Budget& budget);
mc::Outcome check_swap_model(const SwapModelParams& params,
                             const mc::Budget& budget);

/// The PPM rule id a model outcome maps to ("PPM001".."PPM003" for
/// violations keyed on model + property, "PPM005" for truncation, empty
/// for clean outcomes).
std::string_view model_rule_for(const mc::Outcome& outcome) noexcept;

/// Knobs for one `perpos-verify --model` style run.
struct ModelCheckOptions {
  mc::Budget budget;
  ModelMutant mutant = ModelMutant::kNone;
};

/// Run the built-in protocol models (reliable-link in both reordering and
/// FIFO configurations, hot-swap) and render the outcomes as
/// PPM diagnostics in the ordinary catalog/baseline/SARIF stream:
/// violations carry the shortest counterexample as a Diagnostic trace,
/// budget exhaustion becomes a PPM005 note per truncated model, and clean
/// models contribute nothing.
Report check_protocol_models(const ModelCheckOptions& options = {});

}  // namespace perpos::verify
