#include "perpos/verify/protocol_models.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

/// \file protocol_models.cpp
/// The protocol state machines checked by the PPM rules. Every state field
/// is a uint8_t (the checker hashes raw bytes; see model_check.hpp), every
/// transition cites the implementation step it mirrors, and adversarial
/// behaviour (loss, duplication, premature timers) is budgeted — the
/// budgets are the fairness assumption that makes bounded liveness
/// meaningful (DESIGN.md §11).

namespace perpos::verify {

namespace {

using mc::Step;
using mc::Violation;

std::string seq_str(std::uint8_t seq) { return std::to_string(int(seq)); }

// --- Model (a): ReliableEgress/ReliableIngress -----------------------------
//
// Mirrors src/health/reliable_link.cpp:
//   egress.accept      = ReliableEgress::on_input (assign seq, transmit)
//   egress.timeout     = ReliableEgress::on_timeout (retransmit or give up)
//   net.deliver/drop/dup = the sim::Network adversary (FlakyLink)
//   ingress.receive    = ReliableIngress::deliver (ack always, dedupe, emit)
//   egress.ack         = ReliableEgress::handle_ack (resolve, disarm timer)

constexpr int kLinkMaxMsgs = 3;
constexpr int kLinkChan = 8;

struct LinkState {
  std::uint8_t sent = 0;                       // inputs accepted by egress
  std::uint8_t status[kLinkMaxMsgs] = {};      // 0 idle 1 inflight 2 acked 3 gave-up
  std::uint8_t attempts[kLinkMaxMsgs] = {};    // retransmissions so far
  std::uint8_t seen[kLinkMaxMsgs] = {};        // ingress dedupe set
  std::uint8_t delivered[kLinkMaxMsgs] = {};   // downstream emissions (cap 2)
  std::uint8_t last_emitted = 0;               // last seq emitted downstream
  std::uint8_t mono_violated = 0;
  std::uint8_t fwd[kLinkChan] = {};            // DATA seqs in flight, send order
  std::uint8_t fwd_len = 0;
  std::uint8_t rev[kLinkChan] = {};            // ACK seqs in flight, send order
  std::uint8_t rev_len = 0;
  std::uint8_t drops_left = 0;
  std::uint8_t dups_left = 0;
  std::uint8_t premature_left = 0;
};

class LinkModel {
 public:
  using State = LinkState;

  explicit LinkModel(const LinkModelParams& params) : p_(params) {}

  std::string_view name() const {
    return p_.reorder ? "reliable-link" : "reliable-link-fifo";
  }

  std::vector<State> initial() const {
    State s;
    s.drops_left = std::uint8_t(p_.drop_budget);
    s.dups_left = std::uint8_t(p_.dup_budget);
    s.premature_left = std::uint8_t(p_.premature_timeouts);
    return {s};
  }

  void successors(const State& s, std::vector<Step<State>>& out) const {
    // egress.accept: the application hands over the next sample; the
    // egress stamps seq = index+1 and transmits immediately (on_input).
    // Under the window-1 discipline the previous message must be resolved
    // first (acked or given up) — the precondition for seq monotonicity.
    bool window_open = true;
    if (p_.window1) {
      for (int i = 0; i < int(s.sent); ++i) {
        if (s.status[i] == 1) window_open = false;
      }
    }
    if (window_open && s.sent < p_.messages && s.fwd_len < kLinkChan) {
      State n = s;
      const std::uint8_t seq = std::uint8_t(n.sent + 1);
      n.status[n.sent] = 1;
      n.fwd[n.fwd_len++] = seq;
      ++n.sent;
      out.push_back({n, {"egress", "accept sample, send DATA seq=" +
                                       seq_str(seq)}});
    }

    // Forward channel: deliver (FIFO head only unless reordering), drop,
    // duplicate. Each consumes a slot / an adversary budget.
    const int fwd_deliverable = p_.reorder ? s.fwd_len : std::min<int>(1, s.fwd_len);
    for (int j = 0; j < fwd_deliverable; ++j) {
      if (s.rev_len >= kLinkChan) break;  // ack channel full: delay delivery
      State n = s;
      const std::uint8_t seq = n.fwd[j];
      remove_slot(n.fwd, n.fwd_len, j);
      ingress_receive(n, seq, out);
    }
    for (int j = 0; j < s.fwd_len && s.drops_left > 0; ++j) {
      State n = s;
      const std::uint8_t seq = n.fwd[j];
      remove_slot(n.fwd, n.fwd_len, j);
      --n.drops_left;
      out.push_back({n, {"net", "drop DATA seq=" + seq_str(seq)}});
    }
    for (int j = 0; j < s.fwd_len && s.dups_left > 0; ++j) {
      if (s.fwd_len >= kLinkChan) break;
      State n = s;
      n.fwd[n.fwd_len++] = n.fwd[j];
      --n.dups_left;
      out.push_back({n, {"net", "duplicate DATA seq=" + seq_str(s.fwd[j])}});
    }

    // Reverse channel (ACKs): deliver / drop / duplicate symmetrically.
    const int rev_deliverable = p_.reorder ? s.rev_len : std::min<int>(1, s.rev_len);
    for (int j = 0; j < rev_deliverable; ++j) {
      State n = s;
      const std::uint8_t seq = n.rev[j];
      remove_slot(n.rev, n.rev_len, j);
      // handle_ack: resolve if still inflight, else it's a duplicate ack
      // (a retransmit raced the original) and is ignored.
      if (n.status[seq - 1] == 1) {
        n.status[seq - 1] = 2;
        out.push_back({n, {"egress", "ACK seq=" + seq_str(seq) +
                                         " resolves, timer cancelled"}});
      } else {
        out.push_back({n, {"egress", "duplicate ACK seq=" + seq_str(seq) +
                                         " ignored"}});
      }
    }
    for (int j = 0; j < s.rev_len && s.drops_left > 0; ++j) {
      State n = s;
      const std::uint8_t seq = n.rev[j];
      remove_slot(n.rev, n.rev_len, j);
      --n.drops_left;
      out.push_back({n, {"net", "drop ACK seq=" + seq_str(seq)}});
    }
    for (int j = 0; j < s.rev_len && s.dups_left > 0; ++j) {
      if (s.rev_len >= kLinkChan) break;
      State n = s;
      n.rev[n.rev_len++] = n.rev[j];
      --n.dups_left;
      out.push_back({n, {"net", "duplicate ACK seq=" + seq_str(s.rev[j])}});
    }

    // egress.timeout: fires for an unresolved message either when every
    // copy (and its ack) is off the wire — a true loss — or prematurely
    // within the jitter budget (the ack is just slow). This gating is the
    // fairness assumption: timers do not fire infinitely often without
    // cause, so give-up is reachable only through real loss.
    for (int i = 0; i < p_.messages; ++i) {
      if (s.status[i] != 1) continue;
      const std::uint8_t seq = std::uint8_t(i + 1);
      const bool lost = !in_channel(s.fwd, s.fwd_len, seq) &&
                        !in_channel(s.rev, s.rev_len, seq);
      const bool premature = !lost && s.premature_left > 0;
      if (!lost && !premature) continue;
      State n = s;
      if (premature) --n.premature_left;
      if (p_.mutant == ModelMutant::kLinkSkipRetransmitBound) {
        // Seeded bug: the bound check is skipped — first timeout gives the
        // message up without retransmitting.
        n.status[i] = 3;
        out.push_back({n, {"egress", "timeout seq=" + seq_str(seq) +
                                         " -> give up (bound skipped)"}});
        continue;
      }
      if (n.attempts[i] >= p_.max_retries) {
        n.status[i] = 3;
        out.push_back({n, {"egress", "timeout seq=" + seq_str(seq) +
                                         " -> give up (retries exhausted)"}});
        continue;
      }
      if (n.fwd_len >= kLinkChan) continue;  // wire full: retransmit waits
      ++n.attempts[i];
      n.fwd[n.fwd_len++] = seq;
      out.push_back({n, {"egress", "timeout seq=" + seq_str(seq) +
                                       ", retransmit attempt=" +
                                       std::to_string(int(n.attempts[i]))}});
    }
  }

  Violation invariant(const State& s) const {
    for (int i = 0; i < p_.messages; ++i) {
      if (s.delivered[i] >= 2) {
        return {"duplicate-delivery",
                "ingress emitted seq=" + seq_str(std::uint8_t(i + 1)) +
                    " downstream more than once (exactly-once contract "
                    "broken)"};
      }
      if (s.status[i] == 3 && s.attempts[i] < p_.max_retries) {
        return {"premature-giveup",
                "egress gave seq=" + seq_str(std::uint8_t(i + 1)) +
                    " up after " + std::to_string(int(s.attempts[i])) +
                    " retransmission(s), below the bound of " +
                    std::to_string(p_.max_retries)};
      }
    }
    if (!p_.reorder && s.mono_violated != 0) {
      return {"non-monotonic-delivery",
              "ingress emitted sequence numbers out of order over a FIFO "
              "transport"};
    }
    return {};
  }

  Violation terminal(const State& s) const {
    // A terminal state is a fully drained execution: channels empty, all
    // messages resolved, no timer enabled. Liveness-under-fairness: every
    // accepted sample must have been delivered (gave-up is unreachable
    // while drops + premature timeouts fit inside the retransmission
    // bound).
    for (int i = 0; i < int(s.sent); ++i) {
      if (s.status[i] == 3) {
        return {"undelivered-at-termination",
                "seq=" + seq_str(std::uint8_t(i + 1)) +
                    " was given up although the loss budget fit inside the "
                    "retransmission bound (eventual delivery broken)"};
      }
      if (s.delivered[i] == 0) {
        return {"lost-sample",
                "seq=" + seq_str(std::uint8_t(i + 1)) +
                    " was accepted by the egress but never emitted by the "
                    "ingress"};
      }
    }
    return {};
  }

 private:
  static void remove_slot(std::uint8_t* chan, std::uint8_t& len, int j) {
    for (int k = j; k + 1 < int(len); ++k) chan[k] = chan[k + 1];
    chan[--len] = 0;
  }
  static bool in_channel(const std::uint8_t* chan, std::uint8_t len,
                         std::uint8_t seq) {
    for (int k = 0; k < int(len); ++k) {
      if (chan[k] == seq) return true;
    }
    return false;
  }

  void ingress_receive(State n, std::uint8_t seq,
                       std::vector<Step<State>>& out) const {
    // ReliableIngress::deliver: ack unconditionally (also for duplicates,
    // whose original ack was evidently lost), then dedupe and emit.
    n.rev[n.rev_len++] = seq;
    const bool duplicate = n.seen[seq - 1] != 0;
    n.seen[seq - 1] = 1;
    if (duplicate && p_.mutant != ModelMutant::kLinkNoDedupe) {
      out.push_back({n, {"ingress", "receive DATA seq=" + seq_str(seq) +
                                        ", ack, duplicate suppressed"}});
      return;
    }
    if (n.delivered[seq - 1] < 2) ++n.delivered[seq - 1];
    if (n.last_emitted > seq) n.mono_violated = 1;
    n.last_emitted = seq;
    out.push_back(
        {n, {"ingress", std::string("receive DATA seq=") + seq_str(seq) +
                            ", ack, emit downstream" +
                            (duplicate ? " (dedupe disabled!)" : "")}});
  }

  LinkModelParams p_;
};

// --- Model (b): LiveReconfigurator hot-swap --------------------------------
//
// Mirrors src/reconfig/live_reconfigurator.cpp and the exec lane fence:
//   r.begin-*      = FenceScope: engine.fence(lane) + sanitizer quiesce
//   worker.retire completing a requested fence = "fence blocks until the
//                    at-most-one in-flight task retires" (engine.cpp)
//   r.verify       = IncrementalVerifier recheck gate (verdict nondet)
//   r.cutover      = teardown-flush + StateHandoff + graph.replace
//   r.unfence      = quiesce close + engine.unfence (held samples drain)
//   rollback path  = UndoRecord pop, same fence discipline
// Generation 0 is the incumbent/predecessor, 1 the successor.

constexpr int kSwapMaxSamples = 4;
constexpr int kSwapQueue = 4;

// Protocol phases.
enum : std::uint8_t {
  kIdle = 0,
  kSwapAwaitFence = 1,
  kSwapFenced = 2,
  kSwapVerified = 3,
  kSwapCut = 4,
  kRollbackAwaitFence = 5,
  kRollbackFenced = 6,
  kRollbackCut = 7,
};

struct SwapState {
  std::uint8_t queue[kSwapQueue] = {};  // sample ids (1-based), post order
  std::uint8_t qlen = 0;
  std::uint8_t inflight = 0;            // sample id being processed, 0 = none
  std::uint8_t inflight_gen = 0;
  std::uint8_t buffered = 0;            // partial state held in the component
  std::uint8_t buffered_gen = 0;
  std::uint8_t cur_gen = 0;             // installed component generation
  std::uint8_t processed[kSwapMaxSamples] = {};  // bitmask of processing gens
  std::uint8_t posted = 0;
  std::uint8_t fence = 0;               // 0 open, 1 requested, 2 held
  std::uint8_t quiesce = 0;             // sanitizer PPS006 window
  std::uint8_t phase = kIdle;
  std::uint8_t swapped = 0;
  std::uint8_t rolled_back = 0;
  std::uint8_t protocol_done = 0;
  std::uint8_t illegal_mutation = 0;    // set when a mutation fired unquiesced
};

class SwapModel {
 public:
  using State = SwapState;

  explicit SwapModel(const SwapModelParams& params) : p_(params) {}

  std::string_view name() const { return "hot-swap"; }

  std::vector<State> initial() const { return {State{}}; }

  void successors(const State& s, std::vector<Step<State>>& out) const {
    // producer.post: samples keep arriving throughout the protocol; a
    // fenced lane holds them in post order (they stay queued).
    if (s.posted < p_.samples && s.qlen < kSwapQueue) {
      State n = s;
      n.queue[n.qlen++] = std::uint8_t(n.posted + 1);
      ++n.posted;
      out.push_back({n, {"producer", "post sample " +
                                         std::to_string(int(n.posted))}});
    }

    // worker.take: the lane's at-most-one-worker drain picks the head —
    // blocked the moment a fence is requested (engine.cpp fence()).
    if (s.inflight == 0 && s.qlen > 0 && s.fence == 0) {
      State n = s;
      const std::uint8_t id = n.queue[0];
      for (int k = 0; k + 1 < int(n.qlen); ++k) n.queue[k] = n.queue[k + 1];
      n.queue[--n.qlen] = 0;
      n.inflight = id;
      n.inflight_gen = n.cur_gen;
      out.push_back({n, {"worker", "take sample " + std::to_string(int(id)) +
                                       " (gen " +
                                       std::to_string(int(n.cur_gen)) + ")"}});
    }

    // worker.retire: the in-flight task finishes — either emitting its
    // result or absorbing the sample into component state (a fragment
    // awaiting reassembly). A retire under a requested fence is what
    // hands the fence over (the quiesce proof).
    if (s.inflight != 0) {
      const auto retire = [&](bool absorb, const char* what) {
        State n = s;
        if (absorb) {
          n.buffered = n.inflight;
          n.buffered_gen = n.inflight_gen;
        } else {
          n.processed[n.inflight - 1] |= std::uint8_t(1u << n.inflight_gen);
        }
        const std::string label = "retire sample " +
                                  std::to_string(int(n.inflight)) + " " + what;
        n.inflight = 0;
        n.inflight_gen = 0;
        if (n.fence == 1) {
          n.fence = 2;
          n.quiesce = 1;
          if (n.phase == kSwapAwaitFence) n.phase = kSwapFenced;
          if (n.phase == kRollbackAwaitFence) n.phase = kRollbackFenced;
          out.push_back({n, {"worker", label + "; fence acquired, lane "
                                               "quiet, quiesce opens"}});
        } else {
          out.push_back({n, {"worker", label}});
        }
      };
      retire(false, "(emit result)");
      if (s.buffered == 0) retire(true, "(absorb into component state)");
    }

    // Reconfigurator protocol steps.
    if (s.phase == kIdle && s.protocol_done == 0) {
      if (s.swapped == 0) {
        State n = s;
        if (p_.mutant == ModelMutant::kSwapUnfenceEarly) {
          // Seeded bug: the protocol treats the fence as held without
          // waiting for the in-flight task to retire.
          n.fence = 2;
          n.quiesce = 1;
          n.phase = kSwapFenced;
          out.push_back({n, {"reconfig", "begin swap: fence SKIPPED "
                                         "(quiesce declared early)"}});
        } else if (s.inflight == 0) {
          n.fence = 2;
          n.quiesce = 1;
          n.phase = kSwapFenced;
          out.push_back({n, {"reconfig", "begin swap: fence(lane) returns "
                                         "immediately (lane quiet)"}});
        } else {
          n.fence = 1;
          n.phase = kSwapAwaitFence;
          out.push_back({n, {"reconfig", "begin swap: fence requested, "
                                         "awaiting in-flight task"}});
        }
      } else if (s.rolled_back == 0) {
        // After a commit: either roll back or declare the epoch final.
        {
          State n = s;
          if (s.inflight == 0) {
            n.fence = 2;
            n.quiesce = 1;
            n.phase = kRollbackFenced;
            out.push_back({n, {"reconfig", "begin rollback: fence(lane) "
                                           "returns immediately"}});
          } else {
            n.fence = 1;
            n.phase = kRollbackAwaitFence;
            out.push_back({n, {"reconfig", "begin rollback: fence "
                                           "requested"}});
          }
        }
        {
          State n = s;
          n.protocol_done = 1;
          out.push_back({n, {"reconfig", "keep successor (no rollback)"}});
        }
      }
    }
    if (s.phase == kSwapFenced) {
      // IncrementalVerifier verdict on the staged successor: nondet.
      {
        State n = s;
        n.phase = kSwapVerified;
        out.push_back({n, {"reconfig", "verify: O(delta) recheck clean"}});
      }
      {
        State n = s;
        n.quiesce = 0;
        n.fence = 0;
        n.phase = kIdle;
        n.protocol_done = 1;
        out.push_back({n, {"reconfig", "verify: rejected; un-stage, unfence "
                                       "(incumbent untouched)"}});
      }
    }
    if (s.phase == kSwapVerified) {
      State n = s;
      mutate(n, /*to_gen=*/1);
      n.phase = kSwapCut;
      n.swapped = 1;
      out.push_back({n, {"reconfig", "cutover: flush incumbent, handoff "
                                     "state, graph.replace, epoch++"}});
    }
    if (s.phase == kSwapCut) {
      State n = s;
      n.quiesce = 0;
      n.fence = 0;
      n.phase = kIdle;
      out.push_back({n, {"reconfig", "commit: quiesce closes, unfence — "
                                     "held samples drain into successor"}});
    }
    if (s.phase == kRollbackFenced) {
      State n = s;
      mutate(n, /*to_gen=*/0);
      n.phase = kRollbackCut;
      n.rolled_back = 1;
      out.push_back({n, {"reconfig", "rollback: flush successor, restore "
                                     "displaced incumbent, epoch++"}});
    }
    if (s.phase == kRollbackCut) {
      State n = s;
      n.quiesce = 0;
      n.fence = 0;
      n.phase = kIdle;
      n.protocol_done = 1;
      out.push_back({n, {"reconfig", "rollback commit: unfence"}});
    }
  }

  Violation invariant(const State& s) const {
    if (s.illegal_mutation != 0) {
      return {"mutation-during-drain",
              "the graph was mutated while the lane still had a task in "
              "flight / outside the fenced quiesce window (the PPS006 "
              "invariant, violated in this interleaving)"};
    }
    for (int i = 0; i < p_.samples; ++i) {
      if (s.processed[i] == 0x3) {
        return {"dual-processing",
                "sample " + std::to_string(i + 1) +
                    " was processed by both the predecessor and the "
                    "successor"};
      }
    }
    if (s.buffered != 0 && s.buffered_gen != s.cur_gen) {
      return {"orphaned-state-across-swap",
              "component state buffered by generation " +
                  std::to_string(int(s.buffered_gen)) +
                  " survived a cutover to generation " +
                  std::to_string(int(s.cur_gen)) +
                  " without being flushed"};
    }
    return {};
  }

  Violation terminal(const State& s) const {
    if (s.fence != 0 || s.quiesce != 0) {
      return {"fence-leaked",
              "the protocol terminated with the lane still fenced (held "
              "samples would never drain)"};
    }
    for (int i = 0; i < int(s.posted); ++i) {
      const bool buffered_here = s.buffered == std::uint8_t(i + 1);
      const int gens = (s.processed[i] & 1) + ((s.processed[i] >> 1) & 1);
      if (gens == 0 && !buffered_here) {
        return {"lost-sample",
                "sample " + std::to_string(i + 1) +
                    " was posted but neither processed nor retained across "
                    "the reconfiguration"};
      }
    }
    return {};
  }

 private:
  // The mutation step (cutover or rollback): legal only with the lane
  // provably quiet inside the quiesce window. The flush completes any
  // buffered partial state under the *outgoing* component before the
  // generation flips — exactly ProcessingGraph::replace's
  // teardown-flush + StateHandoff sequencing.
  static void mutate(State& n, std::uint8_t to_gen) {
    if (n.inflight != 0 || n.fence != 2 || n.quiesce != 1) {
      n.illegal_mutation = 1;
    }
    if (n.buffered != 0) {
      n.processed[n.buffered - 1] |= std::uint8_t(1u << n.buffered_gen);
      n.buffered = 0;
      n.buffered_gen = 0;
    }
    n.cur_gen = to_gen;
  }

  SwapModelParams p_;
};

}  // namespace

// --- Mutants ----------------------------------------------------------------

std::string_view model_mutant_name(ModelMutant mutant) noexcept {
  switch (mutant) {
    case ModelMutant::kNone: return {};
    case ModelMutant::kLinkNoDedupe: return "link-no-dedupe";
    case ModelMutant::kLinkSkipRetransmitBound:
      return "link-skip-retransmit-bound";
    case ModelMutant::kSwapUnfenceEarly: return "swap-unfence-early";
  }
  return {};
}

std::vector<std::string_view> model_mutant_names() {
  return {model_mutant_name(ModelMutant::kLinkNoDedupe),
          model_mutant_name(ModelMutant::kLinkSkipRetransmitBound),
          model_mutant_name(ModelMutant::kSwapUnfenceEarly)};
}

std::optional<ModelMutant> parse_model_mutant(
    std::string_view name) noexcept {
  for (const ModelMutant m :
       {ModelMutant::kLinkNoDedupe, ModelMutant::kLinkSkipRetransmitBound,
        ModelMutant::kSwapUnfenceEarly}) {
    if (model_mutant_name(m) == name) return m;
  }
  return std::nullopt;
}

// --- Checking entry points ---------------------------------------------------

mc::Outcome check_link_model(const LinkModelParams& params,
                             const mc::Budget& budget) {
  if (params.messages > kLinkMaxMsgs) {
    throw std::invalid_argument("link model supports at most " +
                                std::to_string(kLinkMaxMsgs) + " messages");
  }
  return mc::explore(LinkModel(params), budget);
}

mc::Outcome check_swap_model(const SwapModelParams& params,
                             const mc::Budget& budget) {
  if (params.samples > kSwapMaxSamples) {
    throw std::invalid_argument("swap model supports at most " +
                                std::to_string(kSwapMaxSamples) + " samples");
  }
  return mc::explore(SwapModel(params), budget);
}

std::string_view model_rule_for(const mc::Outcome& outcome) noexcept {
  if (outcome.verdict == mc::Verdict::kTruncated) return "PPM005";
  if (outcome.verdict != mc::Verdict::kViolation) return {};
  if (outcome.model == "reliable-link" ||
      outcome.model == "reliable-link-fifo") {
    if (outcome.property == "duplicate-delivery" ||
        outcome.property == "non-monotonic-delivery") {
      return "PPM001";
    }
    return "PPM002";
  }
  if (outcome.model == "hot-swap") return "PPM003";
  return {};
}

Report check_protocol_models(const ModelCheckOptions& options) {
  Report report;

  const auto add = [&report](const mc::Outcome& outcome) {
    if (outcome.clean()) return;
    Diagnostic d;
    d.rule_id = std::string(model_rule_for(outcome));
    d.component_name = outcome.model;
    if (outcome.verdict == mc::Verdict::kTruncated) {
      d.severity = Severity::kNote;
      d.property = "budget-" + outcome.truncated_by;
      d.message = "model '" + outcome.model + "': " + outcome.message +
                  " — treat this model as UNVERIFIED, not clean; raise the "
                  "--model-states/--model-depth/--model-ms budget";
      report.diagnostics.push_back(std::move(d));
      return;
    }
    d.severity = Severity::kError;
    d.property = outcome.property;
    d.trace = outcome.trace;
    d.message = "model '" + outcome.model + "': property '" +
                outcome.property + "' violated after exploring " +
                std::to_string(outcome.states) + " states: " +
                outcome.message + " (shortest counterexample: " +
                std::to_string(outcome.trace.size()) + " steps)";
    d.fix_hint = "replay the attached counterexample schedule against the "
                 "implementation; every step names the actor and the "
                 "protocol transition it took";
    report.diagnostics.push_back(std::move(d));
  };

  LinkModelParams link;
  if (options.mutant == ModelMutant::kLinkNoDedupe ||
      options.mutant == ModelMutant::kLinkSkipRetransmitBound) {
    link.mutant = options.mutant;
  }
  add(check_link_model(link, options.budget));
  // The FIFO configuration models the stop-and-wait (window-1) discipline:
  // monotonic delivery is a theorem only there — pipelined sending lets a
  // retransmission overtake later seqs even over a FIFO transport.
  LinkModelParams fifo = link;
  fifo.reorder = false;
  fifo.window1 = true;
  add(check_link_model(fifo, options.budget));

  SwapModelParams swap;
  if (options.mutant == ModelMutant::kSwapUnfenceEarly) {
    swap.mutant = options.mutant;
  }
  add(check_swap_model(swap, options.budget));

  return report;
}

}  // namespace perpos::verify
