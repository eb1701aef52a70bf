#include "perpos/reconfig/live_reconfigurator.hpp"

#include <algorithm>
#include <chrono>
#include <optional>
#include <sstream>
#include <utility>

namespace perpos::reconfig {

namespace {

double wall_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::string_view swap_outcome_name(SwapOutcome outcome) noexcept {
  switch (outcome) {
    case SwapOutcome::kCommitted:
      return "committed";
    case SwapOutcome::kRejected:
      return "rejected";
    case SwapOutcome::kAborted:
      return "aborted";
    case SwapOutcome::kTeeing:
      return "teeing";
  }
  return "?";
}

/// Transcript tap for the A/B tee: a produce() hook that copies every
/// outgoing sample of its host (after the host's other features ran) into
/// a buffer the poll compares. Copies are cheap — payload and provenance
/// are shared.
class LiveReconfigurator::TeeTap final : public core::ComponentFeature {
 public:
  explicit TeeTap(std::string name) : name_(std::move(name)) {}

  std::string_view name() const override { return name_; }

  bool produce(core::Sample& sample) override {
    samples.push_back(sample);
    return true;
  }

  std::vector<core::Sample> samples;

 private:
  std::string name_;
};

struct LiveReconfigurator::TeeState {
  core::ComponentId victim = core::kInvalidComponent;
  core::ComponentId shadow = core::kInvalidComponent;
  std::shared_ptr<core::ProcessingComponent> successor;
  std::shared_ptr<TeeTap> incumbent_tap;
  std::shared_ptr<TeeTap> successor_tap;
  TeeComparator compare;
  std::size_t quota = 0;
  std::size_t checked = 0;  ///< Pairs already compared.
};

/// RAII for the quiesce point: fence the lane (in-flight task finishes,
/// queued samples held), open the sanitizer's PPS006 window and a verify
/// transaction; all are undone on scope exit — the transaction first, so
/// an armed gate re-verifies while the lane is still fenced — releasing
/// held samples into whatever the graph now looks like. Also feeds the
/// fence-duration histogram.
class LiveReconfigurator::FenceScope {
 public:
  explicit FenceScope(LiveReconfigurator& r) : r_(r), t0_(wall_us()) {
    r_.engine_.fence(r_.lane_);
    if (r_.sanitizer_ != nullptr) r_.sanitizer_->begin_quiesce();
    transaction_.emplace(*r_.verifier_);
  }

  ~FenceScope() {
    transaction_.reset();
    if (r_.sanitizer_ != nullptr) r_.sanitizer_->end_quiesce();
    r_.engine_.unfence(r_.lane_);
    r_.observe_fence_us(wall_us() - t0_);
  }

  FenceScope(const FenceScope&) = delete;
  FenceScope& operator=(const FenceScope&) = delete;

 private:
  LiveReconfigurator& r_;
  double t0_;
  std::optional<verify::IncrementalVerifier::Transaction> transaction_;
};

LiveReconfigurator::LiveReconfigurator(core::ProcessingGraph& graph,
                                       exec::ExecutionEngine& engine,
                                       exec::LaneId lane,
                                       ReconfigOptions options)
    : graph_(graph),
      engine_(engine),
      lane_(lane),
      options_(options),
      verifier_(verify::IncrementalVerifier::of(graph)),
      metrics_source_(graph.add_metrics_source(
          [this](obs::MetricsSnapshot& out) { collect(out); })) {}

LiveReconfigurator::~LiveReconfigurator() { disable_probation(); }

SwapResult LiveReconfigurator::replace(
    core::ComponentId victim,
    std::shared_ptr<core::ProcessingComponent> successor) {
  SwapResult result;
  result.epoch = graph_.epoch();
  if (tee_ != nullptr) {
    result.error = "an A/B tee is active; poll_tee() or abort_tee() first";
    return result;
  }
  FenceScope scope(*this);
  return replace_locked(victim, std::move(successor));
}

SwapResult LiveReconfigurator::replace_locked(
    core::ComponentId victim,
    std::shared_ptr<core::ProcessingComponent> successor) {
  SwapResult result;
  result.epoch = graph_.epoch();

  const std::size_t pre_violations =
      sanitizer_ != nullptr ? sanitizer_->violations() : 0;
  std::shared_ptr<core::ProcessingComponent> incumbent;
  try {
    incumbent = graph_.component_ptr(victim);
  } catch (const std::exception& e) {
    result.outcome = SwapOutcome::kRejected;
    result.error = e.what();
    return result;
  }
  record_phase("staged", victim);
  // A failed swap records its phase, dumps the black box and is counted.
  const auto fail = [&](SwapOutcome outcome, std::string error,
                        const char* cause, std::uint64_t aux = 0) {
    const bool rejected = outcome == SwapOutcome::kRejected;
    result.outcome = outcome;
    result.error = std::move(error);
    record_phase(rejected ? "rejected" : "aborted", victim, aux);
    dump(std::string(rejected ? "reconfig rejected (" : "reconfig aborted (") +
         cause + "): " + result.error);
    if (rejected) {
      rejects_.add();
    } else {
      aborts_.add();
    }
    return result;
  };

  if (options_.verify) {
    // Stage structurally (no teardown, no state transfer): a rejected
    // swap must leave the incumbent — and its transcript — untouched.
    try {
      graph_.replace(victim, successor, core::ReplaceHandoff::kNone);
    } catch (const std::exception& e) {
      return fail(SwapOutcome::kRejected, e.what(), "structural");
    }
    result.report = verifier_->recheck();
    // Un-stage either way; the real cutover below runs the handoff.
    graph_.replace(victim, incumbent, core::ReplaceHandoff::kNone);
    if (!result.report.ok()) {
      return fail(SwapOutcome::kRejected,
                  "verifier rejected the successor: " +
                      std::to_string(result.report.errors()) + " error(s)",
                  "verifier", result.report.errors());
    }
  }

  const std::uint64_t pre_epoch = graph_.epoch();
  try {
    graph_.replace(victim, successor, core::ReplaceHandoff::kFull);
  } catch (const std::exception& e) {
    // replace() installs the successor only after the handoff ran, so a
    // throwing serialize/restore leaves the incumbent in place (its
    // on_teardown flush has already reached downstream consumers).
    return fail(SwapOutcome::kAborted, e.what(), "handoff");
  }

  if (sanitizer_ != nullptr && sanitizer_->violations() > pre_violations) {
    graph_.replace(victim, incumbent, core::ReplaceHandoff::kFlushOnly);
    return fail(SwapOutcome::kAborted,
                "sanitizer recorded new finding(s) during the cutover",
                "sanitizer", sanitizer_->violations() - pre_violations);
  }

  result.epoch = graph_.advance_epoch();
  history_.push_back(UndoRecord{pre_epoch, victim, std::move(incumbent)});
  while (history_.size() > options_.history) history_.pop_front();
  record_phase("committed", victim, pre_epoch);
  commits_.add();
  arm_probation(victim, pre_epoch);
  result.outcome = SwapOutcome::kCommitted;
  return result;
}

SwapResult LiveReconfigurator::rollback(std::uint64_t to_epoch) {
  SwapResult result;
  result.epoch = graph_.epoch();
  if (tee_ != nullptr) {
    result.error = "an A/B tee is active; poll_tee() or abort_tee() first";
    return result;
  }
  if (history_.empty() || to_epoch > history_.back().epoch) {
    result.error = "nothing committed after epoch " +
                   std::to_string(to_epoch) + " to roll back";
    return result;
  }
  if (to_epoch < history_.front().epoch) {
    result.error = "epoch " + std::to_string(to_epoch) +
                   " fell off the bounded undo history (oldest restorable: " +
                   std::to_string(history_.front().epoch) + ")";
    return result;
  }

  FenceScope scope(*this);
  in_rollback_ = true;
  std::size_t reversed = 0;
  try {
    // Newest first: each displaced component returns with the state it
    // held when it was swapped out (it received no samples since), while
    // the component being evicted flushes downstream one last time.
    while (!history_.empty() && history_.back().epoch >= to_epoch) {
      UndoRecord rec = std::move(history_.back());
      history_.pop_back();
      graph_.replace(rec.victim, std::move(rec.displaced),
                     core::ReplaceHandoff::kFlushOnly);
      probation_.erase(
          std::remove_if(probation_.begin(), probation_.end(),
                         [&](const Probation& p) {
                           return p.component == rec.victim;
                         }),
          probation_.end());
      record_phase("rolled_back", rec.victim, rec.epoch);
      ++reversed;
    }
  } catch (const std::exception& e) {
    in_rollback_ = false;
    result.outcome = SwapOutcome::kAborted;
    result.error = std::string("rollback failed after ") +
                   std::to_string(reversed) + " step(s): " + e.what();
    dump("reconfig rollback failed: " + result.error);
    aborts_.add();
    return result;
  }
  in_rollback_ = false;
  result.epoch = graph_.advance_epoch();
  result.outcome = SwapOutcome::kCommitted;
  rollbacks_.add();
  // Every rollback leaves a black box: the dump carries the kReconfig
  // rolled_back events plus whatever failure led here.
  dump("reconfig rollback to epoch " + std::to_string(to_epoch) + " (" +
       std::to_string(reversed) + " swap(s) reversed)");
  return result;
}

SwapResult LiveReconfigurator::begin_tee(
    core::ComponentId victim,
    std::shared_ptr<core::ProcessingComponent> successor,
    TeeComparator compare, std::size_t quota) {
  SwapResult result;
  result.epoch = graph_.epoch();
  if (tee_ != nullptr) {
    result.error = "an A/B tee is already active";
    return result;
  }
  if (quota == 0) quota = options_.tee_samples;
  if (quota == 0) {
    result.error = "tee quota is zero (set ReconfigOptions::tee_samples or "
                   "pass an explicit quota)";
    return result;
  }

  FenceScope scope(*this);
  auto state = std::make_unique<TeeState>();
  state->victim = victim;
  state->successor = successor;
  state->quota = quota;
  state->compare = compare != nullptr
                       ? std::move(compare)
                       : [](const core::Sample& a, const core::Sample& b) {
                           return a.payload.type() == b.payload.type();
                         };
  try {
    const core::ComponentInfo info = graph_.info(victim);
    if (info.producers.empty()) {
      throw std::invalid_argument(
          "tee: victim has no upstream edges (a source cannot be teed)");
    }
    state->incumbent_tap = std::make_shared<TeeTap>("reconfig-tee-incumbent");
    state->successor_tap = std::make_shared<TeeTap>("reconfig-tee-successor");
    state->shadow = graph_.add(std::move(successor));
    graph_.attach_feature(state->shadow, state->successor_tap);
    for (core::ComponentId producer : info.producers) {
      graph_.connect(producer, state->shadow);
    }
    graph_.attach_feature(victim, state->incumbent_tap);
  } catch (const std::exception& e) {
    // Undo whatever staging got done; the shadow has no observable effect
    // until traffic flows, so this is safe mid-way.
    if (state->shadow != core::kInvalidComponent && graph_.has(state->shadow)) {
      graph_.remove(state->shadow);
    }
    result.outcome = SwapOutcome::kAborted;
    result.error = e.what();
    record_phase("aborted", victim);
    aborts_.add();
    return result;
  }
  tee_ = std::move(state);
  record_phase("tee", victim, tee_->shadow);
  result.outcome = SwapOutcome::kTeeing;
  return result;
}

SwapResult LiveReconfigurator::poll_tee() {
  SwapResult result;
  result.epoch = graph_.epoch();
  if (tee_ == nullptr) {
    result.error = "no A/B tee is active";
    return result;
  }

  FenceScope scope(*this);
  TeeState& tee = *tee_;
  const std::size_t pairs = std::min(tee.incumbent_tap->samples.size(),
                                     tee.successor_tap->samples.size());
  for (std::size_t i = tee.checked; i < pairs; ++i) {
    if (!tee.compare(tee.incumbent_tap->samples[i],
                     tee.successor_tap->samples[i])) {
      std::ostringstream error;
      error << "tee diverged at pair " << i << " (incumbent seq "
            << tee.incumbent_tap->samples[i].sequence << ", successor seq "
            << tee.successor_tap->samples[i].sequence << ")";
      return teardown_tee_locked(SwapOutcome::kAborted, error.str(), true);
    }
  }
  tee_->checked = pairs;

  if (tee.incumbent_tap->samples.size() >= tee.quota &&
      tee.successor_tap->samples.size() >= tee.quota) {
    // Transcripts agree over the quota: promote through the normal
    // verified swap (still under this fence).
    const core::ComponentId victim = tee.victim;
    auto successor = tee.successor;
    SwapResult cleanup =
        teardown_tee_locked(SwapOutcome::kCommitted, {}, false);
    if (cleanup.outcome == SwapOutcome::kAborted) return cleanup;
    return replace_locked(victim, std::move(successor));
  }
  result.outcome = SwapOutcome::kTeeing;
  return result;
}

SwapResult LiveReconfigurator::abort_tee() {
  SwapResult result;
  result.epoch = graph_.epoch();
  if (tee_ == nullptr) {
    result.error = "no A/B tee is active";
    return result;
  }
  FenceScope scope(*this);
  return teardown_tee_locked(SwapOutcome::kAborted, "tee cancelled", false);
}

SwapResult LiveReconfigurator::teardown_tee_locked(SwapOutcome outcome,
                                                   std::string error,
                                                   bool dump_on_exit) {
  SwapResult result;
  auto state = std::move(tee_);
  try {
    graph_.detach_feature(state->victim, state->incumbent_tap->name());
  } catch (const std::exception&) {
    // The victim may have been removed externally; the tap dies with it.
  }
  try {
    if (graph_.has(state->shadow)) graph_.remove(state->shadow);
  } catch (const std::exception& e) {
    result.outcome = SwapOutcome::kAborted;
    result.error = "tee teardown failed: " + std::string(e.what());
    result.epoch = graph_.epoch();
    aborts_.add();
    return result;
  }
  result.outcome = outcome;
  result.error = std::move(error);
  result.epoch = graph_.epoch();
  if (outcome == SwapOutcome::kAborted) {
    record_phase("aborted", state->victim);
    aborts_.add();
    if (dump_on_exit) dump("reconfig tee aborted: " + result.error);
  }
  return result;
}

void LiveReconfigurator::enable_probation(core::Watchdog& watchdog) {
  disable_probation();
  watchdog_ = &watchdog;
  watchdog_token_ = watchdog.add_listener(
      [this](core::ComponentId source, core::HealthState /*from*/,
             core::HealthState to, sim::SimTime when) {
        on_health_transition(source, to, when);
      });
}

void LiveReconfigurator::disable_probation() {
  if (watchdog_ != nullptr) {
    watchdog_->remove_listener(watchdog_token_);
    watchdog_ = nullptr;
    watchdog_token_ = 0;
  }
  probation_.clear();
}

void LiveReconfigurator::arm_probation(core::ComponentId victim,
                                       std::uint64_t pre_epoch) {
  if (watchdog_ == nullptr || options_.probation_checks <= 0) return;
  try {
    if (!watchdog_->watches(victim)) watchdog_->watch(victim);
  } catch (const std::exception&) {
    return;  // Component vanished between commit and here; no probation.
  }
  const sim::Clock* clock = graph_.clock();
  const sim::SimTime now =
      clock != nullptr ? clock->now() : sim::SimTime::zero();
  const sim::SimTime window{watchdog_->config().check_interval.ns *
                            options_.probation_checks};
  probation_.erase(std::remove_if(probation_.begin(), probation_.end(),
                                  [&](const Probation& p) {
                                    return p.component == victim;
                                  }),
                   probation_.end());
  probation_.push_back(Probation{victim, pre_epoch, now + window});
}

void LiveReconfigurator::on_health_transition(core::ComponentId source,
                                              core::HealthState to,
                                              sim::SimTime when) {
  if (in_rollback_) return;
  const auto it = std::find_if(
      probation_.begin(), probation_.end(),
      [&](const Probation& p) { return p.component == source; });
  if (it == probation_.end()) return;
  if (when > it->expires) {
    // Survived the probation window; the swap stands.
    probation_.erase(it);
    return;
  }
  if (to < core::HealthState::kStale) return;
  const std::uint64_t pre_epoch = it->pre_epoch;
  probation_.erase(it);
  record_phase("probation", source, pre_epoch);
  rollback(pre_epoch);
}

std::vector<std::uint64_t> LiveReconfigurator::rollback_epochs() const {
  std::vector<std::uint64_t> epochs;
  epochs.reserve(history_.size());
  for (const UndoRecord& rec : history_) epochs.push_back(rec.epoch);
  return epochs;
}

void LiveReconfigurator::record_phase(std::string_view phase,
                                      core::ComponentId victim,
                                      std::uint64_t aux) {
  graph_.record_event(obs::FlightEventType::kReconfig, victim, graph_.epoch(),
                      aux, phase);
}

void LiveReconfigurator::dump(const std::string& reason) {
  if (obs::FlightRecorder* recorder = graph_.flight_recorder()) {
    recorder->trigger(reason);
  }
}

void LiveReconfigurator::collect(obs::MetricsSnapshot& out) const {
  out.counters.push_back({"perpos_reconfig_commits_total", {}, commits_.get()});
  out.counters.push_back({"perpos_reconfig_rejects_total", {}, rejects_.get()});
  out.counters.push_back({"perpos_reconfig_aborts_total", {}, aborts_.get()});
  out.counters.push_back(
      {"perpos_reconfig_rollbacks_total", {}, rollbacks_.get()});
}

void LiveReconfigurator::observe_fence_us(double us) {
  if (obs::MetricsRegistry* registry = graph_.metrics_registry()) {
    registry->histogram("perpos_reconfig_fence_us")->observe(us);
  }
}

}  // namespace perpos::reconfig
