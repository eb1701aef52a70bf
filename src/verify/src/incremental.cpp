#include "perpos/verify/incremental.hpp"

#include "perpos/runtime/payload_codec.hpp"
#include "perpos/verify/scc.hpp"

#include <algorithm>
#include <mutex>
#include <unordered_map>

namespace perpos::verify {

namespace {

// weak_components (the partition the Rule::local() contract and the cache
// key are defined against) lives in scc.hpp, shared with the budget pass
// and the capacity planner.

/// The restriction of `model` to one weak component: its nodes, and the
/// edges/links with both endpoints inside. By the local() contract this
/// is all the context a local rule needs for findings in the component.
GraphModel restrict_to(const GraphModel& model,
                       const std::vector<core::ComponentId>& members) {
  const auto inside = [&members](core::ComponentId id) {
    return std::binary_search(members.begin(), members.end(), id);
  };
  GraphModel sub;
  for (const NodeModel& n : model.nodes) {
    if (inside(n.id)) sub.nodes.push_back(n);
  }
  for (const EdgeModel& e : model.edges) {
    if (inside(e.producer) && inside(e.consumer)) sub.edges.push_back(e);
  }
  for (const LinkModel& l : model.links) {
    if (inside(l.producer) && inside(l.consumer)) sub.links.push_back(l);
  }
  return sub;
}

bool rule_disabled(const Rule& rule, const Options& options) {
  return std::find(options.disabled_rules.begin(),
                   options.disabled_rules.end(),
                   std::string(rule.id())) != options.disabled_rules.end();
}

/// Graph -> its verifier; leaked, so no static destructor races a lookup.
struct Registry {
  std::mutex mutex;
  std::unordered_map<const core::ProcessingGraph*,
                     std::weak_ptr<IncrementalVerifier>>
      verifiers;
};

Registry& registry() {
  static Registry* instance = new Registry;
  return *instance;
}

std::string describe_failure(const Report& report) {
  std::string out = "verification failed: " +
                    std::to_string(report.errors()) + " error(s)";
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity != Severity::kError) continue;
    out += "; first: [" + d.rule_id + "] " + d.message;
    break;
  }
  return out;
}

}  // namespace

std::shared_ptr<IncrementalVerifier> IncrementalVerifier::of(
    core::ProcessingGraph& graph) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  std::weak_ptr<IncrementalVerifier>& slot = r.verifiers[&graph];
  if (std::shared_ptr<IncrementalVerifier> existing = slot.lock()) {
    return existing;
  }
  std::shared_ptr<IncrementalVerifier> created(new IncrementalVerifier(graph));
  slot = created;
  return created;
}

IncrementalVerifier::IncrementalVerifier(core::ProcessingGraph& graph)
    : graph_(graph) {
  set_options({});
  graph_.add_observer(*this);
}

IncrementalVerifier::~IncrementalVerifier() {
  graph_.remove_observer(*this);
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  // Keep the entry of a verifier created since this one expired.
  const auto it = r.verifiers.find(&graph_);
  if (it != r.verifiers.end() && it->second.expired()) r.verifiers.erase(it);
}

Report IncrementalVerifier::full() { return analyze(/*everything_dirty=*/true); }

Report IncrementalVerifier::recheck() {
  return analyze(/*everything_dirty=*/all_dirty_);
}


void IncrementalVerifier::annotate_budget(core::ComponentId id,
                                          const BudgetAnnotation& annotation) {
  options_.budget.annotations[id] = annotation;
  // Only the component's own weak component needs local re-analysis: an
  // annotation changes node content, not membership, so every other cache
  // entry stays exact. The non-local lane/queue rules (PPQ001/PPQ002)
  // re-run on the full model each recheck() regardless.
  dirty_.insert(id);
}

void IncrementalVerifier::set_options(Options options) {
  options_ = std::move(options);
  if (!options_.encodable) {
    options_.encodable = [](const core::DataSpec& spec) {
      return runtime::is_encodable_spec(spec);
    };
  }
  cache_.clear();
  all_dirty_ = true;
}

Report IncrementalVerifier::analyze(bool everything_dirty) {
  nodes_visited_ = 0;
  components_visited_ = 0;

  GraphModel model = GraphModel::from_graph(graph_);
  for (const auto& [id, host] : options_.hosts) {
    if (NodeModel* n = model.node(id)) n->host = host;
  }
  for (const auto& [id, lane] : options_.lanes) {
    if (NodeModel* n = model.node(id)) n->lane = lane;
  }
  for (const auto& [id, budget] : options_.budget.annotations) {
    NodeModel* n = model.node(id);
    if (n == nullptr) continue;
    if (budget.rate_hi_hz > 0.0) {
      n->rate_lo_hz = budget.rate_lo_hz;
      n->rate_hi_hz = budget.rate_hi_hz;
    }
    if (budget.cost_us >= 0.0) n->cost_us = budget.cost_us;
    if (budget.min_rate_hz > 0.0) n->min_rate_hz = budget.min_rate_hz;
  }

  const RuleRegistry& catalog = RuleRegistry::default_catalog();
  Report report;

  // Local rules: per weak component, re-analyzing only dirty ones.
  std::map<std::vector<core::ComponentId>, std::vector<Diagnostic>> fresh;
  for (const std::vector<core::ComponentId>& members : weak_components(model)) {
    const auto cached = cache_.find(members);
    const bool dirty =
        everything_dirty || cached == cache_.end() ||
        std::any_of(members.begin(), members.end(),
                    [this](core::ComponentId id) { return dirty_.count(id); });
    if (!dirty) {
      report.diagnostics.insert(report.diagnostics.end(),
                                cached->second.begin(), cached->second.end());
      fresh.emplace(members, cached->second);
      continue;
    }
    const GraphModel sub = restrict_to(model, members);
    Report local;
    for (const auto& rule : catalog.rules()) {
      if (!rule->local() || rule_disabled(*rule, options_)) continue;
      rule->check(sub, options_, local);
    }
    nodes_visited_ += members.size();
    ++components_visited_;
    report.diagnostics.insert(report.diagnostics.end(),
                              local.diagnostics.begin(),
                              local.diagnostics.end());
    fresh.emplace(members, std::move(local.diagnostics));
  }
  cache_ = std::move(fresh);

  // Non-local rules: cross-component scans, always on the full model.
  for (const auto& rule : catalog.rules()) {
    if (rule->local() || rule_disabled(*rule, options_)) continue;
    rule->check(model, options_, report);
  }

  // Match RuleRegistry::run's presentation order: severity-major, stable.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });

  dirty_.clear();
  all_dirty_ = false;
  return report;
}

void IncrementalVerifier::on_mutation(const core::GraphMutation& mutation) {
  if (mutation.a != core::kInvalidComponent) dirty_.insert(mutation.a);
  if (mutation.b != core::kInvalidComponent) dirty_.insert(mutation.b);
  if (!armed_) return;
  ++stats_.auto_thaws;
  clean_ = false;
  if (transaction_depth_ > 0) {
    refreeze_pending_ = true;
    return;
  }
  refreeze();
}

void IncrementalVerifier::close_transaction() {
  if (--transaction_depth_ > 0 || !refreeze_pending_) return;
  refreeze_pending_ = false;
  if (armed_) refreeze();
}

void IncrementalVerifier::refreeze() {
  if (!auto_refreeze_) return;
  // A dirty result keeps the gate armed, so a later mutation that restores
  // a clean graph is frozen again.
  clean_ = recheck().ok();
  ++(clean_ ? stats_.freezes : stats_.refreeze_failures);
}

FreezeResult IncrementalVerifier::freeze() {
  FreezeResult result;
  result.report = recheck();
  if (!result.report.ok()) {
    result.reason = describe_failure(result.report);
    ++stats_.freeze_rejections;
    return result;
  }
  armed_ = true;
  clean_ = true;
  ++stats_.freezes;
  graph_.record_event(obs::FlightEventType::kMark, 0xffffffffu, 0, 0,
                      "plan.freeze");
  result.frozen = true;
  return result;
}

void IncrementalVerifier::thaw() {
  const bool was_frozen = frozen();
  armed_ = false;
  clean_ = false;
  if (!was_frozen) return;
  ++stats_.thaws;
  graph_.record_event(obs::FlightEventType::kMark, 0xffffffffu, 0, 0,
                      "plan.thaw");
}

}  // namespace perpos::verify
