#include "perpos/plan/graph_plan.hpp"

namespace perpos::plan {

namespace {

std::string describe_failure(const verify::Report& report) {
  std::string out = "verification failed: " +
                    std::to_string(report.errors()) + " error(s)";
  for (const verify::Diagnostic& d : report.diagnostics) {
    if (d.severity != verify::Severity::kError) continue;
    out += "; first: [" + d.rule_id + "] " + d.message;
    break;
  }
  return out;
}

}  // namespace

GraphPlan::GraphPlan(core::ProcessingGraph& graph, PlanOptions options)
    : graph_(graph),
      options_(std::move(options)),
      verifier_(graph, options_.verify_options) {
  // Registered after verifier_'s own observer (member order), so by the
  // time on_mutation runs the dirty set already reflects the mutation and
  // recheck() analyzes exactly the delta.
  observer_token_ = graph_.add_mutation_observer(
      [this](const core::GraphMutation&) { on_mutation(); });
}

GraphPlan::~GraphPlan() { graph_.remove_mutation_observer(observer_token_); }

FreezeResult GraphPlan::freeze() {
  FreezeResult result;
  result.report = verifier_.recheck();
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

void GraphPlan::thaw() {
  const bool was_frozen = frozen();
  armed_ = false;
  clean_ = false;
  if (!was_frozen) return;
  ++stats_.thaws;
  graph_.record_event(obs::FlightEventType::kMark, 0xffffffffu, 0, 0,
                      "plan.thaw");
}

void GraphPlan::on_mutation() {
  if (!armed_) return;
  ++stats_.auto_thaws;
  clean_ = false;
  if (!options_.auto_refreeze) return;
  clean_ = verifier_.recheck().ok();
  // A dirty result keeps the gate armed, so a later mutation that restores
  // a clean graph is frozen again.
  ++(clean_ ? stats_.freezes : stats_.refreeze_failures);
}

}  // namespace perpos::plan
