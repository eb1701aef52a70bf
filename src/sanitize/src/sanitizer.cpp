#include "perpos/sanitize/sanitizer.hpp"

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string_view>
#include <utility>

namespace perpos::sanitize {

namespace {

int severity_rank(verify::Severity severity) noexcept {
  switch (severity) {
    case verify::Severity::kError:
      return 0;
    case verify::Severity::kWarning:
      return 1;
    case verify::Severity::kNote:
      return 2;
  }
  return 3;
}

}  // namespace

GraphSanitizer::GraphSanitizer(SanitizerConfig config) : config_(config) {}

GraphSanitizer::~GraphSanitizer() { detach(); }

void GraphSanitizer::attach(core::ProcessingGraph& graph) {
  detach();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    graph_ = &graph;
  }
  graph.add_observer(*this, kDispatch | kAccept);
}

void GraphSanitizer::detach() {
  core::ProcessingGraph* graph = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    graph = std::exchange(graph_, nullptr);
  }
  // Release our mutex before calling back into the graph.
  if (graph != nullptr) graph->remove_observer(*this);
}

void GraphSanitizer::watch_engine(exec::ExecutionEngine& engine,
                                  std::size_t limit) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    engine_ = &engine;
  }
  engine.set_queue_watermark(
      limit, [this, limit](const std::string& lane, std::size_t depth) {
        std::ostringstream message;
        message << "execution lane '" << lane << "' queue depth " << depth
                << " crossed the watermark (" << limit
                << "): the lane's producer outpaces its consumer";
        record("PPS005", verify::Severity::kWarning, std::nullopt,
               message.str(),
               "throttle the producer, split the lane, or raise the "
               "watermark if the burst is expected");
      });
}

void GraphSanitizer::set_flight_recorder(obs::FlightRecorder* recorder) {
  std::lock_guard<std::mutex> lock(mutex_);
  recorder_ = recorder;
  if (recorder != nullptr) rec_lane_ = recorder->add_lane("sanitizer");
}

void GraphSanitizer::bind_to_current_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  bound_ = true;
  owner_ = std::this_thread::get_id();
}

void GraphSanitizer::unbind_thread() {
  std::lock_guard<std::mutex> lock(mutex_);
  bound_ = false;
}

std::size_t GraphSanitizer::violations() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return diagnostics_.size();
}

verify::Report GraphSanitizer::report() const {
  verify::Report report;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    report.diagnostics = diagnostics_;
  }
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const verify::Diagnostic& a, const verify::Diagnostic& b) {
                     return severity_rank(a.severity) < severity_rank(b.severity);
                   });
  return report;
}

void GraphSanitizer::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  diagnostics_.clear();
  reported_.clear();
  last_emit_.clear();
  queue_high_water_ = 0;
  cascade_high_water_ = 0;
}

std::size_t GraphSanitizer::dispatch_queue_high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_high_water_;
}

std::uint64_t GraphSanitizer::cascade_high_water() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return cascade_high_water_;
}

bool GraphSanitizer::env_enabled() {
  const char* value = std::getenv("PERPOS_SANITIZE");
  if (value == nullptr) return false;
  std::string_view view(value);
  while (!view.empty()) {
    const std::size_t comma = view.find(',');
    std::string_view item = view.substr(0, comma);
    while (!item.empty() && item.front() == ' ') item.remove_prefix(1);
    while (!item.empty() && item.back() == ' ') item.remove_suffix(1);
    if (item == "graph") return true;
    if (comma == std::string_view::npos) break;
    view.remove_prefix(comma + 1);
  }
  return false;
}

std::unique_ptr<GraphSanitizer> GraphSanitizer::install_from_env(
    core::ProcessingGraph& graph, SanitizerConfig config) {
  if (!env_enabled()) return nullptr;
  auto sanitizer = std::make_unique<GraphSanitizer>(config);
  sanitizer->attach(graph);
  return sanitizer;
}

void GraphSanitizer::on_emit(const core::Sample& sample) {
  check_thread(sample.producer);
  std::string regression;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Each origin is its own stream: data a produce hook adds is stamped
    // after the emission it rides on, but leaves the port first.
    const auto [it, first] = last_emit_.try_emplace(
        {sample.producer, sample.origin}, sample.timestamp, sample.sequence);
    if (first) return;
    const auto [last_time, last_seq] = it->second;
    if (sample.timestamp < last_time || sample.sequence < last_seq) {
      const bool time_regressed = sample.timestamp < last_time;
      std::ostringstream message;
      message << "producer " << name_of(sample.producer) << " emitted "
              << (time_regressed ? "timestamp " : "logical time ");
      if (time_regressed) {
        message << sample.timestamp.ns << "ns after " << last_time.ns << "ns";
      } else {
        message << sample.sequence << " after " << last_seq;
      }
      message << ": per-producer time must be monotonic (merge logic and "
                 "provenance ranges assume it)";
      regression = message.str();
    }
    it->second = {std::max(sample.timestamp, last_time),
                  std::max(sample.sequence, last_seq)};
  }
  if (!regression.empty()) {
    // Keyed on the producer only (see record): a clock running backwards
    // would otherwise report every subsequent sample.
    record("PPS002", verify::Severity::kWarning, sample.producer,
           std::move(regression),
           "fix the source's clock, or re-stamp out-of-order input before "
           "it enters the graph");
  }
}

void GraphSanitizer::on_accept(const core::Sample&,
                               core::ComponentId consumer,
                               std::size_t queue_depth,
                               std::uint64_t cascade) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_high_water_ = std::max(queue_high_water_, queue_depth);
    cascade_high_water_ = std::max(cascade_high_water_, cascade);
  }
  if (cascade > config_.max_cascade) {
    std::ostringstream message;
    message << "one external emission cascaded into " << cascade
            << " deliveries (bound " << config_.max_cascade
            << ") at " << name_of(consumer)
            << ": likely an amplifying feedback loop (see static rule "
               "PPV010)";
    record("PPS004", verify::Severity::kError, consumer, message.str(),
           "break the cycle, or decimate inside it so the loop gain drops "
           "below 1");
  }
  if (config_.max_queue_depth != 0 && queue_depth > config_.max_queue_depth) {
    std::ostringstream message;
    message << "dispatch work queue reached " << queue_depth
            << " pending deliveries (watermark " << config_.max_queue_depth
            << ") while delivering to " << name_of(consumer);
    record("PPS005", verify::Severity::kWarning, consumer, message.str(),
           "a fan-out burst or feedback loop is flooding the dispatcher; "
           "decimate or split the graph");
  }
}

void GraphSanitizer::begin_quiesce() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++quiesce_depth_;
}

void GraphSanitizer::end_quiesce() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (quiesce_depth_ > 0) --quiesce_depth_;
}

void GraphSanitizer::on_mutation(const core::GraphMutation& mutation) {
  exec::ExecutionEngine* engine = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (quiesce_depth_ > 0) return;
    engine = engine_;
  }
  if (engine == nullptr) return;
  // `outstanding` excludes tasks held behind a lane fence, so a properly
  // fenced cutover of the only running lane is quiet here even without an
  // explicit quiesce window; anything still runnable at mutation time is
  // a race against the drain protocol.
  const std::uint64_t in_flight = engine->outstanding();
  if (in_flight == 0) return;
  std::ostringstream message;
  message << "graph mutated (kind " << static_cast<int>(mutation.kind)
          << " at " << name_of(mutation.a) << ") while the watched engine "
          << "had " << in_flight
          << " task(s) in flight: mutations must run at a quiesce point "
             "(engine idle, or every lane of this graph fenced)";
  record("PPS006", verify::Severity::kError, mutation.a, message.str(),
         "fence the graph's lanes (ExecutionEngine::fence) or drain to "
         "idle before mutating; LiveReconfigurator does this for you");
}

void GraphSanitizer::on_pool_double_release() {
  record("PPS003", verify::Severity::kError, std::nullopt,
         "the provenance pool found a returned buffer that is still "
         "referenced (the buffer was skipped, not reused)",
         "audit the provenance reference counting (ProvenanceRef copies and "
         "releases) for a buffer returned while a sample still holds it");
}

void GraphSanitizer::record(std::string rule_id, verify::Severity severity,
                            std::optional<core::ComponentId> component,
                            std::string message, std::string fix_hint) {
  std::string detail;
  obs::FlightRecorder* recorder = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::string key = rule_id;
    key += '@';
    key += component.has_value() ? std::to_string(*component) : message;
    if (!reported_.insert(std::move(key)).second) return;
    if (recorder_ != nullptr) {
      detail = rule_id;
      detail += ": ";
      detail += message;
    }
    verify::Diagnostic diagnostic;
    diagnostic.rule_id = std::move(rule_id);
    diagnostic.severity = severity;
    diagnostic.message = std::move(message);
    diagnostic.component = component;
    if (component.has_value()) diagnostic.component_name = name_of(*component);
    diagnostic.fix_hint = std::move(fix_hint);
    diagnostics_.push_back(std::move(diagnostic));
    if (recorder_ != nullptr) {
      obs::FlightEvent event;
      event.type = obs::FlightEventType::kSanitizerFinding;
      event.component = component.value_or(core::kInvalidComponent);
      event.set_detail(detail);
      recorder_->record(rec_lane_, event);
      recorder = recorder_;
    }
  }
  // Dump outside the lock: the handler may serialize the whole recorder
  // (or even call back into report()).
  if (recorder != nullptr) recorder->trigger(detail);
}

std::string GraphSanitizer::name_of(core::ComponentId id) const {
  // Callers hold no lock or already hold mutex_; graph_ reads are safe on
  // the dispatch thread (mutations never run concurrently with dispatch).
  if (graph_ != nullptr && graph_->has(id)) {
    const core::ComponentInfo info = graph_->info(id);
    return info.kind + "#" + std::to_string(id);
  }
  return "#" + std::to_string(id);
}

void GraphSanitizer::check_thread(core::ComponentId at) {
  const std::thread::id self = std::this_thread::get_id();
  bool violation = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!bound_) {
      if (!config_.bind_on_first_use) return;
      bound_ = true;
      owner_ = self;
      return;
    }
    violation = owner_ != self;
  }
  if (violation) {
    std::ostringstream message;
    message << "graph dispatched from a thread other than its bound owner "
               "(emission at "
            << name_of(at)
            << "): lanes guarantee single-threaded graph execution, so a "
               "foreign thread means a lane-affinity bug";
    record("PPS001", verify::Severity::kError, at, message.str(),
           "route all work for this graph through its execution lane (or "
           "rebind after an intentional hand-over)");
  }
}

}  // namespace perpos::sanitize
