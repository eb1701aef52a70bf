#pragma once

#include "perpos/core/graph.hpp"
#include "perpos/exec/engine.hpp"
#include "perpos/obs/flight_recorder.hpp"
#include "perpos/verify/diagnostic.hpp"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

/// \file sanitizer.hpp
/// The runtime Graph Sanitizer — the dynamic half of the verification
/// story (the static half is perpos::verify).
///
/// The static analyzer proves properties of a snapshot; the sanitizer
/// enforces the invariants those rules *assume* on the live graph, with
/// cheap assertions hooked into the dispatch path (a core::GraphObserver)
/// and the execution engine's lane inboxes:
///
///   PPS001  lane-ownership       the graph is driven by one bound thread
///   PPS002  time-regression      per-producer timestamps/logical time
///                                never move backwards (per origin)
///   PPS003  pool-double-release  a provenance buffer is reused only once
///                                nothing references it
///   PPS004  emission-depth       one external emission cascades into a
///                                bounded number of deliveries
///   PPS005  queue-watermark      dispatch / lane queues stay bounded
///   PPS006  mutation-during-drain  structural mutations happen only with
///                                the watched engine idle, or inside a
///                                reconfiguration quiesce window
///
/// Violations become the same verify::Diagnostic records the static rules
/// produce, under the PPS ids registered in the default catalog — so one
/// SARIF report can mix static and runtime findings (see verify::to_sarif).
///
/// Enable ad hoc with attach()/watch_engine(), or fleet-wide through the
/// PERPOS_SANITIZE=graph environment mode (install_from_env).

namespace perpos::sanitize {

struct SanitizerConfig {
  /// PPS004: accepted deliveries one external emission may cascade into.
  /// The default is far above any sane pipeline (a 10k-stage chain is
  /// 10k deliveries) but well below where an amplifying feedback loop
  /// lands within its first milliseconds.
  std::uint64_t max_cascade = 100000;
  /// PPS005: dispatch work-queue depth watermark (pending deliveries).
  std::size_t max_queue_depth = 4096;
  /// PPS001: bind the graph to whichever thread dispatches first. When
  /// false, only an explicit bind_to_current_thread() arms the check.
  bool bind_on_first_use = true;
};

/// Watches one ProcessingGraph (and optionally one ExecutionEngine) and
/// records invariant violations as verify diagnostics.
///
/// Threading: the observer callbacks run on the graph's dispatching thread;
/// engine watermarks may arrive from any thread. All
/// internal state is mutex-guarded, so report()/violations() may be read
/// from anywhere. The sanitizer must be detached (or destroyed — the
/// destructor detaches) before the graph it watches dies.
class GraphSanitizer final : public core::GraphObserver {
 public:
  explicit GraphSanitizer(SanitizerConfig config = {});
  ~GraphSanitizer() override;

  GraphSanitizer(const GraphSanitizer&) = delete;
  GraphSanitizer& operator=(const GraphSanitizer&) = delete;

  /// Register this sanitizer as one of `graph`'s observers (detaching it
  /// from any graph it watched before); other observers stay.
  void attach(core::ProcessingGraph& graph);
  void detach();
  bool attached() const noexcept { return graph_ != nullptr; }

  /// Arm PPS005 for `engine`'s lane inboxes too, via its queue watermark
  /// (one callback per crossing), and PPS006 against its in-flight task
  /// count: a structural mutation of the attached graph while the engine
  /// has runnable tasks outstanding — and no quiesce window is open — is
  /// recorded as a mutation-during-drain violation. Call with the engine
  /// idle; the engine must outlive the sanitizer or the next call.
  void watch_engine(exec::ExecutionEngine& engine, std::size_t limit = 4096);

  /// Open / close a reconfiguration quiesce window: between the two calls
  /// mutations of the attached graph do not raise PPS006 (the caller
  /// vouches that every lane driving this graph is fenced — see
  /// exec::ExecutionEngine::fence and perpos::reconfig). Nestable.
  void begin_quiesce();
  void end_quiesce();

  /// Attach a flight recorder: every *newly* recorded violation (duplicates
  /// are suppressed as usual) lands as a kSanitizerFinding event on a
  /// dedicated "sanitizer" ring, and trigger()s the recorder's dump handler
  /// — so a PPS rule firing snapshots the black box with the triggering
  /// event in it. Pass nullptr to detach. The recorder must outlive the
  /// sanitizer or the next call.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Bind the lane-ownership check to the calling thread explicitly
  /// (e.g. the engine lane's worker); dispatch from any other thread then
  /// raises PPS001.
  void bind_to_current_thread();
  /// Forget the binding (the next dispatch re-binds when
  /// bind_on_first_use is set).
  void unbind_thread();

  /// Violations recorded so far.
  std::size_t violations() const;
  /// The recorded violations as an analyzer report (severity-major order,
  /// like RuleRegistry::run) — feed it to to_text/to_json/to_sarif, or
  /// splice it into a static report to mix findings.
  verify::Report report() const;
  /// Drop all recorded violations and duplicate-suppression state.
  void clear();

  /// Peak dispatch-queue depth observed across all deliveries (the
  /// queue_depth the graph reported to on_accept). This is what the
  /// static analyzer's queue bound (analyze_budget) promises to dominate;
  /// the cross-validation suite asserts static >= this runtime peak.
  std::size_t dispatch_queue_high_water() const;
  /// Peak per-emission delivery cascade observed (the cascade counter the
  /// graph reported to on_accept). Static counterpart: the per-source
  /// burst cascade in analyze_budget's queue model.
  std::uint64_t cascade_high_water() const;

  /// True when the PERPOS_SANITIZE environment variable requests graph
  /// mode (the value "graph", or a comma list containing it).
  static bool env_enabled();

  /// The fleet deployment switch: when PERPOS_SANITIZE=graph is set,
  /// construct a sanitizer, attach it to `graph` and return it; otherwise
  /// return nullptr and leave the graph untouched.
  static std::unique_ptr<GraphSanitizer> install_from_env(
      core::ProcessingGraph& graph, SanitizerConfig config = {});

  // --- core::GraphObserver -------------------------------------------------
  void on_mutation(const core::GraphMutation& mutation) override;
  void on_emit(const core::Sample& sample) override;
  void on_accept(const core::Sample& sample, core::ComponentId consumer,
                 std::size_t queue_depth, std::uint64_t cascade) override;
  void on_pool_double_release() override;

 private:
  /// Record a violation once per (rule, site) until clear().
  void record(std::string rule_id, verify::Severity severity,
              std::optional<core::ComponentId> component,
              std::string message, std::string fix_hint);
  std::string name_of(core::ComponentId id) const;
  void check_thread(core::ComponentId at);

  mutable std::mutex mutex_;
  SanitizerConfig config_;
  core::ProcessingGraph* graph_ = nullptr;
  /// Engine watched for PPS006 (in-flight tasks during a mutation) and
  /// PPS005; null until watch_engine().
  exec::ExecutionEngine* engine_ = nullptr;
  /// Open quiesce windows; mutations are PPS006-exempt while non-zero.
  int quiesce_depth_ = 0;
  bool bound_ = false;
  std::thread::id owner_;
  /// High-water marks per (producer, origin): last timestamp and logical
  /// time seen.
  std::map<std::pair<core::ComponentId, core::OriginId>,
           std::pair<sim::SimTime, std::uint64_t>>
      last_emit_;
  std::set<std::string> reported_;  ///< Duplicate-suppression keys.
  std::size_t queue_high_water_ = 0;     ///< Peak on_accept queue_depth.
  std::uint64_t cascade_high_water_ = 0; ///< Peak on_accept cascade.
  std::vector<verify::Diagnostic> diagnostics_;
  /// Black-box hookup: events go to rec_lane_ under mutex_ (violations can
  /// surface from any thread; the lock serializes the single-producer ring).
  obs::FlightRecorder* recorder_ = nullptr;
  std::uint32_t rec_lane_ = 0;
};

}  // namespace perpos::sanitize
