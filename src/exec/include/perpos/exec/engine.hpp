#pragma once

#include "perpos/obs/flight_recorder.hpp"
#include "perpos/obs/introspection.hpp"
#include "perpos/obs/metrics.hpp"
#include "perpos/sim/scheduler.hpp"

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <vector>

/// \file engine.hpp
/// The parallel execution engine (perpos::exec): a worker pool that runs
/// many positioning processes concurrently without touching any in-graph
/// invariant.
///
/// PerPos graphs are single-threaded by design — delivery order, logical
/// time and provenance all assume one thread drives a graph at a time
/// (see ProcessingGraph). The engine therefore parallelizes *across*
/// graphs, not within one: work is posted to *affinity lanes*, and the
/// engine guarantees that tasks of one lane run strictly in post order and
/// never concurrently with each other. Give every graph (equivalently:
/// every target's positioning process) its own lane and all lanes may
/// proceed in parallel while each graph still observes the exact
/// single-threaded execution it was built for.
///
/// Determinism contract: for a fixed sequence of post() calls per lane,
/// the side effects *within that lane* are identical for any worker count
/// (including 0). Only the interleaving *between* lanes varies — which is
/// unobservable to a well-formed deployment, because graphs on different
/// lanes share no mutable state (cross-graph data flows through
/// DistributedDeployment links, which post to the destination lane).
/// perpos-verify rule PPV009 checks that a lane assignment actually has
/// this property.
///
/// With `workers == 0` the engine owns no threads: tasks queue up and
/// run_until_idle() drains them on the calling thread — the fully
/// deterministic single-threaded mode used by tests and by simulation
/// runs that need reproducibility.

namespace perpos::exec {

/// Identifies one serial execution lane. Lanes are cheap; create one per
/// graph / per target.
using LaneId = std::uint32_t;

using Task = std::function<void()>;

class ExecutionEngine {
 public:
  /// Start a pool of `workers` threads. 0 = inline mode (no threads;
  /// run_until_idle drains on the caller).
  explicit ExecutionEngine(std::size_t workers);
  ~ExecutionEngine();

  ExecutionEngine(const ExecutionEngine&) = delete;
  ExecutionEngine& operator=(const ExecutionEngine&) = delete;

  /// Create a new lane. `name` is used for metrics/debugging only.
  /// Thread-safe; may be called while workers are draining other lanes.
  LaneId create_lane(std::string name = {});

  std::size_t workers() const noexcept { return worker_count_; }
  std::size_t lane_count() const;

  /// Enqueue `task` on `lane`. Tasks of one lane run in post order, one at
  /// a time; tasks of different lanes run concurrently. Thread-safe.
  /// Throws std::invalid_argument for unknown lanes.
  ///
  /// Tasks may throw (graph components are allowed to throw from
  /// on_input): the exception is captured on the worker — it never
  /// terminates the process or wedges the lane, and subsequent tasks of
  /// the lane still run. The first captured exception is rethrown from
  /// the next run_until_idle(); later ones are counted in failed() but
  /// dropped.
  void post(LaneId lane, Task task);

  /// Fence `lane`: wait until the worker currently draining it (if any)
  /// finishes its in-flight task and parks the lane, then hold every
  /// queued and newly posted task — held tasks neither run nor count
  /// toward run_until_idle() until unfence(). Because at most one worker
  /// ever drains a lane, a returned fence() guarantees no task of this
  /// lane is executing and none will start: the quiesce point live
  /// reconfiguration mutates the lane's graph under. Post order is
  /// preserved across the fence. Idempotent; thread-safe. Must not be
  /// called from a task running on `lane` (it would wait for itself).
  ///
  /// As model transitions (the PPM003 hot-swap model in
  /// perpos/verify/protocol_models.hpp checks these semantics over every
  /// interleaving): fence() is `fence := requested`, and the retire of the
  /// at-most-one in-flight task is what flips it to `held` — the step the
  /// bounded model checker relies on when proving no mutation lands while
  /// a task is in flight. Tasks posted while fenced stay queued (the model
  /// keeps producer.post enabled across the fence); unfence() drains them
  /// in post order into whatever graph the cutover installed.
  void fence(LaneId lane);

  /// Lift the fence: held tasks re-enter the idle accounting and the lane
  /// is scheduled again. Idempotent; thread-safe.
  void unfence(LaneId lane);

  /// True while `lane` is fenced.
  bool fenced(LaneId lane) const;

  /// Tasks currently queued on `lane` (held or schedulable).
  std::size_t lane_depth(LaneId lane) const;

  /// A reusable single-lane executor: calling it posts to `lane` without
  /// the id->lane lookup. This is the seam handed to PositioningService /
  /// DistributedDeployment (they depend on std::function, not on exec).
  std::function<void(Task)> executor(LaneId lane);

  /// Block until every posted task (including tasks posted by running
  /// tasks) has finished. In inline mode this is what runs the tasks, and
  /// it must be called from one thread at a time (the caller is the
  /// engine's only worker). Not reentrant: do not call from inside a task.
  ///
  /// If any task threw since the previous call, the first captured
  /// exception is rethrown here — after the engine reached idle, so the
  /// remaining tasks have still run and the engine stays usable.
  void run_until_idle();

  /// Drive a discrete-event simulation through the engine: runs
  /// `scheduler.run_all()` with a post-event hook that drains all lanes to
  /// idle after every event, so the parallel side effects of each event
  /// complete before the next fires — deterministic per lane regardless of
  /// worker count. Returns the number of scheduler events executed. The
  /// scheduler's previous hook is restored on return.
  std::size_t drive(sim::Scheduler& scheduler);

  /// As drive(), but stops at simulation time `limit`.
  std::size_t drive_until(sim::Scheduler& scheduler, sim::SimTime limit);

  /// Publish the engine's counts in `registry`: registers a scrape-time
  /// collector that appends perpos_exec_{tasks_posted_total,
  /// tasks_executed_total, tasks_failed_total, queue_depth, lanes, workers}
  /// to every registry.snapshot(). Nothing is pushed per task; only the
  /// rare labelled perpos_exec_task_errors_total is written where a task
  /// fails. Pass nullptr (or destroy the engine) to unregister; either
  /// the engine or the registry may be destroyed first. Set while the
  /// engine is idle; the registry must stay alive while tasks run with it
  /// attached. Attach one engine per registry: a second one would append
  /// unlabelled series of the same names.
  void enable_metrics(obs::MetricsRegistry* registry);

  /// Attach a flight recorder: the engine registers one "engine" ring and
  /// records task failures (a = LaneId, detail = lane name and error
  /// message) and watermark crossings into it — and trigger()s a black-box
  /// dump on the first task failure of each idle cycle. Pass nullptr to
  /// detach. Set while the engine is idle; the recorder must outlive the
  /// engine.
  void set_flight_recorder(obs::FlightRecorder* recorder);

  /// Point-in-time runtime snapshot for perpos-top, read from the counts
  /// the engine always keeps: per lane queue depth, activity, tasks, busy
  /// time and queue peak; per worker (plus the inline slot) tasks, busy
  /// time, drains, idle wake-ups and utilization; and the task totals.
  /// Thread-safe; callable while workers drain. Lane and worker counts
  /// advance once per drained batch, so they agree with executed() at
  /// idle. Graph sections are left empty — PositioningService fills those.
  obs::IntrospectionSnapshot introspect() const;

  /// Lane queue-depth watermark (the runtime sanitizer seam): when a
  /// post() pushes a lane's queue past `limit` tasks, `callback(lane_name,
  /// depth)` fires on the posting thread — once per crossing; it re-arms
  /// when the lane drains back to the limit. A producer outpacing its
  /// lane's consumer shows up here long before memory does. limit 0 (the
  /// default) disables the check. Set while the engine is idle; the
  /// callback must be thread-safe and must not post to the same engine.
  void set_queue_watermark(
      std::size_t limit,
      std::function<void(const std::string& lane, std::size_t depth)>
          callback);

  /// Tasks run so far (across all lanes), including tasks that threw.
  /// Counted per drained batch.
  std::uint64_t executed() const noexcept;
  /// Tasks posted but not yet finished.
  std::uint64_t outstanding() const noexcept;
  /// Tasks that exited with an exception.
  std::uint64_t failed() const noexcept;

 private:
  struct Lane;
  struct Impl;

  Lane* lane_ptr(LaneId id) const;
  void post_to(Lane& lane, Task&& task);

  std::size_t worker_count_ = 0;
  std::unique_ptr<Impl> impl_;
};

}  // namespace perpos::exec
