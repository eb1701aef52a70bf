#include "perpos/exec/engine.hpp"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>

namespace perpos::exec {

namespace {
/// A hot lane hands its slot back to the ready queue after this many tasks
/// so one chatty graph cannot starve the others of a worker.
constexpr std::size_t kLaneBatch = 128;

/// Every engine count has one writer at a time — a lane's poster under the
/// lane mutex, the one worker draining a lane, a worker's own thread — so
/// the accounting adds no contended atomic to the lane hop.
using obs::Tally;

/// One pool worker's counts (plus one slot for the caller draining
/// inline), each on its own cache line so workers never false-share.
struct alignas(64) WorkerSlot {
  Tally tasks;
  Tally busy_ns;
  Tally drains;
  Tally idle_wakeups;
  Tally failed;
};

/// Bound an error message to a metrics-label-safe form: printable ASCII
/// only, capped length, so a thrown what() can never explode label
/// cardinality via embedded addresses/newlines or unbounded text.
std::string labels_safe_error(std::string_view message) {
  std::string out;
  const std::size_t n = message.size() < 64 ? message.size() : 64;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const char c = message[i];
    out += (c >= 0x20 && c < 0x7f && c != '"' && c != '\\') ? c : '_';
  }
  if (message.size() > 64) out += "...";
  return out;
}

std::string describe_current_exception() {
  try {
    throw;
  } catch (const std::exception& e) {
    return e.what();
  } catch (...) {
    return "unknown exception";
  }
}

}  // namespace

struct ExecutionEngine::Lane {
  Lane(std::string n, LaneId i) : name(std::move(n)), id(i) {}
  const std::string name;
  const LaneId id;
  std::mutex mutex;
  std::deque<Task> queue;
  /// True while the lane sits in the ready queue or a worker drains it;
  /// guarantees at most one worker runs this lane at a time (affinity).
  bool scheduled = false;
  /// Watermark edge detector: set when the queue grew past the limit,
  /// cleared when it drained back — one callback per crossing, not per
  /// post. Guarded by `mutex`.
  bool above_watermark = false;
  /// Fenced: drain() parks at the next pop and post_to() holds new tasks
  /// without scheduling; `held` counts queued tasks excluded from the
  /// engine's `outstanding` (they re-enter it at unfence()). Guarded by
  /// `mutex`; `fence_cv` signals "no worker drains this lane anymore".
  bool fenced = false;
  std::size_t held = 0;
  std::condition_variable fence_cv;
  /// Accounting. `posted` and `queue_peak` are written under `mutex`;
  /// `tasks` and `busy_ns` by the one worker draining the lane.
  Tally posted;
  Tally queue_peak;
  Tally tasks;
  Tally busy_ns;
};

struct ExecutionEngine::Impl {
  explicit Impl(std::size_t workers)
      : epoch(std::chrono::steady_clock::now()),
        worker_slots(new WorkerSlot[workers + 1]),
        slot_count(workers + 1) {}

  // Lane registry. unique_ptr gives stable addresses; the registry mutex
  // is held only for create/lookup, never while running tasks.
  mutable std::mutex lanes_mutex;
  std::vector<std::unique_ptr<Lane>> lanes;

  // Ready queue of lanes with work, shared by all workers.
  std::mutex ready_mutex;
  std::condition_variable ready_cv;
  std::deque<Lane*> ready;
  bool stop = false;

  // Idle barrier: posted-but-unfinished task count.
  std::atomic<std::uint64_t> outstanding{0};
  std::mutex idle_mutex;
  std::condition_variable idle_cv;

  // Per-worker counts; the last slot is the caller draining inline.
  const std::chrono::steady_clock::time_point epoch;
  const std::unique_ptr<WorkerSlot[]> worker_slots;
  const std::size_t slot_count;

  // First exception thrown by a task since the last run_until_idle().
  // Captured in drain() so a throwing task can neither abort the process
  // (std::terminate on a worker thread) nor wedge its lane; rethrown to
  // the caller at the next idle point.
  std::mutex error_mutex;
  std::exception_ptr first_error;

  // Queue-depth watermark (set while idle; read from posting threads).
  std::size_t watermark_limit = 0;
  std::function<void(const std::string&, std::size_t)> watermark_callback;

  // Optional metrics registry (set while idle; read from workers), and
  // the registration of the collector that publishes the counts into it.
  obs::MetricsRegistry* registry = nullptr;
  obs::MetricsRegistry::CollectorHandle collector;

  // Optional flight recorder. The engine writes rare events (task
  // failures, watermark crossings) to one shared "engine" ring; rec_mutex
  // serializes those writers to honor the ring's single-producer contract.
  obs::FlightRecorder* recorder = nullptr;
  std::uint32_t rec_lane = 0;
  std::mutex rec_mutex;

  std::vector<std::thread> threads;

  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

  /// Sum one worker-slot count over every slot.
  std::uint64_t sum_workers(Tally WorkerSlot::*count) const noexcept {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < slot_count; ++i) {
      total += (worker_slots[i].*count).get();
    }
    return total;
  }

  /// Record an engine-level event into the shared recorder ring (no-op
  /// without a recorder). Rare paths only — takes rec_mutex.
  void record_engine_event(obs::FlightEvent event) {
    obs::FlightRecorder* rec = recorder;
    if (rec == nullptr) return;
    std::lock_guard<std::mutex> lock(rec_mutex);
    rec->record(rec_lane, event);
  }

  /// Failure bookkeeping shared by drain(): the worker's count, error
  /// capture, flight-recorder event, and (for the first failure of an idle
  /// cycle) a labels-safe error metric plus a black-box dump trigger.
  void on_task_failure(Lane* lane, WorkerSlot& worker) {
    worker.failed.add(1);
    const std::string message = describe_current_exception();
    bool is_first = false;
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      if (!first_error) {
        first_error = std::current_exception();
        is_first = true;
      }
    }
    if (recorder != nullptr) {
      obs::FlightEvent event;
      event.type = obs::FlightEventType::kTaskFailed;
      event.a = lane->id;
      event.set_detail(lane->name.empty() ? message
                                          : lane->name + ": " + message);
      record_engine_event(event);
    }
    if (!is_first) return;
    if (registry != nullptr) {
      registry
          ->counter("perpos_exec_task_errors_total",
                    {{"lane", labels_safe_error(lane->name)},
                     {"error", labels_safe_error(message)}})
          ->inc();
    }
    if (recorder != nullptr) recorder->trigger("task_failed: " + message);
  }

  void enqueue_ready(Lane* lane) {
    {
      std::lock_guard<std::mutex> lock(ready_mutex);
      ready.push_back(lane);
    }
    ready_cv.notify_one();
  }

  /// Run queued tasks of `lane` until its queue is empty (or the fairness
  /// batch is used up, in which case the lane re-enters the ready queue).
  /// The batch is counted on the lane and on `worker` (a pool worker's
  /// slot, or the inline slot for caller-thread drains).
  void drain(Lane* lane, WorkerSlot& worker) {
    // Time at batch granularity: two clock reads per drained batch, not
    // per task. The batch is counted while this worker still owns the
    // lane — before `scheduled` drops or the lane is requeued — so the
    // lane's counts keep one writer at a time.
    const std::uint64_t t0 = now_ns();
    std::size_t ran = 0;
    const auto count_batch = [&] {
      if (ran == 0) return;
      const std::uint64_t busy = now_ns() - t0;
      lane->tasks.add(ran);
      lane->busy_ns.add(busy);
      worker.tasks.add(ran);
      worker.busy_ns.add(busy);
      worker.drains.add(1);
    };
    while (ran < kLaneBatch) {
      Task task;
      {
        std::lock_guard<std::mutex> lock(lane->mutex);
        if (lane->fenced || lane->queue.empty()) {
          count_batch();
          // At a fence, park: the in-flight task (if any) already
          // finished, queued tasks stay put. fence() waits for exactly
          // this hand-over.
          lane->scheduled = false;
          if (lane->fenced) lane->fence_cv.notify_all();
          break;
        }
        task = std::move(lane->queue.front());
        lane->queue.pop_front();
        if (lane->above_watermark && lane->queue.size() <= watermark_limit) {
          lane->above_watermark = false;  // Re-arm the crossing detector.
        }
      }
      // Graph components may throw from on_input; a lane task is therefore
      // allowed to throw. Capture the exception (first one wins — later
      // ones are counted but dropped) and keep the lane draining, then run
      // the finish bookkeeping either way so run_until_idle() cannot hang
      // on a task that errored. The error is stored before finish_many() so
      // an idle waiter always observes it.
      try {
        task();
      } catch (...) {
        on_task_failure(lane, worker);
      }
      ++ran;
    }
    // Batch exhausted with work (possibly) left: requeue instead of
    // resetting `scheduled`, keeping the at-most-one-worker guarantee —
    // unless a fence arrived mid-batch, in which case park here so the
    // fencer need not wait for another worker to pick the lane up.
    if (ran == kLaneBatch) {
      count_batch();
      bool requeue = true;
      {
        std::lock_guard<std::mutex> lock(lane->mutex);
        if (lane->fenced) {
          lane->scheduled = false;
          lane->fence_cv.notify_all();
          requeue = false;
        }
      }
      if (requeue) enqueue_ready(lane);
    }
    // Retire the whole batch at once, *after* counting it: a
    // run_until_idle() waiter that wakes on outstanding==0 then observes
    // the batch's counts. (Deferring decrements is safe — tasks posted by
    // tasks only ever add to `outstanding`.)
    if (ran != 0) finish_many(ran);
  }

  void finish_many(std::uint64_t n) {
    if (outstanding.fetch_sub(n, std::memory_order_acq_rel) == n) {
      // Lock before notifying so the wakeup cannot slip between a waiter's
      // predicate check and its wait.
      std::lock_guard<std::mutex> lock(idle_mutex);
      idle_cv.notify_all();
    }
  }

  /// Rethrow (and clear) the first task exception captured since the last
  /// call. Called from run_until_idle() once the engine is idle.
  void rethrow_pending_error() {
    std::exception_ptr error;
    {
      std::lock_guard<std::mutex> lock(error_mutex);
      error = std::exchange(first_error, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

  void worker_loop(std::uint32_t index) {
    for (;;) {
      Lane* lane = nullptr;
      bool waited = false;
      {
        std::unique_lock<std::mutex> lock(ready_mutex);
        while (!stop && ready.empty()) {
          waited = true;
          ready_cv.wait(lock);
        }
        if (ready.empty()) return;  // stop && drained
        lane = ready.front();
        ready.pop_front();
      }
      WorkerSlot& worker = worker_slots[index];
      if (waited) worker.idle_wakeups.add(1);
      drain(lane, worker);
    }
  }
};

ExecutionEngine::ExecutionEngine(std::size_t workers)
    : worker_count_(workers), impl_(std::make_unique<Impl>(workers)) {
  impl_->threads.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    impl_->threads.emplace_back(
        [this, i] { impl_->worker_loop(static_cast<std::uint32_t>(i)); });
  }
}

ExecutionEngine::~ExecutionEngine() {
  enable_metrics(nullptr);
  {
    std::lock_guard<std::mutex> lock(impl_->ready_mutex);
    impl_->stop = true;
  }
  impl_->ready_cv.notify_all();
  for (std::thread& t : impl_->threads) t.join();
}

namespace {

std::string lane_display_name(const std::string& name, std::size_t index) {
  return name.empty() ? "lane-" + std::to_string(index) : name;
}

}  // namespace

LaneId ExecutionEngine::create_lane(std::string name) {
  std::lock_guard<std::mutex> lock(impl_->lanes_mutex);
  const auto id = static_cast<LaneId>(impl_->lanes.size());
  impl_->lanes.push_back(std::make_unique<Lane>(std::move(name), id));
  return id;
}

std::size_t ExecutionEngine::lane_count() const {
  std::lock_guard<std::mutex> lock(impl_->lanes_mutex);
  return impl_->lanes.size();
}

ExecutionEngine::Lane* ExecutionEngine::lane_ptr(LaneId id) const {
  std::lock_guard<std::mutex> lock(impl_->lanes_mutex);
  if (id >= impl_->lanes.size()) {
    throw std::invalid_argument("ExecutionEngine: unknown lane");
  }
  return impl_->lanes[id].get();
}

void ExecutionEngine::post_to(Lane& lane, Task&& task) {
  bool need_schedule = false;
  std::size_t watermark_depth = 0;
  {
    std::lock_guard<std::mutex> lock(lane.mutex);
    // Posts to a fenced lane are held: queued, but neither scheduled nor
    // counted toward `outstanding`, so run_until_idle() stays fence-aware
    // (it waits only for runnable work). unfence() re-admits them.
    if (lane.fenced) {
      ++lane.held;
    } else {
      impl_->outstanding.fetch_add(1, std::memory_order_acq_rel);
    }
    lane.queue.push_back(std::move(task));
    const std::size_t depth_after = lane.queue.size();
    lane.posted.add(1);
    lane.queue_peak.raise_to(depth_after);
    if (impl_->watermark_limit != 0 && !lane.above_watermark &&
        depth_after > impl_->watermark_limit) {
      lane.above_watermark = true;
      watermark_depth = depth_after;
    }
    if (!lane.fenced && !lane.scheduled) {
      lane.scheduled = true;
      need_schedule = true;
    }
  }
  if (need_schedule) impl_->enqueue_ready(&lane);
  if (watermark_depth != 0) {
    if (impl_->recorder != nullptr) {
      obs::FlightEvent event;
      event.type = obs::FlightEventType::kWatermark;
      event.a = watermark_depth;
      event.set_detail(lane.name);
      impl_->record_engine_event(event);
    }
    if (impl_->watermark_callback) {
      // Outside the lane lock: the callback may inspect engine state.
      impl_->watermark_callback(lane.name, watermark_depth);
    }
  }
}

void ExecutionEngine::post(LaneId lane, Task task) {
  post_to(*lane_ptr(lane), std::move(task));
}

std::function<void(Task)> ExecutionEngine::executor(LaneId lane) {
  Lane* l = lane_ptr(lane);  // resolve (and validate) once
  return [this, l](Task task) { post_to(*l, std::move(task)); };
}

void ExecutionEngine::fence(LaneId lane) {
  Lane* l = lane_ptr(lane);
  {
    std::lock_guard<std::mutex> lock(l->mutex);
    if (l->fenced) return;
    l->fenced = true;
  }
  // If the lane is parked in the ready queue (scheduled, but no worker
  // picked it up yet), pull it out so no drain ever starts; a worker
  // already draining it parks at its next pop instead.
  bool descheduled = false;
  {
    std::lock_guard<std::mutex> lock(impl_->ready_mutex);
    auto it = std::find(impl_->ready.begin(), impl_->ready.end(), l);
    if (it != impl_->ready.end()) {
      impl_->ready.erase(it);
      descheduled = true;
    }
  }
  std::size_t backlog = 0;
  {
    std::unique_lock<std::mutex> lock(l->mutex);
    if (descheduled) l->scheduled = false;
    // The quiesce point: once `scheduled` drops, the at-most-one-worker
    // guarantee means no task of this lane is executing and none will
    // start until unfence().
    l->fence_cv.wait(lock, [&] { return !l->scheduled; });
    // Move the queued backlog out of the idle accounting; tasks popped
    // before the fence are not in the queue anymore and retire normally.
    backlog = l->queue.size() - l->held;
    l->held = l->queue.size();
  }
  if (backlog > 0) impl_->finish_many(backlog);
}

void ExecutionEngine::unfence(LaneId lane) {
  Lane* l = lane_ptr(lane);
  bool need_schedule = false;
  {
    std::lock_guard<std::mutex> lock(l->mutex);
    if (!l->fenced) return;
    // Re-admit held tasks before the lane becomes schedulable — we hold
    // the lane mutex and the lane is unscheduled, so no worker can retire
    // them concurrently and race the idle barrier.
    if (l->held > 0) {
      impl_->outstanding.fetch_add(l->held, std::memory_order_acq_rel);
      l->held = 0;
    }
    l->fenced = false;
    if (!l->queue.empty() && !l->scheduled) {
      l->scheduled = true;
      need_schedule = true;
    }
  }
  if (need_schedule) impl_->enqueue_ready(l);
}

bool ExecutionEngine::fenced(LaneId lane) const {
  Lane* l = lane_ptr(lane);
  std::lock_guard<std::mutex> lock(l->mutex);
  return l->fenced;
}

std::size_t ExecutionEngine::lane_depth(LaneId lane) const {
  Lane* l = lane_ptr(lane);
  std::lock_guard<std::mutex> lock(l->mutex);
  return l->queue.size();
}

void ExecutionEngine::run_until_idle() {
  if (worker_count_ == 0) {
    // Inline mode: the caller is the (only) worker. Lanes drain in ready
    // order, each serially — bit-for-bit the threaded semantics, minus the
    // interleaving.
    for (;;) {
      Lane* lane = nullptr;
      {
        std::lock_guard<std::mutex> lock(impl_->ready_mutex);
        if (impl_->ready.empty()) break;
        lane = impl_->ready.front();
        impl_->ready.pop_front();
      }
      impl_->drain(lane, impl_->worker_slots[worker_count_]);
    }
    impl_->rethrow_pending_error();
    return;
  }
  {
    std::unique_lock<std::mutex> lock(impl_->idle_mutex);
    impl_->idle_cv.wait(lock, [&] {
      return impl_->outstanding.load(std::memory_order_acquire) == 0;
    });
  }
  impl_->rethrow_pending_error();
}

std::size_t ExecutionEngine::drive(sim::Scheduler& scheduler) {
  scheduler.set_post_event_hook([this] { run_until_idle(); });
  std::size_t events = 0;
  try {
    events = scheduler.run_all();
  } catch (...) {
    scheduler.set_post_event_hook(nullptr);
    throw;
  }
  scheduler.set_post_event_hook(nullptr);
  run_until_idle();  // work posted outside any event
  return events;
}

std::size_t ExecutionEngine::drive_until(sim::Scheduler& scheduler,
                                         sim::SimTime limit) {
  scheduler.set_post_event_hook([this] { run_until_idle(); });
  std::size_t events = 0;
  try {
    events = scheduler.run_until(limit);
  } catch (...) {
    scheduler.set_post_event_hook(nullptr);
    throw;
  }
  scheduler.set_post_event_hook(nullptr);
  run_until_idle();
  return events;
}

void ExecutionEngine::set_queue_watermark(
    std::size_t limit,
    std::function<void(const std::string& lane, std::size_t depth)>
        callback) {
  impl_->watermark_limit = limit;
  impl_->watermark_callback = std::move(callback);
}

void ExecutionEngine::enable_metrics(obs::MetricsRegistry* registry) {
  // The collector runs under the registry's collector mutex and takes
  // lanes_mutex, then each lane mutex (introspect()); the engine never
  // touches the registry while holding either, so the order is acyclic.
  impl_->collector.reset();
  impl_->registry = registry;
  if (registry == nullptr) return;
  impl_->collector = registry->add_collector([this](obs::MetricsSnapshot& out) {
    const obs::IntrospectionSnapshot snap = introspect();
    double queue_depth = 0.0;
    for (const auto& lane : snap.lanes) {
      queue_depth += static_cast<double>(lane.queue_depth);
    }
    out.counters.push_back(
        {"perpos_exec_tasks_posted_total", {}, snap.tasks_posted});
    out.counters.push_back(
        {"perpos_exec_tasks_executed_total", {}, snap.tasks_executed});
    out.counters.push_back(
        {"perpos_exec_tasks_failed_total", {}, snap.tasks_failed});
    out.gauges.push_back({"perpos_exec_queue_depth", {}, queue_depth});
    out.gauges.push_back({"perpos_exec_lanes", {},
                          static_cast<double>(snap.lanes.size())});
    out.gauges.push_back(
        {"perpos_exec_workers", {}, static_cast<double>(snap.workers)});
  });
}

void ExecutionEngine::set_flight_recorder(obs::FlightRecorder* recorder) {
  impl_->recorder = recorder;
  if (recorder != nullptr) impl_->rec_lane = recorder->add_lane("engine");
}

obs::IntrospectionSnapshot ExecutionEngine::introspect() const {
  obs::IntrospectionSnapshot snap;
  snap.workers = worker_count_;
  const std::uint64_t elapsed_ns = impl_->now_ns();
  snap.captured_us = static_cast<double>(elapsed_ns) / 1000.0;
  snap.worker_stats.reserve(impl_->slot_count);
  for (std::size_t i = 0; i < impl_->slot_count; ++i) {
    const WorkerSlot& w = impl_->worker_slots[i];
    obs::WorkerIntrospection wi;
    wi.tasks = w.tasks.get();
    const std::uint64_t busy_ns = w.busy_ns.get();
    wi.busy_us = static_cast<double>(busy_ns) / 1000.0;
    wi.drains = w.drains.get();
    wi.idle_wakeups = w.idle_wakeups.get();
    wi.utilization = elapsed_ns == 0 ? 0.0
                                     : static_cast<double>(busy_ns) /
                                           static_cast<double>(elapsed_ns);
    snap.tasks_executed += wi.tasks;
    snap.tasks_failed += w.failed.get();
    snap.worker_stats.push_back(wi);
  }

  std::lock_guard<std::mutex> lock(impl_->lanes_mutex);
  snap.lanes.reserve(impl_->lanes.size());
  for (std::size_t i = 0; i < impl_->lanes.size(); ++i) {
    Lane& lane = *impl_->lanes[i];
    obs::LaneIntrospection li;
    li.name = lane_display_name(lane.name, i);
    {
      std::lock_guard<std::mutex> lane_lock(lane.mutex);
      li.queue_depth = lane.queue.size();
      li.active = lane.scheduled;
      snap.tasks_posted += lane.posted.get();
    }
    li.tasks = lane.tasks.get();
    li.busy_us = static_cast<double>(lane.busy_ns.get()) / 1000.0;
    li.queue_peak = lane.queue_peak.get();
    snap.lanes.push_back(std::move(li));
  }
  return snap;
}

std::uint64_t ExecutionEngine::executed() const noexcept {
  return impl_->sum_workers(&WorkerSlot::tasks);
}

std::uint64_t ExecutionEngine::outstanding() const noexcept {
  return impl_->outstanding.load(std::memory_order_relaxed);
}

std::uint64_t ExecutionEngine::failed() const noexcept {
  return impl_->sum_workers(&WorkerSlot::failed);
}

}  // namespace perpos::exec
