#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/// \file flight_recorder.hpp
/// The "black box" of a PerPos deployment: a bounded, lock-free, per-lane
/// ring of recent structured events (emissions, deliveries, mutations,
/// failovers, sanitizer findings, task failures). In steady state it costs
/// a handful of relaxed atomic stores per event and is never read; when
/// something goes wrong — a GraphSanitizer PPS rule fires, a worker task
/// throws, an operator asks — the recorder dumps a merged, time-ordered
/// snapshot of the last moments of every lane as JSON and as a Chrome
/// trace_event file.
///
/// Concurrency model: each ring has exactly ONE producer (the thread
/// driving that lane — the execution engine's at-most-one-worker-per-lane
/// drain protocol provides this for free), so record() needs no CAS loop.
/// Readers (dump paths) may run concurrently from any thread: every slot
/// is a per-slot seqlock whose payload is stored through relaxed atomic
/// words, so a torn read is detected and skipped rather than returned —
/// and the scheme is data-race-free under TSan.

namespace perpos::obs {

enum class FlightEventType : std::uint8_t {
  kMark = 0,          ///< Free-form annotation (detail = text).
  kEmit,              ///< Sample left a producer (component, a = sequence).
  kDeliver,           ///< Delivery accepted (component = consumer,
                      ///< a = producer, b = sequence).
  kMutation,          ///< Structural graph mutation (a = mutation kind).
  kFailover,          ///< PL failover transition (a = from sink, b = to
                      ///< sink, detail = target name).
  kSanitizerFinding,  ///< A PPS rule fired (detail = rule id).
  kTaskFailed,        ///< An engine task threw (detail = error message).
  kWatermark,         ///< Lane queue crossed its watermark (a = depth).
  kReconfig,          ///< Live-reconfiguration phase (component = victim,
                      ///< a = epoch, detail = phase: staged/committed/
                      ///< rejected/aborted/rolled_back/tee).
};

/// Name of an event type for exports ("emit", "deliver", ...).
std::string_view flight_event_type_name(FlightEventType type) noexcept;

/// One recorded event. Plain data, fixed size, no heap — the ring stores
/// these through atomic words. `detail` is a NUL-terminated, truncated
/// free-text field (rule id, error message, component kind).
struct FlightEvent {
  std::uint64_t t_ns = 0;  ///< Steady-clock ns since the recorder epoch.
                           ///< 0 at record() time = "stamp now".
  std::uint64_t a = 0;     ///< Type-specific (see FlightEventType).
  std::uint64_t b = 0;
  std::uint32_t lane = 0;  ///< Ring index; filled in by record().
  std::uint32_t graph = 0; ///< Graph tag (deployment-assigned).
  std::uint32_t component = 0xffffffffu;
  FlightEventType type = FlightEventType::kMark;
  std::uint8_t pad_[3] = {0, 0, 0};
  char detail[56] = {0};

  /// Truncating NUL-safe setter for `detail`.
  void set_detail(std::string_view text) noexcept {
    const std::size_t n = text.size() < sizeof(detail) - 1
                              ? text.size()
                              : sizeof(detail) - 1;
    std::memcpy(detail, text.data(), n);
    detail[n] = '\0';
  }
};
static_assert(sizeof(FlightEvent) % 8 == 0, "event must pack into words");

class FlightRecorder {
 public:
  /// `lane_capacity` events are retained per lane ring (rounded up to 1).
  explicit FlightRecorder(std::size_t lane_capacity = 1024);
  ~FlightRecorder();

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Register a ring and return its index. Thread-safe; cold path. Ring
  /// addresses are stable for the recorder's lifetime.
  std::uint32_t add_lane(std::string name);

  std::size_t lane_count() const;
  std::string lane_name(std::uint32_t lane) const;
  std::size_t capacity() const noexcept { return capacity_; }

  /// Steady-clock ns since the recorder was constructed.
  std::uint64_t now_ns() const noexcept;

  /// Record `event` into `lane`'s ring. Lock-free, no allocation; safe
  /// against concurrent readers but assumes one producer per lane. An
  /// event with t_ns == 0 is stamped with now_ns() (tests pass explicit
  /// timestamps for determinism). Unknown lanes are dropped silently —
  /// the recorder must never take down the flight it is recording.
  void record(std::uint32_t lane, FlightEvent event) noexcept;

  /// Events overwritten (lost to ring wraparound) on `lane` so far.
  std::uint64_t dropped(std::uint32_t lane) const noexcept;
  /// Events ever recorded on `lane` (including overwritten ones).
  std::uint64_t recorded(std::uint32_t lane) const noexcept;

  // --- Dump ("black box" retrieval) ----------------------------------------

  /// All retained events of every lane, merged into one time-ordered
  /// stream (ties broken by lane id, then by in-lane order, so the merge
  /// is deterministic). Safe to call while lanes are recording; events
  /// being overwritten mid-read are skipped.
  std::vector<FlightEvent> merged_events() const;

  /// JSON dump: {"reason":..,"captured_ns":..,"lanes":[..],"events":[..]}
  /// with events merged time-ordered as in merged_events().
  std::string dump_json(std::string_view reason = {}) const;

  /// Chrome trace_event JSON, tid = lane, viewable in Perfetto /
  /// chrome://tracing. Emits and deliveries are zero-duration slices;
  /// every retained kDeliver (consumer c, producer p, sequence s) is bound
  /// by a flow arrow to the retained kEmit of (p, s) on the same graph
  /// tag, one flow id per (graph, p, s, c), so the arrows follow each
  /// sample's provenance chain. Other events are instants.
  /// `droppedEvents` counts the events lost to ring wraparound.
  std::string dump_chrome_trace() const;

  // --- Triggers -------------------------------------------------------------

  using DumpHandler =
      std::function<void(const std::string& reason, const FlightRecorder&)>;

  /// Install the handler invoked by trigger(); typically writes
  /// dump_json() / dump_chrome_trace() to files. Replaces any previous
  /// handler; nullptr uninstalls.
  void set_dump_handler(DumpHandler handler);

  /// Fire the black-box dump: records a kMark event with the reason into
  /// lane 0 (if any), then invokes the dump handler. Never throws —
  /// handler exceptions are swallowed (the recorder must not add failures
  /// to the failure being recorded). Thread-safe.
  void trigger(std::string_view reason) noexcept;

  /// trigger() invocations so far.
  std::uint64_t triggers() const noexcept;

 private:
  struct Ring;

  /// Lanes beyond this are refused by add_lane (record() to them is a
  /// silent no-op). Bounds the lock-free lane table.
  static constexpr std::size_t kMaxLanes = 1024;

  Ring* ring(std::uint32_t lane) const noexcept;

  const std::size_t capacity_;
  const std::chrono::steady_clock::time_point epoch_;
  mutable std::mutex lanes_mutex_;
  std::vector<std::unique_ptr<Ring>> lanes_;
  /// Lock-free id→ring map for the hot path: slots are published with
  /// release order by add_lane and never change afterwards.
  std::unique_ptr<std::atomic<Ring*>[]> table_;
  std::atomic<std::size_t> lane_count_{0};
  mutable std::mutex handler_mutex_;
  DumpHandler handler_;
  std::atomic<std::uint64_t> triggers_{0};
};

}  // namespace perpos::obs
