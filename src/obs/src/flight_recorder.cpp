#include "perpos/obs/flight_recorder.hpp"

#include "perpos/obs/metrics.hpp"  // escape_json

#include <algorithm>
#include <iomanip>
#include <map>
#include <sstream>
#include <tuple>
#include <type_traits>

namespace perpos::obs {

namespace {

constexpr std::size_t kEventWords = sizeof(FlightEvent) / 8;

/// Pack a FlightEvent into u64 words (and back) so ring slots can store
/// the payload through relaxed atomics — torn reads become detectable
/// seqlock retries instead of undefined behaviour.
void pack(const FlightEvent& event, std::uint64_t* words) noexcept {
  std::memcpy(words, &event, sizeof(FlightEvent));
}

void unpack(const std::uint64_t* words, FlightEvent& event) noexcept {
  static_assert(std::is_trivially_copyable_v<FlightEvent>);
  std::memcpy(static_cast<void*>(&event), words, sizeof(FlightEvent));
}

}  // namespace

std::string_view flight_event_type_name(FlightEventType type) noexcept {
  switch (type) {
    case FlightEventType::kMark: return "mark";
    case FlightEventType::kEmit: return "emit";
    case FlightEventType::kDeliver: return "deliver";
    case FlightEventType::kMutation: return "mutation";
    case FlightEventType::kFailover: return "failover";
    case FlightEventType::kSanitizerFinding: return "sanitizer_finding";
    case FlightEventType::kTaskFailed: return "task_failed";
    case FlightEventType::kWatermark: return "watermark";
    case FlightEventType::kReconfig: return "reconfig";
  }
  return "unknown";
}

/// One per-lane ring. `head` counts events ever written; slot i of event n
/// is n % capacity. Each slot carries a seqlock: the sequence is odd while
/// the (single) writer rewrites the payload words, and 2*(n+1) once event
/// n is stable — readers who see matching even sequences before and after
/// copying the words hold a consistent event.
struct FlightRecorder::Ring {
  explicit Ring(std::string n, std::size_t capacity)
      : name(std::move(n)), slots(capacity) {}

  struct Slot {
    std::atomic<std::uint64_t> seq{0};
    std::atomic<std::uint64_t> words[kEventWords] = {};
  };

  const std::string name;
  std::vector<Slot> slots;
  std::atomic<std::uint64_t> head{0};

  void write(const FlightEvent& event) noexcept {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h % slots.size()];
    slot.seq.store(2 * h + 1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_release);
    std::uint64_t words[kEventWords];
    pack(event, words);
    for (std::size_t w = 0; w < kEventWords; ++w) {
      slot.words[w].store(words[w], std::memory_order_relaxed);
    }
    slot.seq.store(2 * (h + 1), std::memory_order_release);
    head.store(h + 1, std::memory_order_release);
  }

  /// Copy the retained events, oldest first, skipping slots caught
  /// mid-rewrite. `base` receives the index of the oldest returned event.
  std::vector<FlightEvent> read() const {
    std::vector<FlightEvent> out;
    const std::uint64_t h = head.load(std::memory_order_acquire);
    const std::uint64_t cap = slots.size();
    const std::uint64_t first = h > cap ? h - cap : 0;
    out.reserve(static_cast<std::size_t>(h - first));
    for (std::uint64_t n = first; n < h; ++n) {
      const Slot& slot = slots[n % cap];
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 != 2 * (n + 1)) continue;  // Overwritten or being rewritten.
      std::uint64_t words[kEventWords];
      for (std::size_t w = 0; w < kEventWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;
      FlightEvent event;
      unpack(words, event);
      out.push_back(event);
    }
    return out;
  }
};

FlightRecorder::FlightRecorder(std::size_t lane_capacity)
    : capacity_(lane_capacity == 0 ? 1 : lane_capacity),
      epoch_(std::chrono::steady_clock::now()),
      table_(new std::atomic<Ring*>[kMaxLanes]) {
  for (std::size_t i = 0; i < kMaxLanes; ++i) {
    table_[i].store(nullptr, std::memory_order_relaxed);
  }
}

FlightRecorder::~FlightRecorder() = default;

std::uint32_t FlightRecorder::add_lane(std::string name) {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  if (lanes_.size() >= kMaxLanes) {
    // Refused lanes alias to an id record() treats as unknown.
    return static_cast<std::uint32_t>(kMaxLanes);
  }
  lanes_.push_back(std::make_unique<Ring>(std::move(name), capacity_));
  const auto id = static_cast<std::uint32_t>(lanes_.size() - 1);
  table_[id].store(lanes_.back().get(), std::memory_order_release);
  lane_count_.store(lanes_.size(), std::memory_order_release);
  return id;
}

std::size_t FlightRecorder::lane_count() const {
  return lane_count_.load(std::memory_order_acquire);
}

std::string FlightRecorder::lane_name(std::uint32_t lane) const {
  std::lock_guard<std::mutex> lock(lanes_mutex_);
  return lane < lanes_.size() ? lanes_[lane]->name : std::string();
}

FlightRecorder::Ring* FlightRecorder::ring(std::uint32_t lane) const noexcept {
  // Lock-free: rings have stable addresses, and table_ slots go from
  // nullptr to their final value exactly once (published with release
  // order by add_lane).
  if (lane >= kMaxLanes) return nullptr;
  return table_[lane].load(std::memory_order_acquire);
}

std::uint64_t FlightRecorder::now_ns() const noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void FlightRecorder::record(std::uint32_t lane, FlightEvent event) noexcept {
  Ring* r = ring(lane);
  if (r == nullptr) return;
  event.lane = lane;
  if (event.t_ns == 0) event.t_ns = now_ns();
  r->write(event);
}

std::uint64_t FlightRecorder::dropped(std::uint32_t lane) const noexcept {
  const Ring* r = ring(lane);
  if (r == nullptr) return 0;
  const std::uint64_t h = r->head.load(std::memory_order_acquire);
  return h > capacity_ ? h - capacity_ : 0;
}

std::uint64_t FlightRecorder::recorded(std::uint32_t lane) const noexcept {
  const Ring* r = ring(lane);
  return r == nullptr ? 0 : r->head.load(std::memory_order_acquire);
}

std::vector<FlightEvent> FlightRecorder::merged_events() const {
  std::vector<std::vector<FlightEvent>> per_lane;
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    per_lane.reserve(lanes_.size());
    for (const auto& r : lanes_) per_lane.push_back(r->read());
  }
  std::vector<FlightEvent> merged;
  std::size_t total = 0;
  for (const auto& v : per_lane) total += v.size();
  merged.reserve(total);
  for (const auto& v : per_lane) {
    merged.insert(merged.end(), v.begin(), v.end());
  }
  // Deterministic merge: time-ordered; ties by lane then by the in-lane
  // order the stable sort preserves.
  std::stable_sort(merged.begin(), merged.end(),
                   [](const FlightEvent& x, const FlightEvent& y) {
                     if (x.t_ns != y.t_ns) return x.t_ns < y.t_ns;
                     return x.lane < y.lane;
                   });
  return merged;
}

std::string FlightRecorder::dump_json(std::string_view reason) const {
  const std::vector<FlightEvent> events = merged_events();
  std::ostringstream out;
  out << "{\"reason\":\"" << escape_json(reason) << "\",\"captured_ns\":"
      << now_ns() << ",\"lane_capacity\":" << capacity_ << ",\"lanes\":[";
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (i) out << ",";
      const std::uint64_t head =
          lanes_[i]->head.load(std::memory_order_acquire);
      out << "{\"id\":" << i << ",\"name\":\"" << escape_json(lanes_[i]->name)
          << "\",\"recorded\":" << head << ",\"dropped\":"
          << (head > capacity_ ? head - capacity_ : 0) << "}";
    }
  }
  out << "],\"events\":[";
  for (std::size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i) out << ",";
    out << "{\"t_ns\":" << e.t_ns << ",\"lane\":" << e.lane << ",\"type\":\""
        << flight_event_type_name(e.type) << "\",\"graph\":" << e.graph
        << ",\"component\":";
    if (e.component == 0xffffffffu) {
      out << "null";
    } else {
      out << e.component;
    }
    out << ",\"a\":" << e.a << ",\"b\":" << e.b << ",\"detail\":\""
        << escape_json(e.detail) << "\"}";
  }
  out << "]}";
  return out.str();
}

std::string FlightRecorder::dump_chrome_trace() const {
  const std::vector<FlightEvent> events = merged_events();
  // Retained emissions by (graph, producer, sequence): where each
  // delivery's flow arrow starts.
  std::map<std::tuple<std::uint32_t, std::uint64_t, std::uint64_t>,
           const FlightEvent*>
      emits;
  for (const FlightEvent& e : events) {
    if (e.type == FlightEventType::kEmit) {
      emits.emplace(std::make_tuple(e.graph, std::uint64_t{e.component}, e.a),
                    &e);
    }
  }
  std::ostringstream out;
  out << std::fixed << std::setprecision(3);
  const auto ts = [](const FlightEvent& e) {
    return static_cast<double>(e.t_ns) / 1000.0;
  };
  out << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t dropped_events = 0;
  {
    std::lock_guard<std::mutex> lock(lanes_mutex_);
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (!first) out << ",";
      first = false;
      out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << i
          << ",\"args\":{\"name\":\"lane " << escape_json(lanes_[i]->name)
          << "\"}}";
      dropped_events += dropped(static_cast<std::uint32_t>(i));
    }
  }
  std::uint64_t next_flow = 1;
  for (const FlightEvent& e : events) {
    if (!first) out << ",";
    first = false;
    const bool slice = e.type == FlightEventType::kEmit ||
                       e.type == FlightEventType::kDeliver;
    out << "{\"name\":\"" << flight_event_type_name(e.type);
    if (e.detail[0] != '\0') out << ": " << escape_json(e.detail);
    out << (slice ? "\",\"ph\":\"X\",\"dur\":0" : "\",\"ph\":\"i\",\"s\":\"t\"")
        << ",\"pid\":1,\"tid\":" << e.lane << ",\"ts\":" << ts(e)
        << ",\"args\":{\"graph\":" << e.graph << ",\"component\":"
        << e.component << ",\"a\":" << e.a << ",\"b\":" << e.b << "}}";
    if (e.type != FlightEventType::kDeliver) continue;
    const auto it = emits.find(std::make_tuple(e.graph, e.a, e.b));
    if (it == emits.end()) continue;  // Emission lost to wraparound.
    const FlightEvent& from = *it->second;
    const std::uint64_t id = next_flow++;
    out << ",{\"name\":\"sample\",\"cat\":\"flow\",\"ph\":\"s\",\"id\":" << id
        << ",\"pid\":1,\"tid\":" << from.lane << ",\"ts\":" << ts(from)
        << "},{\"name\":\"sample\",\"cat\":\"flow\",\"ph\":\"f\",\"bp\":\"e\","
           "\"id\":"
        << id << ",\"pid\":1,\"tid\":" << e.lane << ",\"ts\":" << ts(e)
        << "}";
  }
  out << "],\"droppedEvents\":" << dropped_events << "}";
  return out.str();
}

void FlightRecorder::set_dump_handler(DumpHandler handler) {
  std::lock_guard<std::mutex> lock(handler_mutex_);
  handler_ = std::move(handler);
}

void FlightRecorder::trigger(std::string_view reason) noexcept {
  triggers_.fetch_add(1, std::memory_order_relaxed);
  if (lane_count() > 0) {
    FlightEvent mark;
    mark.type = FlightEventType::kMark;
    mark.set_detail(reason);
    record(0, mark);
  }
  DumpHandler handler;
  {
    std::lock_guard<std::mutex> lock(handler_mutex_);
    handler = handler_;
  }
  if (!handler) return;
  try {
    handler(std::string(reason), *this);
  } catch (...) {
    // A failing dump must not escalate the failure being dumped.
  }
}

std::uint64_t FlightRecorder::triggers() const noexcept {
  return triggers_.load(std::memory_order_relaxed);
}

}  // namespace perpos::obs
