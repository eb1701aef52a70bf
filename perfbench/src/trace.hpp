#pragma once

// Bench-owned tracing: probes placed around the public PerPos layers record
// timestamped boundary events into per-thread buffers. A root span (one
// engine task, one replayed push, one remoted delivery) is the unit of
// attribution: every interval between two consecutive events of a root is
// charged to exactly one layer, so a layer's self time is its spans minus
// their children and the layers of a root sum to the root's duration.
//
// Nothing here runs unless a root is open on the calling thread, so the
// probes cost one thread-local load when tracing is idle.

#include "common.hpp"
#include "perpos/core/channel.hpp"
#include "perpos/core/feature.hpp"

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Attribution buckets — the per-layer rows of the ledger.
enum class Layer : std::uint8_t {
  kExec,         ///< Engine task wrapper outside the graph call.
  kPsl,          ///< PSL dispatch: emit entry, hooks, accept, provenance, hop.
  kPclTree,      ///< Channel adapter: data-tree build before the first apply.
  kPclApply,     ///< The real Channel Feature's apply().
  kPl,           ///< Sink consume hook -> provider listener (and its return).
  kParser,
  kInterpreter,
  kSatFilter,
  kParticle,
  kPositioner,
  kResolver,
  kEgress,       ///< Remote egress on_input (codec + link send).
  kIngress,      ///< Wrapped deliver_at_to before the cascade starts.
  kAck,          ///< Wrapped deliver_at_from (reliable-link ack handling).
  kSource,       ///< Source component (no self work; holds its produce mark).
  kCount,
};

const char* layer_name(Layer layer);

/// Event kinds a probe can record.
enum class Ev : std::uint8_t {
  kRootBegin,
  kRootEnd,
  kPushBegin,
  kPushEnd,
  kConsume,
  kProduce,
  kApplyPre,
  kApplyPost,
  kListener,
  kIngressBegin,
  kAckBegin,
};

struct Event {
  std::int64_t t_ns = 0;
  Ev kind = Ev::kRootBegin;
  Layer layer = Layer::kExec;
};

/// Aggregates of one thread (merged at the end of a traced phase).
struct LayerTotals {
  std::array<double, static_cast<std::size_t>(Layer::kCount)> self_ns{};
  std::array<std::uint64_t, static_cast<std::size_t>(Layer::kCount)> calls{};
  double root_ns = 0.0;
  std::uint64_t roots = 0;
  double push_ns = 0.0;
  std::uint64_t pushes = 0;
  double hop_ns = 0.0;  ///< produce -> downstream consume intervals.
  std::uint64_t hops = 0;
  double first_push_after_mark_ns = 0.0;  ///< See Tracer::begin_root.
  std::uint64_t first_pushes_after_mark = 0;

  void merge(const LayerTotals& other);
};

/// One recorded span for the trace file.
struct Span {
  std::uint64_t sample = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  Layer layer = Layer::kExec;
  bool is_root = false;
  bool is_push = false;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  /// Start collecting: roots opened from now on are recorded. Clears
  /// earlier aggregates. `keep_spans` caps the spans kept for the file.
  void start(std::size_t keep_spans);
  /// Stop collecting; returns the merged aggregates.
  LayerTotals stop();

  /// Spans kept for the trace file (valid after stop()).
  const std::vector<Span>& spans() const noexcept { return spans_; }

  // --- Root spans (called by the bench around calls into PerPos) ----------
  /// Open a root on this thread; `first_after_mark` flags the first push
  /// into a graph after a reconfiguration.
  static void begin_root(std::uint64_t sample, bool first_after_mark = false);
  static void end_root();
  /// Record one event (probes call this).
  static void record(Ev kind, Layer layer = Layer::kExec);

 private:
  LayerTotals totals_;
  std::vector<Span> spans_;
  std::size_t keep_spans_ = 0;
};

/// The process-wide tracer.
Tracer& tracer();

/// Component Feature probe: marks consume/produce of its host.
class ProbeFeature final : public perpos::core::ComponentFeature {
 public:
  explicit ProbeFeature(Layer layer) : layer_(layer) {}
  std::string_view name() const override { return "perfbench.probe"; }
  bool consume(perpos::core::Sample& sample) override;
  bool produce(perpos::core::Sample& sample) override;

 private:
  Layer layer_;
};

/// Channel Feature probe attached before/after the real feature(s).
class ChannelProbe final : public perpos::core::ChannelFeature {
 public:
  explicit ChannelProbe(bool before) : before_(before) {}
  std::string_view name() const override {
    return before_ ? "perfbench.pcl.pre" : "perfbench.pcl.post";
  }
  void apply(const perpos::core::DataTree& tree) override;

 private:
  bool before_;
};

/// Per-layer self times (per call and per ingress sample), root time per
/// sample and the self-time sum check, from the totals of a traced phase
/// that processed `samples` ingress samples.
void report_layers(Report& report, const LayerTotals& totals,
                   std::uint64_t samples);

/// Write kept spans as a Chrome trace_event JSON file.
bool write_spans(const std::string& path, const std::vector<Span>& spans);

}  // namespace perfbench
