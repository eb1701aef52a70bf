#include "trace.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <memory>

namespace perfbench {

namespace {

std::int64_t clock_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::atomic<bool> g_active{false};
std::atomic<std::size_t> g_keep_spans{0};

}  // namespace

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kExec: return "exec.task";
    case Layer::kPsl: return "core.psl";
    case Layer::kPclTree: return "core.pcl.tree";
    case Layer::kPclApply: return "core.pcl.apply";
    case Layer::kPl: return "core.pl.deliver";
    case Layer::kParser: return "nmea.parser";
    case Layer::kInterpreter: return "nmea.interpreter";
    case Layer::kSatFilter: return "fusion.satfilter";
    case Layer::kParticle: return "fusion.particle";
    case Layer::kPositioner: return "wifi.positioner";
    case Layer::kResolver: return "locmodel.resolver";
    case Layer::kEgress: return "runtime.egress";
    case Layer::kIngress: return "runtime.ingress";
    case Layer::kAck: return "health.ack";
    case Layer::kSource: return "source";
    case Layer::kCount: break;
  }
  return "?";
}

void LayerTotals::merge(const LayerTotals& other) {
  for (std::size_t i = 0; i < self_ns.size(); ++i) {
    self_ns[i] += other.self_ns[i];
    calls[i] += other.calls[i];
  }
  root_ns += other.root_ns;
  roots += other.roots;
  push_ns += other.push_ns;
  pushes += other.pushes;
  hop_ns += other.hop_ns;
  hops += other.hops;
  first_push_after_mark_ns += other.first_push_after_mark_ns;
  first_pushes_after_mark += other.first_pushes_after_mark;
}

/// Per-thread recording state. Buffers are registered once and live for
/// the process, so a traced phase can be merged after its worker threads
/// went idle (or exited).
struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Event> events;
  std::uint64_t sample = 0;
  std::uint64_t next_span = 1;
  bool open = false;
  bool first_after_mark = false;
  LayerTotals totals;
  std::vector<Span> spans;
  std::size_t keep = 0;

  void close();
};

namespace {

std::mutex g_registry_mutex;
std::vector<std::unique_ptr<ThreadBuffer>>& registry() {
  static std::vector<std::unique_ptr<ThreadBuffer>> buffers;
  return buffers;
}
thread_local ThreadBuffer* tl_buffer = nullptr;

ThreadBuffer& buffer() {
  if (tl_buffer == nullptr) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    auto owned = std::make_unique<ThreadBuffer>();
    owned->thread = static_cast<std::uint32_t>(registry().size());
    owned->events.reserve(256);
    owned->keep = g_keep_spans.load(std::memory_order_relaxed);
    tl_buffer = owned.get();
    registry().push_back(std::move(owned));
  }
  return *tl_buffer;
}

Layer bucket_of(const Event& e, const Event& next) {
  switch (e.kind) {
    case Ev::kRootBegin:
    case Ev::kRootEnd:
    case Ev::kPushEnd: return Layer::kExec;
    case Ev::kPushBegin:
    case Ev::kApplyPost: return Layer::kPsl;
    case Ev::kConsume: return e.layer;
    case Ev::kProduce:
      // Further produce hooks of the same host (feature hooks adding data)
      // are still the host's own production work.
      if (next.kind == Ev::kProduce && next.layer == e.layer) return e.layer;
      if (next.kind == Ev::kApplyPre) return Layer::kPclTree;
      return Layer::kPsl;
    case Ev::kApplyPre: return Layer::kPclApply;
    case Ev::kListener: return Layer::kPl;
    case Ev::kIngressBegin: return Layer::kIngress;
    case Ev::kAckBegin: return Layer::kAck;
  }
  return Layer::kExec;
}

}  // namespace

void ThreadBuffer::close() {
  open = false;
  if (events.size() < 2) return;
  const std::uint64_t root_id = (std::uint64_t{thread} << 40) | next_span++;
  std::uint64_t push_id = 0;
  std::int64_t push_start = 0;
  const bool keep_spans = spans.size() < keep;
  for (std::size_t i = 0; i + 1 < events.size(); ++i) {
    const Event& e = events[i];
    const Event& next = events[i + 1];
    const double d = static_cast<double>(next.t_ns - e.t_ns);
    const Layer bucket = bucket_of(e, next);
    totals.self_ns[static_cast<std::size_t>(bucket)] += d;
    switch (e.kind) {
      case Ev::kConsume:
      case Ev::kIngressBegin:
      case Ev::kAckBegin:
        ++totals.calls[static_cast<std::size_t>(bucket)];
        break;
      case Ev::kApplyPre:
        ++totals.calls[static_cast<std::size_t>(Layer::kPclApply)];
        ++totals.calls[static_cast<std::size_t>(Layer::kPclTree)];
        break;
      case Ev::kProduce:
        if (next.kind == Ev::kConsume) {
          totals.hop_ns += d;
          ++totals.hops;
        }
        break;
      case Ev::kPushBegin:
        push_start = e.t_ns;
        push_id = (std::uint64_t{thread} << 40) | next_span++;
        break;
      default:
        break;
    }
    if (next.kind == Ev::kPushEnd && push_id != 0) {
      const double push = static_cast<double>(next.t_ns - push_start);
      totals.push_ns += push;
      ++totals.pushes;
      if (first_after_mark) {
        totals.first_push_after_mark_ns += push;
        ++totals.first_pushes_after_mark;
      }
      if (keep_spans) {
        spans.push_back(Span{sample, push_id, root_id, push_start, next.t_ns,
                             Layer::kPsl, false, true, thread});
      }
    }
    // Child spans: every non-dispatch interval, under the open push (or
    // the root). PSL dispatch is the push span's self time and exec the
    // root's, so they get no span of their own.
    if (keep_spans && bucket != Layer::kPsl && bucket != Layer::kExec) {
      const std::uint64_t parent = push_id != 0 ? push_id : root_id;
      spans.push_back(Span{sample, (std::uint64_t{thread} << 40) | next_span++,
                           parent, e.t_ns, next.t_ns, bucket, false, false,
                           thread});
    }
    if (next.kind == Ev::kPushEnd) push_id = 0;
  }
  totals.root_ns +=
      static_cast<double>(events.back().t_ns - events.front().t_ns);
  ++totals.roots;
  if (keep_spans) {
    spans.push_back(Span{sample, root_id, 0, events.front().t_ns,
                         events.back().t_ns, Layer::kExec, true, false,
                         thread});
  }
}

Tracer& tracer() {
  static Tracer instance;
  return instance;
}

void Tracer::start(std::size_t keep_spans) {
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& b : registry()) {
    b->totals = LayerTotals{};
    b->spans.clear();
    b->keep = keep_spans;
    b->open = false;
  }
  totals_ = LayerTotals{};
  spans_.clear();
  keep_spans_ = keep_spans;
  g_keep_spans.store(keep_spans, std::memory_order_relaxed);
  g_active.store(true, std::memory_order_release);
}

LayerTotals Tracer::stop() {
  g_active.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> lock(g_registry_mutex);
  for (auto& b : registry()) {
    totals_.merge(b->totals);
    for (Span& s : b->spans) {
      if (spans_.size() >= keep_spans_) break;
      spans_.push_back(s);
    }
    b->totals = LayerTotals{};
    b->spans.clear();
  }
  return totals_;
}

void Tracer::begin_root(std::uint64_t sample, bool first_after_mark) {
  if (!g_active.load(std::memory_order_relaxed)) return;
  ThreadBuffer& b = buffer();
  b.events.clear();
  b.sample = sample;
  b.first_after_mark = first_after_mark;
  b.open = true;
  b.events.push_back(Event{clock_ns(), Ev::kRootBegin, Layer::kExec});
}

void Tracer::end_root() {
  ThreadBuffer* b = tl_buffer;
  if (b == nullptr || !b->open) return;
  b->events.push_back(Event{clock_ns(), Ev::kRootEnd, Layer::kExec});
  b->close();
}

void Tracer::record(Ev kind, Layer layer) {
  ThreadBuffer* b = tl_buffer;
  if (b == nullptr || !b->open) return;
  b->events.push_back(Event{clock_ns(), kind, layer});
}

bool ProbeFeature::consume(perpos::core::Sample&) {
  Tracer::record(Ev::kConsume, layer_);
  return true;
}

bool ProbeFeature::produce(perpos::core::Sample&) {
  Tracer::record(Ev::kProduce, layer_);
  return true;
}

void ChannelProbe::apply(const perpos::core::DataTree&) {
  Tracer::record(before_ ? Ev::kApplyPre : Ev::kApplyPost);
}

void report_layers(Report& report, const LayerTotals& totals,
                   std::uint64_t samples) {
  const auto per = [](double total, std::uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto self_per_call = [&](Layer layer, double scale) {
    const auto i = static_cast<std::size_t>(layer);
    return per(totals.self_ns[i], totals.calls[i]) * scale;
  };
  report.metric("core.psl.hop_ns", per(totals.hop_ns, totals.hops), "ns");
  report.metric("core.psl.push_ns", per(totals.push_ns, totals.pushes), "ns");
  report.metric("core.pcl.tree_ns", self_per_call(Layer::kPclTree, 1.0), "ns");
  report.metric("core.pcl.apply_ns", self_per_call(Layer::kPclApply, 1.0), "ns");
  report.metric("core.pl.deliver_ns", self_per_call(Layer::kPl, 1.0), "ns");
  report.metric("nmea.parser_ns", self_per_call(Layer::kParser, 1.0), "ns");
  report.metric("nmea.interpreter_ns", self_per_call(Layer::kInterpreter, 1.0),
                "ns");
  report.metric("fusion.satfilter_ns", self_per_call(Layer::kSatFilter, 1.0),
                "ns");
  report.metric("fusion.particle_ns", self_per_call(Layer::kParticle, 1.0), "ns");
  report.metric("wifi.positioner_us", self_per_call(Layer::kPositioner, 1e-3),
                "us");
  report.metric("locmodel.resolver_ns", self_per_call(Layer::kResolver, 1.0),
                "ns");
  report.metric("runtime.egress_ns", self_per_call(Layer::kEgress, 1.0), "ns");
  report.metric("runtime.ingress_ns", self_per_call(Layer::kIngress, 1.0), "ns");
  report.metric("exec.task_ns", per(totals.root_ns, totals.roots), "ns");
  // The ledger: every layer's self time per ingress sample. The rows sum
  // to the traced per-sample time by construction of the attribution; the
  // check below catches any event sequence that breaks it.
  double self_sum = 0.0;
  for (std::size_t i = 0; i < totals.self_ns.size(); ++i) {
    const auto layer = static_cast<Layer>(i);
    if (layer == Layer::kSource) continue;  // Never owns an interval.
    self_sum += totals.self_ns[i];
    report.metric(std::string("ledger.") + layer_name(layer) + "_ns",
                  per(totals.self_ns[i], samples), "ns");
  }
  report.metric("trace.sample_ns", per(totals.root_ns, samples), "ns");
  report.metric("trace.self_sum_frac",
                totals.root_ns > 0 ? self_sum / totals.root_ns : 0.0, "ratio");
  if (totals.root_ns > 0 && std::abs(self_sum / totals.root_ns - 1.0) > 0.01) {
    report.problem("trace: layer self times do not sum to the traced time");
  }
}

bool write_spans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = 0;
  for (const Span& s : spans) {
    if (origin == 0 || s.start_ns < origin) origin = s.start_ns;
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans) {
    const char* name = s.is_root   ? "root"
                       : s.is_push ? "core.psl.push"
                                   : layer_name(s.layer);
    out << (first ? "\n" : ",\n") << "{\"name\":\"" << name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.thread
        << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1000.0
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"sample\":" << s.sample << "}}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
