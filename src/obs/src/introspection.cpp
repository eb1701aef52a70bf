#include "perpos/obs/introspection.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

namespace perpos::obs {

namespace {

const std::string* label_value(const Labels& labels, std::string_view key) {
  for (const auto& [k, v] : labels) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string fixed(double v, int decimals = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

/// Right-pad or truncate to `width` for dashboard columns.
std::string pad(std::string s, std::size_t width) {
  if (s.size() > width) {
    s.resize(width > 1 ? width - 1 : width);
    if (width > 1) s += "~";
  }
  while (s.size() < width) s += ' ';
  return s;
}

}  // namespace

GraphIntrospection graph_introspection(std::string name,
                                       const MetricsSnapshot& metrics,
                                       std::size_t top_k) {
  GraphIntrospection out;
  out.name = std::move(name);
  if (const CounterSnapshot* c =
          metrics.find_counter("perpos_graph_deliveries_total")) {
    out.deliveries = c->value;
  }
  if (const CounterSnapshot* c =
          metrics.find_counter("perpos_graph_rejections_total")) {
    out.rejections = c->value;
  }
  if (const GaugeSnapshot* g = metrics.find_gauge("perpos_graph_components")) {
    out.components = static_cast<std::uint64_t>(g->value);
  }
  for (const HistogramSnapshot& h : metrics.histograms) {
    if (h.name != "perpos_component_on_input_us" || h.count == 0) continue;
    ComponentSelfTime entry;
    if (const std::string* kind = label_value(h.labels, "kind")) {
      entry.kind = *kind;
    }
    if (const std::string* id = label_value(h.labels, "component")) {
      entry.component = static_cast<std::uint32_t>(std::stoul(*id));
    }
    entry.total_us = h.sum;
    entry.count = h.count;
    out.top_self_time.push_back(std::move(entry));
  }
  std::stable_sort(out.top_self_time.begin(), out.top_self_time.end(),
                   [](const ComponentSelfTime& a, const ComponentSelfTime& b) {
                     return a.total_us > b.total_us;
                   });
  if (out.top_self_time.size() > top_k) out.top_self_time.resize(top_k);
  return out;
}

std::string to_json(const IntrospectionSnapshot& snapshot) {
  std::ostringstream out;
  out << "{\"captured_us\":" << fixed(snapshot.captured_us, 3)
      << ",\"workers\":" << snapshot.workers
      << ",\"tasks_posted\":" << snapshot.tasks_posted
      << ",\"tasks_executed\":" << snapshot.tasks_executed
      << ",\"tasks_failed\":" << snapshot.tasks_failed << ",\"lanes\":[";
  for (std::size_t i = 0; i < snapshot.lanes.size(); ++i) {
    const LaneIntrospection& l = snapshot.lanes[i];
    if (i) out << ",";
    out << "{\"name\":\"" << escape_json(l.name)
        << "\",\"queue_depth\":" << l.queue_depth
        << ",\"active\":" << (l.active ? "true" : "false")
        << ",\"tasks\":" << l.tasks << ",\"busy_us\":" << fixed(l.busy_us, 1)
        << ",\"queue_peak\":" << l.queue_peak << "}";
  }
  out << "],\"worker_stats\":[";
  for (std::size_t i = 0; i < snapshot.worker_stats.size(); ++i) {
    const WorkerIntrospection& w = snapshot.worker_stats[i];
    if (i) out << ",";
    out << "{\"tasks\":" << w.tasks << ",\"busy_us\":" << fixed(w.busy_us, 1)
        << ",\"drains\":" << w.drains
        << ",\"idle_wakeups\":" << w.idle_wakeups
        << ",\"utilization\":" << fixed(w.utilization, 4) << "}";
  }
  out << "],\"graphs\":[";
  for (std::size_t i = 0; i < snapshot.graphs.size(); ++i) {
    const GraphIntrospection& g = snapshot.graphs[i];
    if (i) out << ",";
    out << "{\"name\":\"" << escape_json(g.name)
        << "\",\"deliveries\":" << g.deliveries
        << ",\"rejections\":" << g.rejections
        << ",\"components\":" << g.components << ",\"top_self_time\":[";
    for (std::size_t k = 0; k < g.top_self_time.size(); ++k) {
      const ComponentSelfTime& c = g.top_self_time[k];
      if (k) out << ",";
      out << "{\"kind\":\"" << escape_json(c.kind)
          << "\",\"component\":" << c.component
          << ",\"total_us\":" << fixed(c.total_us, 1)
          << ",\"count\":" << c.count << "}";
    }
    out << "],\"health\":[";
    for (std::size_t k = 0; k < g.health.size(); ++k) {
      if (k) out << ",";
      out << "\"" << escape_json(g.health[k]) << "\"";
    }
    out << "]}";
  }
  out << "]}";
  return out.str();
}

std::string render_dashboard(const IntrospectionSnapshot& now,
                             const IntrospectionSnapshot* prev,
                             std::size_t top_k) {
  std::ostringstream out;
  const double dt_s =
      prev != nullptr && now.captured_us > prev->captured_us
          ? (now.captured_us - prev->captured_us) / 1e6
          : 0.0;

  out << "perpos-top — " << now.workers << " worker"
      << (now.workers == 1 ? "" : "s") << ", " << now.lanes.size() << " lane"
      << (now.lanes.size() == 1 ? "" : "s") << ", " << now.graphs.size()
      << " graph" << (now.graphs.size() == 1 ? "" : "s") << "\n";
  out << "tasks: posted " << now.tasks_posted << "  executed "
      << now.tasks_executed << "  failed " << now.tasks_failed;
  if (dt_s > 0.0 && now.tasks_executed >= prev->tasks_executed) {
    out << "  ("
        << fixed(static_cast<double>(now.tasks_executed -
                                     prev->tasks_executed) /
                     dt_s,
                 0)
        << "/s)";
  }
  out << "\n\n";

  out << pad("LANE", 18) << pad("DEPTH", 7) << pad("PEAK", 7)
      << pad("TASKS", 10) << pad("DRAIN/S", 9) << pad("BUSY_MS", 9)
      << "ACTIVE\n";
  for (const LaneIntrospection& l : now.lanes) {
    double rate = 0.0;
    if (dt_s > 0.0) {
      for (const LaneIntrospection& p : prev->lanes) {
        if (p.name == l.name && l.tasks >= p.tasks) {
          rate = static_cast<double>(l.tasks - p.tasks) / dt_s;
          break;
        }
      }
    }
    out << pad(l.name, 18) << pad(std::to_string(l.queue_depth), 7)
        << pad(std::to_string(l.queue_peak), 7)
        << pad(std::to_string(l.tasks), 10) << pad(fixed(rate, 0), 9)
        << pad(fixed(l.busy_us / 1000.0, 1), 9) << (l.active ? "*" : "-")
        << "\n";
  }

  if (!now.worker_stats.empty()) {
    out << "\n" << pad("WORKER", 10) << pad("TASKS", 10) << pad("BUSY_MS", 9)
        << pad("DRAINS", 9) << pad("WAKEUPS", 9) << "UTIL%\n";
    for (std::size_t i = 0; i < now.worker_stats.size(); ++i) {
      const WorkerIntrospection& w = now.worker_stats[i];
      const bool is_inline = i + 1 == now.worker_stats.size();
      if (is_inline && w.tasks == 0) continue;  // Unused inline slot.
      out << pad(is_inline ? "inline" : std::to_string(i), 10)
          << pad(std::to_string(w.tasks), 10)
          << pad(fixed(w.busy_us / 1000.0, 1), 9)
          << pad(std::to_string(w.drains), 9)
          << pad(std::to_string(w.idle_wakeups), 9)
          << fixed(w.utilization * 100.0, 1) << "\n";
    }
  }

  for (const GraphIntrospection& g : now.graphs) {
    out << "\n" << g.name << ": "
        << g.components << " components, " << g.deliveries << " deliveries";
    if (dt_s > 0.0) {
      for (const GraphIntrospection& p : prev->graphs) {
        if (p.name == g.name && g.deliveries >= p.deliveries) {
          out << " ("
              << fixed(static_cast<double>(g.deliveries - p.deliveries) /
                           dt_s,
                       0)
              << "/s)";
          break;
        }
      }
    }
    if (g.rejections != 0) out << ", " << g.rejections << " rejected";
    out << "\n";
    for (const std::string& h : g.health) {
      out << "  health: " << h << "\n";
    }
    const std::size_t n = std::min(top_k, g.top_self_time.size());
    for (std::size_t k = 0; k < n; ++k) {
      const ComponentSelfTime& c = g.top_self_time[k];
      out << "  " << pad(c.kind + "#" + std::to_string(c.component), 24)
          << pad(fixed(c.total_us / 1000.0, 2) + "ms", 12) << c.count
          << " inputs\n";
    }
  }
  return out.str();
}

}  // namespace perpos::obs
