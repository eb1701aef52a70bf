#include "perpos/runtime/config.hpp"

#include <sstream>
#include <stdexcept>

namespace perpos::runtime {

void ComponentFactoryRegistry::register_kind(std::string kind,
                                             Factory factory) {
  if (!factory) throw std::invalid_argument("null factory for " + kind);
  const auto [it, inserted] =
      factories_.emplace(std::move(kind), std::move(factory));
  if (!inserted) {
    throw std::invalid_argument("kind '" + it->first +
                                "' already registered");
  }
}

std::shared_ptr<core::ProcessingComponent> ComponentFactoryRegistry::create(
    const std::string& kind, const std::vector<std::string>& args) const {
  const auto it = factories_.find(kind);
  if (it == factories_.end()) {
    throw std::invalid_argument("unknown component kind '" + kind + "'");
  }
  return it->second(args);
}

std::vector<std::string> ComponentFactoryRegistry::kinds() const {
  std::vector<std::string> out;
  for (const auto& [kind, factory] : factories_) out.push_back(kind);
  return out;
}

ConfigResult assemble_from_config(const std::string& text,
                                  const ComponentFactoryRegistry& registry,
                                  core::ProcessingGraph& graph) {
  ConfigResult result;
  std::map<std::string, core::ComponentId> names;
  bool want_resolve = false;

  std::istringstream in(text);
  std::string line;
  std::size_t line_no = 0;
  const auto fail = [&](const std::string& message) {
    result.errors.push_back("line " + std::to_string(line_no) + ": " +
                            message);
  };

  // Pass 1: instantiate components and record directives.
  struct Edge {
    std::size_t line = 0;
    std::string producer;
    std::string consumer;
  };
  std::vector<Edge> edges;
  // `host` and `lane` share one shape: a label plus the components pinned
  // to it, resolved after pass 1 so the line may precede its members.
  struct GroupDecl {
    std::size_t line = 0;
    std::string label;
    std::vector<std::string> members;
  };
  std::vector<GroupDecl> host_decls;
  std::vector<GroupDecl> lane_decls;
  // `budget <name>` annotations resolve against the full name set too, so
  // the line may precede its component. Key/value parsing (and its
  // errors) still happens at the declaring line.
  struct BudgetDecl {
    std::size_t line = 0;
    std::string name;
    BudgetAnnotation annotation;
  };
  std::vector<BudgetDecl> budget_decls;
  const auto parse_group = [&](std::istringstream& ls, const char* verb,
                               std::vector<GroupDecl>& out) {
    GroupDecl decl;
    decl.line = line_no;
    if (!(ls >> decl.label)) {
      fail(std::string(verb) + " needs <" + verb + "-name> <component-name>...");
      return;
    }
    std::string member;
    while (ls >> member) decl.members.push_back(std::move(member));
    if (decl.members.empty()) {
      fail(std::string(verb) + " '" + decl.label + "' names no components");
      return;
    }
    out.push_back(std::move(decl));
  };
  const auto resolve_groups = [&](const std::vector<GroupDecl>& decls,
                                  const char* verb,
                                  std::map<std::string, std::string>& out) {
    for (const GroupDecl& decl : decls) {
      line_no = decl.line;
      for (const std::string& member : decl.members) {
        if (!names.contains(member)) {
          fail(std::string(verb) + " '" + decl.label +
               "': unknown component '" + member + "'");
          continue;
        }
        const auto [it, inserted] = out.emplace(member, decl.label);
        if (!inserted && it->second != decl.label) {
          fail("component '" + member + "' assigned to both '" + it->second +
               "' and '" + decl.label + "'");
        }
      }
    }
  };

  while (std::getline(in, line)) {
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.erase(hash);
    std::istringstream ls(line);
    std::string verb;
    if (!(ls >> verb)) continue;  // Blank line.

    if (verb == "component") {
      std::string name, kind;
      if (!(ls >> name >> kind)) {
        fail("component needs <name> <kind>");
        continue;
      }
      if (names.contains(name)) {
        fail("duplicate component name '" + name + "'");
        continue;
      }
      std::vector<std::string> args;
      std::string arg;
      while (ls >> arg) args.push_back(std::move(arg));
      try {
        auto component = registry.create(kind, args);
        if (!component) {
          fail("factory for '" + kind + "' returned null");
          continue;
        }
        const core::ComponentId id = graph.add(std::move(component));
        names.emplace(name, id);
        result.report.instantiated.emplace_back(name, id);
      } catch (const std::exception& e) {
        fail(e.what());
      }
    } else if (verb == "connect") {
      std::string producer, consumer;
      if (!(ls >> producer >> consumer)) {
        fail("connect needs <producer> <consumer>");
        continue;
      }
      edges.push_back(Edge{line_no, producer, consumer});
    } else if (verb == "resolve") {
      want_resolve = true;
    } else if (verb == "verify") {
      result.verify_requested = true;
    } else if (verb == "host") {
      parse_group(ls, "host", host_decls);
    } else if (verb == "lane") {
      parse_group(ls, "lane", lane_decls);
    } else if (verb == "budget") {
      std::string target;
      if (!(ls >> target)) {
        fail("budget needs <component-name> or '*' plus key=value tokens");
        continue;
      }
      // Shared numeric parsing; `rate` additionally accepts lo..hi.
      const auto parse_number = [&](const std::string& key,
                                    const std::string& value, double& out) {
        try {
          std::size_t used = 0;
          out = std::stod(value, &used);
          if (used != value.size() || out < 0.0) {
            throw std::invalid_argument(value);
          }
          return true;
        } catch (const std::exception&) {
          fail("budget " + key + ": bad number '" + value + "'");
          return false;
        }
      };
      bool bad = false;
      if (target == "*") {
        BudgetDefaults defaults =
            result.budget_defaults.value_or(BudgetDefaults{});
        std::string token;
        while (ls >> token) {
          const std::size_t eq = token.find('=');
          if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
            fail("budget expects key=value tokens, got '" + token + "'");
            bad = true;
            break;
          }
          const std::string key = token.substr(0, eq);
          const std::string value = token.substr(eq + 1);
          double number = 0.0;
          if (!parse_number(key, value, number)) {
            bad = true;
            break;
          }
          if (key == "source_rate") {
            defaults.source_rate_hz = number;
          } else if (key == "burst") {
            defaults.burst = number;
          } else if (key == "watermark") {
            defaults.queue_watermark = static_cast<std::size_t>(number);
          } else if (key == "slo_us") {
            defaults.latency_slo_us = number;
          } else {
            fail("unknown budget * key '" + key + "'");
            bad = true;
            break;
          }
        }
        if (!bad) result.budget_defaults = defaults;
        continue;
      }
      BudgetDecl decl;
      decl.line = line_no;
      decl.name = target;
      std::string token;
      bool any = false;
      while (ls >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
          fail("budget expects key=value tokens, got '" + token + "'");
          bad = true;
          break;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        if (key == "rate") {
          // A single rate or a lo..hi interval.
          const std::size_t dots = value.find("..");
          std::string lo = value, hi = value;
          if (dots != std::string::npos) {
            lo = value.substr(0, dots);
            hi = value.substr(dots + 2);
          }
          if (!parse_number(key, lo, decl.annotation.rate_lo_hz) ||
              !parse_number(key, hi, decl.annotation.rate_hi_hz)) {
            bad = true;
            break;
          }
          if (decl.annotation.rate_hi_hz < decl.annotation.rate_lo_hz ||
              decl.annotation.rate_hi_hz <= 0.0) {
            fail("budget rate: bad interval '" + value + "'");
            bad = true;
            break;
          }
        } else if (key == "cost_us") {
          if (!parse_number(key, value, decl.annotation.cost_us)) {
            bad = true;
            break;
          }
        } else if (key == "min_rate") {
          if (!parse_number(key, value, decl.annotation.min_rate_hz)) {
            bad = true;
            break;
          }
        } else {
          fail("unknown budget key '" + key + "'");
          bad = true;
          break;
        }
        any = true;
      }
      if (bad) continue;
      if (!any) {
        fail("budget '" + target + "' sets no annotation");
        continue;
      }
      budget_decls.push_back(std::move(decl));
    } else if (verb == "health") {
      HealthSettings settings = result.health.value_or(HealthSettings{});
      bool bad = false;
      std::string token;
      while (ls >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
          fail("health expects key=value tokens, got '" + token + "'");
          bad = true;
          break;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        double number = 0.0;
        try {
          std::size_t used = 0;
          number = std::stod(value, &used);
          if (used != value.size()) throw std::invalid_argument(value);
        } catch (const std::exception&) {
          fail("health " + key + ": bad number '" + value + "'");
          bad = true;
          break;
        }
        if (key == "degraded_after_s") {
          settings.degraded_after_s = number;
        } else if (key == "stale_after_s") {
          settings.stale_after_s = number;
        } else if (key == "dead_after_s") {
          settings.dead_after_s = number;
        } else if (key == "recovery_s") {
          settings.recovery_s = number;
        } else if (key == "hold_s") {
          settings.hold_s = number;
        } else if (key == "check_interval_s") {
          settings.check_interval_s = number;
        } else if (key == "max_retries") {
          settings.max_retries = static_cast<int>(number);
        } else if (key == "ack_timeout_ms") {
          settings.ack_timeout_ms = number;
        } else {
          fail("unknown health key '" + key + "'");
          bad = true;
          break;
        }
      }
      if (!bad) result.health = settings;
    } else if (verb == "reconfig") {
      ReconfigSettings settings = result.reconfig.value_or(ReconfigSettings{});
      bool bad = false;
      std::string token;
      while (ls >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
          fail("reconfig expects key=value tokens, got '" + token + "'");
          bad = true;
          break;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        double number = 0.0;
        try {
          std::size_t used = 0;
          number = std::stod(value, &used);
          if (used != value.size() || number < 0.0) {
            throw std::invalid_argument(value);
          }
        } catch (const std::exception&) {
          fail("reconfig " + key + ": bad number '" + value + "'");
          bad = true;
          break;
        }
        if (key == "verify") {
          settings.verify = number != 0.0;
        } else if (key == "history") {
          settings.history = static_cast<std::size_t>(number);
        } else if (key == "tee_samples") {
          settings.tee_samples = static_cast<std::size_t>(number);
        } else if (key == "probation_checks") {
          settings.probation_checks = static_cast<std::size_t>(number);
        } else {
          fail("unknown reconfig key '" + key + "'");
          bad = true;
          break;
        }
      }
      if (!bad) result.reconfig = settings;
    } else if (verb == "plan") {
      PlanSettings settings = result.plan.value_or(PlanSettings{});
      bool bad = false;
      std::string token;
      while (ls >> token) {
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos || eq == 0 || eq + 1 == token.size()) {
          fail("plan expects key=value tokens, got '" + token + "'");
          bad = true;
          break;
        }
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);
        double number = 0.0;
        try {
          std::size_t used = 0;
          number = std::stod(value, &used);
          if (used != value.size() || number < 0.0) {
            throw std::invalid_argument(value);
          }
        } catch (const std::exception&) {
          fail("plan " + key + ": bad number '" + value + "'");
          bad = true;
          break;
        }
        if (key == "freeze") {
          settings.freeze = number != 0.0;
        } else if (key == "auto_refreeze") {
          settings.auto_refreeze = number != 0.0;
        } else {
          fail("unknown plan key '" + key + "'");
          bad = true;
          break;
        }
      }
      if (!bad) result.plan = settings;
    } else if (verb == "observe") {
      obs::ObservabilityConfig cfg;
      cfg.metrics = cfg.timing = false;
      bool any = false, bad = false;
      std::string flag;
      while (ls >> flag) {
        any = true;
        if (flag == "metrics") {
          cfg.metrics = true;
        } else if (flag == "timing") {
          cfg.timing = true;
        } else if (flag == "latency") {
          cfg.latency = true;
        } else if (flag == "recording" || flag == "tracing") {
          // `tracing` predates the flight ring carrying the flow trace.
          cfg.recording = true;
        } else if (flag == "all") {
          cfg.metrics = cfg.timing = cfg.latency = cfg.recording = true;
        } else if (flag.rfind("slo_us=", 0) == 0) {
          const std::string value = flag.substr(7);
          try {
            std::size_t used = 0;
            cfg.latency_slo_us = std::stod(value, &used);
            if (used != value.size()) throw std::invalid_argument(value);
          } catch (const std::exception&) {
            fail("observe slo_us: bad number '" + value + "'");
            bad = true;
            break;
          }
        } else {
          fail("unknown observe flag '" + flag + "'");
          bad = true;
          break;
        }
      }
      if (!bad) {
        if (!any) cfg.metrics = cfg.timing = true;
        graph.enable_observability(cfg);
      }
    } else {
      fail("unknown directive '" + verb + "'");
    }
  }

  // Host / lane / budget assignments resolve against the full set of
  // component names, so the lines may precede the components they pin.
  resolve_groups(host_decls, "host", result.hosts);
  resolve_groups(lane_decls, "lane", result.lanes);
  for (const BudgetDecl& decl : budget_decls) {
    line_no = decl.line;
    if (!names.contains(decl.name)) {
      fail("budget: unknown component '" + decl.name + "'");
      continue;
    }
    // Later lines refine earlier ones field by field, matching the
    // annotation's own unset conventions.
    BudgetAnnotation& merged = result.budgets[decl.name];
    if (decl.annotation.rate_hi_hz > 0.0) {
      merged.rate_lo_hz = decl.annotation.rate_lo_hz;
      merged.rate_hi_hz = decl.annotation.rate_hi_hz;
    }
    if (decl.annotation.cost_us >= 0.0) {
      merged.cost_us = decl.annotation.cost_us;
    }
    if (decl.annotation.min_rate_hz > 0.0) {
      merged.min_rate_hz = decl.annotation.min_rate_hz;
    }
  }

  // Pass 2: explicit edges.
  for (const Edge& edge : edges) {
    line_no = edge.line;
    const auto p = names.find(edge.producer);
    const auto c = names.find(edge.consumer);
    if (p == names.end()) {
      fail("unknown component '" + edge.producer + "'");
      continue;
    }
    if (c == names.end()) {
      fail("unknown component '" + edge.consumer + "'");
      continue;
    }
    try {
      graph.connect(p->second, c->second);
      result.report.edges.push_back(
          AssemblyEdge{edge.producer, edge.consumer, p->second, c->second});
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  // Pass 3: optional dependency resolution for anything left open. The
  // components are already in the graph, so the assembler's satisfaction
  // logic is run inline over the named instances.
  if (want_resolve) {
    for (const auto& [consumer_name, consumer_id] : names) {
      const auto requirements =
          graph.component(consumer_id).input_requirements();
      for (const core::InputRequirement& req : requirements) {
        const auto info = graph.info(consumer_id);
        const bool satisfied = [&] {
          for (core::ComponentId pid : info.producers) {
            for (const core::DataSpec& cap : graph.capabilities(pid)) {
              if (req.accepts(cap.type, cap.feature_tag)) return true;
            }
          }
          return false;
        }();
        if (satisfied) continue;
        bool connected = false;
        for (const auto& [provider_name, provider_id] : names) {
          if (provider_id == consumer_id) continue;
          const auto caps = graph.capabilities(provider_id);
          bool provides = false;
          for (const core::DataSpec& cap : caps) {
            if (req.accepts(cap.type, cap.feature_tag)) {
              provides = true;
              break;
            }
          }
          if (!provides) continue;
          try {
            graph.connect(provider_id, consumer_id);
          } catch (const std::invalid_argument&) {
            continue;
          }
          result.report.edges.push_back(AssemblyEdge{
              provider_name, consumer_name, provider_id, consumer_id,
              /*resolved=*/true});
          connected = true;
          break;
        }
        if (!connected && !req.optional) {
          std::string description =
              req.any_type ? std::string("<any>")
                           : std::string(req.type->name());
          if (!req.feature_tag.empty()) description += "@" + req.feature_tag;
          result.report.unsatisfied.emplace_back(consumer_name, description);
        }
      }
    }
  }
  return result;
}

std::string export_config(const core::ProcessingGraph& graph,
                          const HealthSettings* health,
                          const std::map<core::ComponentId, std::string>*
                              hosts,
                          const std::map<core::ComponentId, std::string>*
                              lanes,
                          const ReconfigSettings* reconfig,
                          const std::map<core::ComponentId, BudgetAnnotation>*
                              budgets,
                          const BudgetDefaults* budget_defaults,
                          const PlanSettings* plan) {
  std::ostringstream out;
  out << "# snapshot of a live PerPos processing graph\n";
  const auto ids = graph.components();
  const auto name_of = [&](core::ComponentId id) {
    return std::string(graph.component(id).kind()) + "_" +
           std::to_string(id);
  };
  for (core::ComponentId id : ids) {
    out << "component " << name_of(id) << " "
        << graph.component(id).kind() << "\n";
  }
  for (core::ComponentId id : ids) {
    for (core::ComponentId consumer : graph.info(id).consumers) {
      out << "connect " << name_of(id) << " " << name_of(consumer) << "\n";
    }
  }
  // One `host` / `lane` line per label, members in component-id order.
  const auto emit_groups =
      [&](const char* verb,
          const std::map<core::ComponentId, std::string>& assignment) {
        std::map<std::string, std::vector<core::ComponentId>> by_label;
        for (core::ComponentId id : ids) {
          if (const auto it = assignment.find(id); it != assignment.end()) {
            by_label[it->second].push_back(id);
          }
        }
        for (const auto& [label, members] : by_label) {
          out << verb << " " << label;
          for (core::ComponentId id : members) out << " " << name_of(id);
          out << "\n";
        }
      };
  if (hosts != nullptr) emit_groups("host", *hosts);
  if (lanes != nullptr) emit_groups("lane", *lanes);
  const auto number = [](double v) {
    std::ostringstream s;
    s << v;  // Default formatting drops trailing zeros; std::stod
             // re-parses it exactly for the values we deal in.
    return s.str();
  };
  if (budgets != nullptr) {
    for (core::ComponentId id : ids) {
      const auto it = budgets->find(id);
      if (it == budgets->end()) continue;
      const BudgetAnnotation& a = it->second;
      const bool has_rate = a.rate_hi_hz > 0.0;
      const bool has_cost = a.cost_us >= 0.0;
      const bool has_min = a.min_rate_hz > 0.0;
      if (!has_rate && !has_cost && !has_min) continue;
      out << "budget " << name_of(id);
      if (has_rate) {
        out << " rate=" << number(a.rate_lo_hz);
        if (a.rate_hi_hz != a.rate_lo_hz) out << ".." << number(a.rate_hi_hz);
      }
      if (has_cost) out << " cost_us=" << number(a.cost_us);
      if (has_min) out << " min_rate=" << number(a.min_rate_hz);
      out << "\n";
    }
  }
  if (budget_defaults != nullptr) {
    out << "budget * source_rate=" << number(budget_defaults->source_rate_hz)
        << " burst=" << number(budget_defaults->burst)
        << " watermark=" << budget_defaults->queue_watermark
        << " slo_us=" << number(budget_defaults->latency_slo_us) << "\n";
  }
  if (const obs::ObservabilityConfig* cfg = graph.observability_config()) {
    out << "observe";
    if (cfg->metrics) out << " metrics";
    if (cfg->timing) out << " timing";
    if (cfg->latency) out << " latency";
    if (cfg->recording) out << " recording";
    if (cfg->latency_slo_us > 0.0) {
      std::ostringstream s;
      s << cfg->latency_slo_us;
      out << " slo_us=" << s.str();
    }
    out << "\n";
  }
  if (health != nullptr) {
    out << "health degraded_after_s=" << number(health->degraded_after_s)
        << " stale_after_s=" << number(health->stale_after_s)
        << " dead_after_s=" << number(health->dead_after_s)
        << " recovery_s=" << number(health->recovery_s)
        << " hold_s=" << number(health->hold_s)
        << " check_interval_s=" << number(health->check_interval_s)
        << " max_retries=" << health->max_retries
        << " ack_timeout_ms=" << number(health->ack_timeout_ms) << "\n";
  }
  if (reconfig != nullptr) {
    out << "reconfig verify=" << (reconfig->verify ? 1 : 0)
        << " history=" << reconfig->history
        << " tee_samples=" << reconfig->tee_samples
        << " probation_checks=" << reconfig->probation_checks << "\n";
  }
  if (plan != nullptr) {
    out << "plan freeze=" << (plan->freeze ? 1 : 0)
        << " auto_refreeze=" << (plan->auto_refreeze ? 1 : 0) << "\n";
  }
  return out.str();
}

}  // namespace perpos::runtime
