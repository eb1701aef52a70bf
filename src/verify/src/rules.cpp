#include "perpos/verify/rules.hpp"

#include "perpos/verify/budget.hpp"
#include "perpos/verify/scc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <set>
#include <stdexcept>

namespace perpos::verify {

namespace {

bool satisfies(const core::DataSpec& cap, const core::InputRequirement& req) {
  return req.accepts(cap.type, cap.feature_tag);
}

bool any_cap_satisfies(const NodeModel& producer,
                       const core::InputRequirement& req) {
  return std::any_of(
      producer.capabilities.begin(), producer.capabilities.end(),
      [&](const core::DataSpec& cap) { return satisfies(cap, req); });
}

Diagnostic at_node(std::string rule_id, Severity severity,
                   const NodeModel& node, std::string message,
                   std::string fix_hint = {}) {
  Diagnostic d;
  d.rule_id = std::move(rule_id);
  d.severity = severity;
  d.component = node.id;
  d.component_name = node.name;
  d.message = std::move(message);
  d.fix_hint = std::move(fix_hint);
  return d;
}

Diagnostic at_edge(std::string rule_id, Severity severity,
                   const NodeModel& producer, const NodeModel& consumer,
                   std::string message, std::string fix_hint = {}) {
  Diagnostic d = at_node(std::move(rule_id), severity, consumer,
                         std::move(message), std::move(fix_hint));
  d.edge = std::make_pair(producer.id, consumer.id);
  return d;
}

// --- PPV000 ----------------------------------------------------------------
//
// Findings under this id are produced by the config front end
// (verify_config maps parse/assembly failures onto it); the rule object
// exists so the id appears in --list-rules and SARIF metadata.
class ConfigErrorRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV000"; }
  std::string_view name() const noexcept override { return "config-error"; }
  std::string_view description() const noexcept override {
    return "the configuration does not parse or assemble";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }
  void check(const GraphModel&, const Options&, Report&) const override {}
};

// --- PPV001 ----------------------------------------------------------------
class RequirementStarvationRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV001"; }
  std::string_view name() const noexcept override {
    return "requirement-starvation";
  }
  std::string_view description() const noexcept override {
    return "a mandatory input no connected producer capability can satisfy";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      const auto producers = model.producers_of(n.id);
      bool any_mandatory = false;
      for (const core::InputRequirement& req : n.requirements) {
        if (req.optional) continue;
        any_mandatory = true;
        const bool satisfied =
            std::any_of(producers.begin(), producers.end(),
                        [&](const NodeModel* p) {
                          return any_cap_satisfies(*p, req);
                        });
        if (satisfied) continue;
        if (producers.empty()) {
          // Fully starved: nothing is connected at all. One error per
          // node reads better than one per requirement.
          report.diagnostics.push_back(at_node(
              std::string(id()), Severity::kError, n,
              "component " + model.label(n.id) +
                  " has a mandatory input '" + describe(req) +
                  "' but no connected producer; it will never fire",
              "connect a producer of '" + describe(req) +
                  "' or remove the component"));
          break;  // Remaining mandatory inputs are equally unconnected.
        }
        // Partially starved: every edge into this node was individually
        // realizable (connect() accepts when *any* capability satisfies
        // *any* requirement), yet this input can never be fed — the
        // whole-graph view connect() cannot take.
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kWarning, n,
            "input '" + describe(req) + "' of component " +
                model.label(n.id) + " is starved: none of its " +
                std::to_string(producers.size()) +
                " connected producer(s) can satisfy it",
            "connect a producer of '" + describe(req) +
                "' or mark the requirement optional"));
      }
      (void)any_mandatory;
    }
  }
};

// --- PPV002 ----------------------------------------------------------------
class WildcardAmbiguityRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV002"; }
  std::string_view name() const noexcept override {
    return "wildcard-ambiguity";
  }
  std::string_view description() const noexcept override {
    return "a wildcard input whose producer match depends on insertion order";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }
  // Match candidates are searched across the whole model, so a node added
  // in one weak component can change the verdict in another.
  bool local() const noexcept override { return false; }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      const auto wildcard =
          std::find_if(n.requirements.begin(), n.requirements.end(),
                       [](const core::InputRequirement& r) {
                         return r.any_type && !r.optional;
                       });
      if (wildcard == n.requirements.end()) continue;

      // Every other component with a capability the wildcard accepts is a
      // match candidate under dependency resolution.
      std::vector<const NodeModel*> candidates;
      for (const NodeModel& m : model.nodes) {
        if (m.id == n.id) continue;
        if (any_cap_satisfies(m, *wildcard)) candidates.push_back(&m);
      }
      if (candidates.size() < 2) continue;  // At most one match: unambiguous.

      const bool has_resolved_edge = std::any_of(
          model.edges.begin(), model.edges.end(), [&](const EdgeModel& e) {
            return e.consumer == n.id && e.resolved;
          });
      const auto producers = model.producers_of(n.id);

      if (has_resolved_edge) {
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kWarning, n,
            "wildcard input of " + model.label(n.id) +
                " was wired by dependency resolution, but " +
                std::to_string(candidates.size()) +
                " producers match it — the choice depends on declaration "
                "order",
            "declare a typed requirement (e.g. 'application <name> "
            "PositionFix') or connect the intended producer explicitly"));
      } else if (producers.empty()) {
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kWarning, n,
            "unconnected wildcard input of " + model.label(n.id) +
                " matches " + std::to_string(candidates.size()) +
                " producers; dependency resolution would pick one by "
                "declaration order",
            "connect the intended producer explicitly or declare a typed "
            "requirement"));
      }
    }
  }
};

// --- PPV003 ----------------------------------------------------------------
class DeadOutputRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV003"; }
  std::string_view name() const noexcept override { return "dead-output"; }
  std::string_view description() const noexcept override {
    return "a declared capability no connected consumer ever accepts";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      if (n.capabilities.empty()) continue;  // Pure sink.
      const auto consumers = model.consumers_of(n.id);
      if (consumers.empty()) {
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kNote, n,
            "producer " + model.label(n.id) +
                " has no connected consumer; everything it emits is "
                "discarded",
            "connect a consumer, or remove the component if it is unused"));
        continue;
      }
      for (const core::DataSpec& cap : n.capabilities) {
        const bool accepted = std::any_of(
            consumers.begin(), consumers.end(), [&](const NodeModel* c) {
              return std::any_of(c->requirements.begin(),
                                 c->requirements.end(),
                                 [&](const core::InputRequirement& r) {
                                   return satisfies(cap, r);
                                 });
            });
        if (!accepted) {
          const bool feature_added = !cap.feature_tag.empty();
          report.diagnostics.push_back(at_node(
              std::string(id()), Severity::kWarning, n,
              "capability '" + describe(cap) + "' of " + model.label(n.id) +
                  " is accepted by none of its " +
                  std::to_string(consumers.size()) +
                  " connected consumer(s)" +
                  (feature_added
                       ? " (feature-added data reaches only consumers that "
                         "declare its feature tag)"
                       : ""),
              feature_added
                  ? "declare a requirement with feature tag '" +
                        cap.feature_tag + "' on a consumer, or detach the "
                        "feature"
                  : "connect a consumer that accepts '" + describe(cap) +
                        "'"));
        }
      }
    }
  }
};

// --- PPV004 ----------------------------------------------------------------
class UnreachableComponentRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV004"; }
  std::string_view name() const noexcept override {
    return "unreachable-component";
  }
  std::string_view description() const noexcept override {
    return "a component no source can ever feed (source-less subgraph)";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    // Sources are nodes with no input requirements at all: they emit on
    // their own (sensors, emulators). Everything else must be reachable
    // from one to ever see data.
    std::set<core::ComponentId> reachable;
    std::vector<core::ComponentId> frontier;
    for (const NodeModel& n : model.nodes) {
      if (n.requirements.empty()) {
        reachable.insert(n.id);
        frontier.push_back(n.id);
      }
    }
    while (!frontier.empty()) {
      const core::ComponentId id = frontier.back();
      frontier.pop_back();
      for (const EdgeModel& e : model.edges) {
        if (e.producer == id && reachable.insert(e.consumer).second) {
          frontier.push_back(e.consumer);
        }
      }
    }
    for (const NodeModel& n : model.nodes) {
      if (reachable.contains(n.id)) continue;
      // A consumer with zero producers already gets a PPV001 error;
      // repeating it here as "unreachable" would be noise. This rule
      // covers the rest of the dead subgraph hanging off such nodes.
      const bool has_mandatory =
          std::any_of(n.requirements.begin(), n.requirements.end(),
                      [](const core::InputRequirement& r) {
                        return !r.optional;
                      });
      if (model.producers_of(n.id).empty() && has_mandatory) continue;
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kWarning, n,
          "component " + model.label(n.id) +
              " is not reachable from any source; its subgraph will never "
              "carry data",
          "connect the subgraph to a source, or remove it"));
    }
  }
};

// --- PPV005 ----------------------------------------------------------------
class MergeFanInRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV005"; }
  std::string_view name() const noexcept override { return "merge-fan-in"; }
  std::string_view description() const noexcept override {
    return "fan-in arity at odds with the component's merge semantics";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      const auto producers = model.producers_of(n.id);
      if (n.is_merge) {
        if (producers.size() == 1) {
          report.diagnostics.push_back(at_node(
              std::string(id()), Severity::kNote, n,
              "fusion component " + model.label(n.id) +
                  " has fan-in 1; fusion degenerates to a pass-through",
              "connect the other input sources, or replace the fusion "
              "stage with a plain filter"));
        }
        continue;
      }
      // Non-merging processing components (they transform and re-emit):
      // several producers feeding the *same* input port interleave their
      // streams sample by sample, which is almost never intended outside
      // a fusion component.
      if (n.capabilities.empty() || producers.size() < 2) continue;
      for (const core::InputRequirement& req : n.requirements) {
        const auto feeders = std::count_if(
            producers.begin(), producers.end(), [&](const NodeModel* p) {
              return any_cap_satisfies(*p, req);
            });
        if (feeders >= 2) {
          report.diagnostics.push_back(at_node(
              std::string(id()), Severity::kWarning, n,
              std::to_string(feeders) + " producers feed input '" +
                  describe(req) + "' of non-merging component " +
                  model.label(n.id) +
                  "; their streams will interleave unpredictably",
              "insert a fusion component, or split the pipeline per "
              "source"));
        }
      }
    }
  }
};

// --- PPV006 ----------------------------------------------------------------
class CycleRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV006"; }
  std::string_view name() const noexcept override { return "cycle"; }
  std::string_view description() const noexcept override {
    return "a directed cycle in the processing graph";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    // Iterative DFS with colouring. A live ProcessingGraph rejects cycles
    // at connect() time (including edges realizable only through
    // feature-added capabilities, which are ordinary edges once made);
    // this rule is the defence for models from other front ends.
    std::map<core::ComponentId, int> colour;  // 0 white, 1 grey, 2 black.
    std::vector<core::ComponentId> stack;

    const std::function<bool(core::ComponentId,
                             std::vector<core::ComponentId>&)> dfs =
        [&](core::ComponentId id,
            std::vector<core::ComponentId>& path) -> bool {
      colour[id] = 1;
      path.push_back(id);
      for (const EdgeModel& e : model.edges) {
        if (e.producer != id) continue;
        if (colour[e.consumer] == 1) {
          // Found a back edge: report the cycle path.
          std::string cycle;
          bool in_cycle = false;
          for (core::ComponentId p : path) {
            if (p == e.consumer) in_cycle = true;
            if (in_cycle) {
              const NodeModel* n = model.node(p);
              cycle += (n != nullptr ? n->name : std::to_string(p)) + " -> ";
            }
          }
          const NodeModel* back = model.node(e.consumer);
          cycle += back != nullptr ? back->name : std::to_string(e.consumer);
          if (const NodeModel* n = model.node(e.consumer)) {
            report.diagnostics.push_back(at_node(
                std::string(this->id()), Severity::kError, *n,
                "processing cycle: " + cycle +
                    "; samples would recurse forever",
                "remove one edge of the cycle"));
          }
          path.pop_back();
          colour[id] = 2;
          return true;
        }
        if (colour[e.consumer] == 0 && dfs(e.consumer, path)) {
          path.pop_back();
          colour[id] = 2;
          return true;  // One report per connected cycle is enough.
        }
      }
      path.pop_back();
      colour[id] = 2;
      return false;
    };

    for (const NodeModel& n : model.nodes) {
      if (colour[n.id] == 0) {
        std::vector<core::ComponentId> path;
        dfs(n.id, path);
      }
    }
  }
};

// --- PPV007 ----------------------------------------------------------------
class FrameMismatchRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV007"; }
  std::string_view name() const noexcept override { return "frame-mismatch"; }
  std::string_view description() const noexcept override {
    return "local-coordinate data crossing between different frames/datums";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const EdgeModel& e : model.edges) {
      const NodeModel* p = model.node(e.producer);
      const NodeModel* c = model.node(e.consumer);
      if (p == nullptr || c == nullptr) continue;
      if (p->output_frame.empty() || c->input_frame.empty()) continue;
      if (p->output_frame == c->input_frame) continue;
      report.diagnostics.push_back(at_edge(
          std::string(id()), Severity::kError, *p, *c,
          "coordinate-frame mismatch on edge " + model.label(p->id) +
              " -> " + model.label(c->id) + ": producer emits frame '" +
              p->output_frame + "' but consumer interprets frame '" +
              c->input_frame +
              "'; positions would be silently wrong by the inter-frame "
              "offset",
          "use components bound to the same building/frame, or convert "
          "through WGS84 (LocalToGeo) first"));
    }
  }
};

// --- PPV008 ----------------------------------------------------------------
class RemotingBoundaryRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV008"; }
  std::string_view name() const noexcept override {
    return "uncodable-remote-edge";
  }
  std::string_view description() const noexcept override {
    return "a host-crossing edge whose data the wire codec cannot carry";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    if (!options.encodable) return;  // No codec knowledge: nothing to say.
    for (const EdgeModel& e : model.edges) {
      const NodeModel* p = model.node(e.producer);
      const NodeModel* c = model.node(e.consumer);
      if (p == nullptr || c == nullptr) continue;
      if (p->host.empty() || c->host.empty() || p->host == c->host) continue;
      for (const core::DataSpec& cap : p->capabilities) {
        const bool needed = std::any_of(
            c->requirements.begin(), c->requirements.end(),
            [&](const core::InputRequirement& r) { return satisfies(cap, r); });
        if (!needed || options.encodable(cap)) continue;
        report.diagnostics.push_back(at_edge(
            std::string(id()), Severity::kError, *p, *c,
            "edge " + model.label(p->id) + " (host '" + p->host + "') -> " +
                model.label(c->id) + " (host '" + c->host +
                "') crosses hosts, but '" + describe(cap) +
                "' has no payload_codec coverage; at runtime every sample "
                "would be dropped at the egress or die as decode_failed",
            "assign both components to one host, or move the host cut "
            "past a stage producing codable data (RawFragment, RssiScan, "
            "PositionFix, RoomFix)"));
      }
    }
  }
};

// --- PPV009 ----------------------------------------------------------------

std::string_view lane_of(const NodeModel& n, const Options& options);

class CrossLaneEdgeRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV009"; }
  std::string_view name() const noexcept override { return "cross-lane-edge"; }
  std::string_view description() const noexcept override {
    return "a direct edge between components assigned to different "
           "execution lanes";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    for (const EdgeModel& e : model.edges) {
      const NodeModel* p = model.node(e.producer);
      const NodeModel* c = model.node(e.consumer);
      if (p == nullptr || c == nullptr) continue;
      const std::string_view p_lane = lane_of(*p, options);
      const std::string_view c_lane = lane_of(*c, options);
      if (p_lane.empty() || c_lane.empty() || p_lane == c_lane) continue;
      // A remoting endpoint on the edge means the lane cut is mediated by
      // a DistributedDeployment link (the sample changes lanes inside the
      // link's delivery executor, not through this synchronous edge).
      if (is_remoting(*p) || is_remoting(*c)) continue;
      report.diagnostics.push_back(at_edge(
          std::string(id()), Severity::kError, *p, *c,
          "edge " + model.label(p->id) + " (lane '" + std::string(p_lane) +
              "') -> " + model.label(c->id) + " (lane '" +
              std::string(c_lane) +
              "') delivers synchronously across execution lanes; two "
              "engine workers would drive one graph concurrently, "
              "breaking the per-lane determinism contract",
          "assign both components to one lane, or cut the edge with a "
          "DistributedDeployment link so the hop is posted to the "
          "destination lane"));
    }
  }

 private:
  static bool is_remoting(const NodeModel& n) {
    return n.kind == "RemoteEgress" || n.kind == "RemoteIngress";
  }
};

// --- Shared temporal-rule machinery ----------------------------------------

/// Lane of a node: the stamped annotation when present (prepare() copies
/// Options.lanes onto nodes, and hand-built models may set it directly),
/// the Options map otherwise.
std::string_view lane_of(const NodeModel& n, const Options& options) {
  if (!n.lane.empty()) return n.lane;
  const auto it = options.lanes.find(n.id);
  return it == options.lanes.end() ? std::string_view{}
                                   : std::string_view(it->second);
}

// SccResult / strongly_connected moved to scc.hpp — the budget pass, the
// incremental verifier and the planner share the same decompositions.

/// "x2.5" style multiplication factor for messages.
std::string fmt_factor(double factor) {
  char buffer[32];
  std::snprintf(buffer, sizeof buffer, "%g", factor);
  return buffer;
}

// --- PPV010 ----------------------------------------------------------------
class EmitAmplificationRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV010"; }
  std::string_view name() const noexcept override {
    return "emit-amplification-cycle";
  }
  std::string_view description() const noexcept override {
    return "a feedback region whose emit-multiplicity product exceeds 1 "
           "(unbounded queue growth)";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    if (model.links.empty()) return;  // Edge-only cycles are PPV006's.
    const SccResult scc = strongly_connected(model);
    for (std::size_t i = 0; i < scc.components.size(); ++i) {
      if (!scc.cyclic(i, model)) continue;
      const auto& comp = scc.components[i];
      // A feedback region closed purely by synchronous edges is already an
      // error under PPV006 regardless of amplification; this rule owns the
      // regions only a deployment link closes.
      std::set<core::ComponentId> in(comp.begin(), comp.end());
      const bool link_closed = std::any_of(
          model.links.begin(), model.links.end(), [&](const LinkModel& l) {
            return in.contains(l.producer) && in.contains(l.consumer);
          });
      if (!link_closed) continue;

      double product = 1.0;
      const NodeModel* amplifier = nullptr;
      std::string region;
      for (const core::ComponentId id : comp) {
        const NodeModel* n = model.node(id);
        if (n == nullptr) continue;
        product *= n->emit_per_input;
        if (amplifier == nullptr ||
            n->emit_per_input > amplifier->emit_per_input) {
          amplifier = n;
        }
        if (!region.empty()) region += " -> ";
        region += n->name;
      }
      if (amplifier == nullptr || product <= 1.0 + 1e-9) continue;
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kError, *amplifier,
          "feedback region " + region +
              " closes over a deployment link and amplifies x" +
              fmt_factor(product) +
              " per round trip; its queues grow without bound",
          "decimate or gate a stage of the loop so the round-trip emit "
          "multiplicity drops to <= 1, or break the feedback link"));
    }
  }
};

// --- PPV011 ----------------------------------------------------------------
class HookEmitReentrancyRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV011"; }
  std::string_view name() const noexcept override {
    return "hook-emit-reentrancy";
  }
  std::string_view description() const noexcept override {
    return "a feature hook whose emission re-enters dispatch hazardously";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    bool scc_ready = false;
    SccResult scc;
    for (const NodeModel& n : model.nodes) {
      for (const HookModel& h : n.hooks) {
        if (h.emits_on_produce) {
          report.diagnostics.push_back(at_node(
              std::string(id()), Severity::kWarning, n,
              "feature '" + h.name + "' on " + model.label(n.id) +
                  " emits from produce(); the emission runs the host's own "
                  "produce-hook chain again — an unconditional emission "
                  "there recurses without bound",
              "emit from consume() instead, or guard the produce-hook "
              "emission with a reentrancy flag"));
        }
        if (!h.emits_on_consume) continue;
        if (!scc_ready) {
          scc = strongly_connected(model);
          scc_ready = true;
        }
        const auto it = scc.component_of.find(n.id);
        if (it == scc.component_of.end() || !scc.cyclic(it->second, model)) {
          continue;
        }
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kWarning, n,
            "feature '" + h.name + "' on " + model.label(n.id) +
                " emits from consume() while its host sits on a feedback "
                "loop; every round trip triggers an extra emission, "
                "compounding queue growth",
            "break the loop, or make the consume-hook emission "
            "conditional on new information"));
      }
    }
  }
};

// --- PPV012 ----------------------------------------------------------------
class NonMonotonicMergeInputRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV012"; }
  std::string_view name() const noexcept override {
    return "non-monotonic-merge-input";
  }
  std::string_view description() const noexcept override {
    return "a fusion input whose logical-time order is not monotonic "
           "(reconvergent paths or unordered links)";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      if (!n.is_merge) continue;
      check_reconvergence(model, n, report);
      check_unordered_links(model, n, report);
    }
  }

 private:
  /// Upstream closure of `id` over edges and links, including `id`.
  static std::set<core::ComponentId> ancestors_of(const GraphModel& model,
                                                  core::ComponentId id) {
    std::set<core::ComponentId> seen{id};
    std::vector<core::ComponentId> frontier{id};
    while (!frontier.empty()) {
      const core::ComponentId at = frontier.back();
      frontier.pop_back();
      for (const EdgeModel& e : model.edges) {
        if (e.consumer == at && seen.insert(e.producer).second) {
          frontier.push_back(e.producer);
        }
      }
      for (const LinkModel& l : model.links) {
        if (l.consumer == at && seen.insert(l.producer).second) {
          frontier.push_back(l.producer);
        }
      }
    }
    return seen;
  }

  /// Diamond detection: two direct producers of the merge sharing an
  /// upstream ancestor means one source's stream reaches the fusion along
  /// >= 2 paths with different delays — arrival order at the merge no
  /// longer preserves the source's logical-time order.
  void check_reconvergence(const GraphModel& model, const NodeModel& merge,
                           Report& report) const {
    const auto producers = model.producers_of(merge.id);
    if (producers.size() < 2) return;
    std::vector<std::set<core::ComponentId>> ancestry;
    ancestry.reserve(producers.size());
    for (const NodeModel* p : producers) {
      ancestry.push_back(ancestors_of(model, p->id));
    }
    core::ComponentId common = core::kInvalidComponent;
    for (std::size_t a = 0; a < ancestry.size() && common == core::kInvalidComponent;
         ++a) {
      for (std::size_t b = a + 1; b < ancestry.size(); ++b) {
        for (const core::ComponentId id : ancestry[a]) {
          if (ancestry[b].contains(id)) {
            common = id;
            break;
          }
        }
        if (common != core::kInvalidComponent) break;
      }
    }
    if (common == core::kInvalidComponent) return;
    report.diagnostics.push_back(at_node(
        std::string(id()), Severity::kWarning, merge,
        "inputs of fusion component " + model.label(merge.id) +
            " reconverge from a single upstream source " +
            model.label(common) +
            " along multiple paths; interleaved deliveries at the merge do "
            "not preserve that source's logical-time order",
        "fuse the branches before the split, or key the fusion on "
        "per-origin sequence numbers instead of arrival order"));
  }

  /// An unordered link anywhere upstream of a merge can reorder
  /// deliveries, so logical time at the fusion input may regress.
  void check_unordered_links(const GraphModel& model, const NodeModel& merge,
                             Report& report) const {
    const std::set<core::ComponentId> upstream =
        ancestors_of(model, merge.id);
    for (const LinkModel& l : model.links) {
      if (l.ordered) continue;
      if (!upstream.contains(l.consumer)) continue;
      const std::string label =
          l.name.empty() ? model.label(l.producer) + " -> " +
                               model.label(l.consumer)
                         : "'" + l.name + "'";
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kWarning, merge,
          "an input of fusion component " + model.label(merge.id) +
              " flows through unordered link " + label +
              "; deliveries may arrive out of logical-time order at the "
              "merge",
          "carry merge inputs over a reliable (ordered) link, or reorder "
          "on sequence numbers at the ingress"));
    }
  }
};

// --- PPV013 ----------------------------------------------------------------
class AckCycleDeadlockRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV013"; }
  std::string_view name() const noexcept override {
    return "ack-cycle-deadlock";
  }
  std::string_view description() const noexcept override {
    return "reliable (acked) links forming a cycle between hosts — a "
           "stop-and-wait deadlock candidate";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }
  // Stations group by host label, which can tie links from otherwise
  // disconnected weak components into one cycle.
  bool local() const noexcept override { return false; }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    // Collapse nodes to "stations": the host label when assigned, the
    // node itself otherwise. Each acked link is a station edge; a directed
    // cycle of such edges means every station in the ring is both waiting
    // for an ack and expected to process inbound DATA — with stop-and-wait
    // retransmission that is a deadlock/livelock candidate.
    std::map<std::string, std::vector<const LinkModel*>> next;
    for (const LinkModel& l : model.links) {
      if (!l.acked) continue;
      next[station(model, l.producer)].push_back(&l);
    }
    if (next.empty()) return;

    std::map<std::string, int> colour;  // 0 white, 1 grey, 2 black.
    for (const auto& [start, unused] : next) {
      (void)unused;
      if (colour[start] != 0) continue;
      std::vector<const LinkModel*> path;
      dfs(model, next, start, colour, path, report);
    }
  }

 private:
  static std::string station(const GraphModel& model, core::ComponentId id) {
    const NodeModel* n = model.node(id);
    if (n != nullptr && !n->host.empty()) return n->host;
    return "#" + std::to_string(id);
  }

  bool dfs(const GraphModel& model,
           const std::map<std::string, std::vector<const LinkModel*>>& next,
           const std::string& at, std::map<std::string, int>& colour,
           std::vector<const LinkModel*>& path, Report& report) const {
    colour[at] = 1;
    const auto it = next.find(at);
    if (it != next.end()) {
      for (const LinkModel* l : it->second) {
        const std::string to = station(model, l->consumer);
        path.push_back(l);
        if (colour[to] == 1) {
          // Back edge: the tail of `path` from the first link leaving `to`
          // is the cycle.
          std::string ring = to;
          bool in_cycle = false;
          for (const LinkModel* seg : path) {
            if (station(model, seg->producer) == to) in_cycle = true;
            if (in_cycle) ring += " -> " + station(model, seg->consumer);
          }
          if (const NodeModel* n = model.node(l->producer)) {
            report.diagnostics.push_back(at_node(
                std::string(id()), Severity::kWarning, *n,
                "reliable (acked) links form a cycle between hosts: " +
                    ring +
                    "; with stop-and-wait retransmission every host in the "
                    "ring can end up blocked awaiting an ack that is queued "
                    "behind its own inbound DATA — a deadlock candidate",
                "break the ring by making one hop fire-and-forget, or "
                "route one direction through a separate relay host"));
          }
          path.pop_back();
          colour[at] = 2;
          return true;
        }
        if (colour[to] == 0 &&
            dfs(model, next, to, colour, path, report)) {
          path.pop_back();
          colour[at] = 2;
          return true;  // One report per connected ring.
        }
        path.pop_back();
      }
    }
    colour[at] = 2;
    return false;
  }
};

// --- PPV014 ----------------------------------------------------------------
class LaneStarvationRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV014"; }
  std::string_view name() const noexcept override {
    return "lane-starvation";
  }
  std::string_view description() const noexcept override {
    return "one execution lane serializing more hot sinks than the "
           "configured threshold";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }
  // Lane totals span weak components: two independent pipelines can pile
  // their sinks onto one lane.
  bool local() const noexcept override { return false; }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    // Hot sinks: terminal consumers — they take input, feed nothing
    // downstream, and their on_input (an application callback, a display,
    // a logger) runs to completion on the lane's worker before the next
    // sink sees data.
    std::map<std::string, std::vector<const NodeModel*>> sinks_by_lane;
    for (const NodeModel& n : model.nodes) {
      const std::string_view lane = lane_of(n, options);
      if (lane.empty()) continue;
      if (n.requirements.empty()) continue;
      if (!model.consumers_of(n.id).empty()) continue;
      sinks_by_lane[std::string(lane)].push_back(&n);
    }
    for (const auto& [lane, sinks] : sinks_by_lane) {
      if (sinks.size() <= options.max_sinks_per_lane) continue;
      const NodeModel* first = *std::min_element(
          sinks.begin(), sinks.end(),
          [](const NodeModel* a, const NodeModel* b) { return a->id < b->id; });
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kWarning, *first,
          "execution lane '" + lane + "' serializes " +
              std::to_string(sinks.size()) + " terminal consumers (threshold " +
              std::to_string(options.max_sinks_per_lane) +
              "); one slow sink stalls every other application on the lane",
          "spread the applications across lanes, or raise "
          "max_sinks_per_lane if the serialization is intended"));
    }
  }
};

// --- PPV015 ----------------------------------------------------------------
class HookOrderViolationRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPV015"; }
  std::string_view name() const noexcept override {
    return "hook-order-violation";
  }
  std::string_view description() const noexcept override {
    return "a feature whose required features are missing or attached "
           "after it";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options&,
             Report& report) const override {
    for (const NodeModel& n : model.nodes) {
      for (std::size_t i = 0; i < n.hooks.size(); ++i) {
        const HookModel& h = n.hooks[i];
        for (const std::string& dep : h.requires_hooks) {
          const auto found = std::find_if(
              n.hooks.begin(), n.hooks.end(),
              [&](const HookModel& other) { return other.name == dep; });
          if (found == n.hooks.end()) {
            // attach_feature() enforces presence, but detach_feature()
            // does not re-check dependants — and models from other front
            // ends never ran attach at all.
            report.diagnostics.push_back(at_node(
                std::string(id()), Severity::kError, n,
                "feature '" + h.name + "' on " + model.label(n.id) +
                    " requires feature '" + dep + "', which is not attached",
                "attach '" + dep + "' (before '" + h.name +
                    "'), or detach '" + h.name + "' too"));
            continue;
          }
          const auto j =
              static_cast<std::size_t>(std::distance(n.hooks.begin(), found));
          if (j > i) {
            report.diagnostics.push_back(at_node(
                std::string(id()), Severity::kWarning, n,
                "feature '" + h.name + "' on " + model.label(n.id) +
                    " runs before its required feature '" + dep +
                    "' (hooks run in attachment order); it observes samples "
                    "the dependency has not augmented yet",
                "attach '" + dep + "' before '" + h.name + "'"));
          }
        }
      }
    }
  }
};

// --- PPQ001..PPQ005 --------------------------------------------------------
//
// Quantitative budget rules: findings derived from the interval-valued
// rate/cost interpretation in budget.hpp. Each rule runs its own
// analyze_budget() pass — the analysis is linear in the graph and rules
// must stay independently executable under suppression and incremental
// replay. All five are silent on unannotated graphs: default rates and
// calibrated costs keep utilization around 1e-6 cores, and the watermark /
// SLO / min-rate gates default to "unset".

/// Effective min-rate annotation with the same precedence as budget.cpp:
/// an explicitly-set Options map entry wins over the stamped node field.
double min_rate_of(const NodeModel& n, const Options& options) {
  const auto it = options.budget.annotations.find(n.id);
  if (it != options.budget.annotations.end() && it->second.min_rate_hz > 0.0) {
    return it->second.min_rate_hz;
  }
  return n.min_rate_hz;
}

/// The lane member with the largest hi-side busy fraction — the natural
/// anchor for a lane-level finding.
const NodeModel* hottest_member(const GraphModel& model,
                                const BudgetReport& budget,
                                const LaneBudget& lane) {
  const NodeModel* hottest = nullptr;
  double worst = -1.0;
  for (const core::ComponentId id : lane.members) {
    const NodeBudget* b = budget.node(id);
    const NodeModel* n = model.node(id);
    if (b == nullptr || n == nullptr) continue;
    if (b->busy.hi > worst) {
      worst = b->busy.hi;
      hottest = n;
    }
  }
  return hottest;
}

class LaneOverloadRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPQ001"; }
  std::string_view name() const noexcept override { return "lane-overload"; }
  std::string_view description() const noexcept override {
    return "an execution lane whose steady-state utilization exceeds one "
           "core";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }
  // Lane totals sum busy fractions across weak components sharing a label.
  bool local() const noexcept override { return false; }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    const BudgetReport budget = analyze_budget(model, options);
    for (const LaneBudget& l : budget.lanes) {
      if (l.utilization.hi <= 1.0 + 1e-9) continue;
      const NodeModel* anchor = hottest_member(model, budget, l);
      if (anchor == nullptr) continue;
      // Definite overload (even the optimistic end exceeds a core) is an
      // error; overload only at the pessimistic end is a warning.
      const bool definite = l.utilization.lo > 1.0 + 1e-9;
      report.diagnostics.push_back(at_node(
          std::string(id()), definite ? Severity::kError : Severity::kWarning,
          *anchor,
          "execution lane '" + l.lane + "' needs " +
              fmt_factor(l.utilization.lo) + ".." +
              fmt_factor(l.utilization.hi) +
              " cores in steady state (one worker per lane); its queues "
              "grow until samples are stale or dropped",
          "split the lane's components across lanes (perpos-plan proposes "
          "a placement), decimate upstream, or lower annotated rates"));
    }
  }
};

class QueueBoundExceededRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPQ002"; }
  std::string_view name() const noexcept override {
    return "queue-bound-exceeded";
  }
  std::string_view description() const noexcept override {
    return "a static worst-case queue-depth bound above the configured "
           "watermark";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }
  // Lane queue bounds aggregate deliveries across weak components.
  bool local() const noexcept override { return false; }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    const std::size_t watermark = options.budget.queue_watermark;
    if (watermark == 0) return;
    const BudgetReport budget = analyze_budget(model, options);
    for (const LaneBudget& l : budget.lanes) {
      if (l.queue_bound <= static_cast<double>(watermark)) continue;
      const NodeModel* anchor = hottest_member(model, budget, l);
      if (anchor == nullptr) continue;
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kWarning, *anchor,
          "one source burst can queue " + fmt_factor(l.queue_bound) +
              " sample(s) on execution lane '" + l.lane +
              "', above the configured watermark of " +
              std::to_string(watermark) +
              "; the runtime sanitizer would report PPS005",
          "raise the watermark, reduce the burst, or decimate the cascade "
          "feeding the lane"));
    }
    if (budget.dispatch_queue_bound > static_cast<double>(watermark)) {
      // Anchor on the first source: the dispatch queue is per-graph, and
      // the bound is driven by whichever source cascades widest.
      for (const NodeModel& n : model.nodes) {
        if (!n.requirements.empty()) continue;
        report.diagnostics.push_back(at_node(
            std::string(id()), Severity::kWarning, n,
            "one source burst can cascade into " +
                fmt_factor(budget.dispatch_queue_bound) +
                " deliveries on the dispatch work queue, above the "
                "configured watermark of " +
                std::to_string(watermark),
            "raise the watermark or narrow the fan-out of the cascade"));
        break;
      }
    }
  }
};

class LatencySloInfeasibleRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPQ003"; }
  std::string_view name() const noexcept override {
    return "latency-slo-infeasible";
  }
  std::string_view description() const noexcept override {
    return "a source-to-sink path whose best-case service latency already "
           "exceeds the latency SLO";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }
  // Paths never leave a weak component, so findings stay local.

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    const double slo = options.budget.latency_slo_us;
    if (slo <= 0.0) return;
    const BudgetReport budget = analyze_budget(model, options);
    for (const PathBudget& p : budget.paths) {
      if (p.latency_us <= slo) continue;
      const NodeModel* sink = model.node(p.path.back());
      if (sink == nullptr) continue;
      const std::string latency = std::isinf(p.latency_us)
                                      ? "unbounded"
                                      : fmt_factor(p.latency_us) + " us";
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kError, *sink,
          "path " + p.label + " has a best-case service latency of " +
              latency + ", above the " + fmt_factor(slo) +
              " us SLO — queueing only adds to it, so the SLO is "
              "infeasible, not merely at risk",
          "shorten the path, lower per-stage costs, or relax the SLO"));
    }
  }
};

class RateStarvedSinkRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPQ004"; }
  std::string_view name() const noexcept override {
    return "rate-starved-sink";
  }
  std::string_view description() const noexcept override {
    return "a consumer whose required minimum input rate no upstream rate "
           "can reach";
  }
  Severity default_severity() const noexcept override {
    return Severity::kWarning;
  }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    bool analyzed = false;
    BudgetReport budget;
    for (const NodeModel& n : model.nodes) {
      const double required = min_rate_of(n, options);
      if (required <= 0.0) continue;
      if (!analyzed) {
        budget = analyze_budget(model, options);
        analyzed = true;
      }
      const NodeBudget* b = budget.node(n.id);
      if (b == nullptr || b->in_rate.hi >= required) continue;
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kWarning, n,
          "component " + model.label(n.id) + " requires >= " +
              fmt_factor(required) + " Hz of input but at most " +
              fmt_factor(b->in_rate.hi) +
              " Hz can ever reach it given upstream rates and decimation",
          "raise the source rate, remove upstream decimation, or lower "
          "the min_rate_hz annotation"));
    }
  }
};

class UnboundedFeedbackQueueRule final : public Rule {
 public:
  std::string_view id() const noexcept override { return "PPQ005"; }
  std::string_view name() const noexcept override {
    return "unbounded-feedback-queue";
  }
  std::string_view description() const noexcept override {
    return "a feedback region with emit gain >= 1 feeding a bounded "
           "execution lane or queue watermark";
  }
  Severity default_severity() const noexcept override {
    return Severity::kError;
  }

  void check(const GraphModel& model, const Options& options,
             Report& report) const override {
    // PPV010 owns link-closed loops with gain strictly > 1 on any graph;
    // this rule covers the quantitative boundary case — gain >= 1
    // (including exactly 1, which any jitter tips into growth) — but only
    // where a finite capacity promise exists to break: a member assigned
    // to an execution lane, or a configured queue watermark.
    const SccResult scc = strongly_connected(model);
    for (std::size_t i = 0; i < scc.components.size(); ++i) {
      if (!scc.cyclic(i, model)) continue;
      const auto& comp = scc.components[i];
      double gain = 1.0;
      const NodeModel* amplifier = nullptr;
      std::string region;
      std::string bounded_lane;
      for (const core::ComponentId id : comp) {
        const NodeModel* n = model.node(id);
        if (n == nullptr) continue;
        gain *= n->emit_per_input;
        if (amplifier == nullptr ||
            n->emit_per_input > amplifier->emit_per_input) {
          amplifier = n;
        }
        if (bounded_lane.empty()) bounded_lane = std::string(lane_of(*n, options));
        if (!region.empty()) region += " -> ";
        region += n->name;
      }
      if (amplifier == nullptr || gain < 1.0 - 1e-9) continue;
      const bool bounded =
          !bounded_lane.empty() || options.budget.queue_watermark > 0;
      if (!bounded) continue;
      const std::string capacity =
          !bounded_lane.empty()
              ? "execution lane '" + bounded_lane + "'"
              : "a queue watermark of " +
                    std::to_string(options.budget.queue_watermark);
      report.diagnostics.push_back(at_node(
          std::string(id()), Severity::kError, *amplifier,
          "feedback region " + region + " re-circulates with emit gain x" +
              fmt_factor(gain) + " (>= 1) and feeds " + capacity +
              "; no finite queue can hold it — even gain exactly 1 grows "
              "under jitter",
          "decimate a loop stage below gain 1, or break the feedback "
          "path"));
    }
  }
};

// --- PPS001..PPS006 --------------------------------------------------------
//
// Runtime sanitizer and model-checker rules. Like PPV000 these never
// produce findings from check(): the live sanitizer
// (perpos::sanitize::GraphSanitizer) emits Diagnostics under the PPS ids
// while the graph runs, and the bounded model checker
// (verify::check_protocol_models) emits Diagnostics under the PPM ids when
// exploring the protocol models. The rule objects exist so --list-rules
// shows them and SARIF reports carry their metadata, letting one report
// mix static, runtime and model findings.
class RuntimeRule final : public Rule {
 public:
  RuntimeRule(std::string id, std::string name, std::string description,
              Severity severity)
      : id_(std::move(id)),
        name_(std::move(name)),
        description_(std::move(description)),
        severity_(severity) {}

  std::string_view id() const noexcept override { return id_; }
  std::string_view name() const noexcept override { return name_; }
  std::string_view description() const noexcept override {
    return description_;
  }
  Severity default_severity() const noexcept override { return severity_; }
  void check(const GraphModel&, const Options&, Report&) const override {}

 private:
  std::string id_;
  std::string name_;
  std::string description_;
  Severity severity_;
};

}  // namespace

std::string_view severity_name(Severity severity) noexcept {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

std::size_t Report::count(Severity severity) const noexcept {
  return static_cast<std::size_t>(
      std::count_if(diagnostics.begin(), diagnostics.end(),
                    [&](const Diagnostic& d) {
                      return d.severity == severity;
                    }));
}

std::vector<const Diagnostic*> Report::by_rule(
    std::string_view rule_id) const {
  std::vector<const Diagnostic*> out;
  for (const Diagnostic& d : diagnostics) {
    if (d.rule_id == rule_id) out.push_back(&d);
  }
  return out;
}

void RuleRegistry::add(std::unique_ptr<Rule> rule) {
  if (rule == nullptr) throw std::invalid_argument("null rule");
  if (find(rule->id()) != nullptr) {
    throw std::invalid_argument("rule id '" + std::string(rule->id()) +
                                "' already registered");
  }
  rules_.push_back(std::move(rule));
}

const Rule* RuleRegistry::find(std::string_view id) const noexcept {
  for (const auto& rule : rules_) {
    if (rule->id() == id) return rule.get();
  }
  return nullptr;
}

Report RuleRegistry::run(const GraphModel& model,
                         const Options& options) const {
  Report report;
  for (const auto& rule : rules_) {
    const bool disabled =
        std::find(options.disabled_rules.begin(),
                  options.disabled_rules.end(),
                  std::string(rule->id())) != options.disabled_rules.end();
    if (disabled) continue;
    rule->check(model, options, report);
  }
  // Severity-major, catalog-order-minor: errors first, then warnings,
  // then notes — stable within a severity.
  std::stable_sort(report.diagnostics.begin(), report.diagnostics.end(),
                   [](const Diagnostic& a, const Diagnostic& b) {
                     return static_cast<int>(a.severity) >
                            static_cast<int>(b.severity);
                   });
  return report;
}

const RuleRegistry& RuleRegistry::default_catalog() {
  static const RuleRegistry* registry = [] {
    auto* r = new RuleRegistry();
    r->add(std::make_unique<ConfigErrorRule>());
    r->add(std::make_unique<RequirementStarvationRule>());
    r->add(std::make_unique<WildcardAmbiguityRule>());
    r->add(std::make_unique<DeadOutputRule>());
    r->add(std::make_unique<UnreachableComponentRule>());
    r->add(std::make_unique<MergeFanInRule>());
    r->add(std::make_unique<CycleRule>());
    r->add(std::make_unique<FrameMismatchRule>());
    r->add(std::make_unique<RemotingBoundaryRule>());
    r->add(std::make_unique<CrossLaneEdgeRule>());
    r->add(std::make_unique<EmitAmplificationRule>());
    r->add(std::make_unique<HookEmitReentrancyRule>());
    r->add(std::make_unique<NonMonotonicMergeInputRule>());
    r->add(std::make_unique<AckCycleDeadlockRule>());
    r->add(std::make_unique<LaneStarvationRule>());
    r->add(std::make_unique<HookOrderViolationRule>());
    r->add(std::make_unique<RuntimeRule>(
        "PPS001", "lane-ownership",
        "a graph was driven from a thread other than its bound lane owner "
        "(runtime sanitizer)",
        Severity::kError));
    r->add(std::make_unique<RuntimeRule>(
        "PPS002", "time-regression",
        "a producer's per-channel logical time or timestamp regressed "
        "(runtime sanitizer)",
        Severity::kWarning));
    r->add(std::make_unique<RuntimeRule>(
        "PPS003", "pool-double-release",
        "a provenance buffer returned to the pool was still referenced when "
        "the pool went to reuse it (runtime sanitizer)",
        Severity::kError));
    r->add(std::make_unique<RuntimeRule>(
        "PPS004", "emission-depth",
        "a single external emission cascaded past the configured delivery "
        "bound (runtime sanitizer)",
        Severity::kError));
    r->add(std::make_unique<RuntimeRule>(
        "PPS005", "queue-watermark",
        "a dispatch or lane queue exceeded its depth watermark (runtime "
        "sanitizer)",
        Severity::kWarning));
    r->add(std::make_unique<RuntimeRule>(
        "PPS006", "mutation-during-drain",
        "the graph was mutated while its execution lanes still had tasks "
        "in flight, outside a reconfiguration quiesce window (runtime "
        "sanitizer)",
        Severity::kError));
    r->add(std::make_unique<LaneOverloadRule>());
    r->add(std::make_unique<QueueBoundExceededRule>());
    r->add(std::make_unique<LatencySloInfeasibleRule>());
    r->add(std::make_unique<RateStarvedSinkRule>());
    r->add(std::make_unique<UnboundedFeedbackQueueRule>());
    r->add(std::make_unique<RuntimeRule>(
        "PPM001", "link-duplicate-delivery",
        "the reliable-link model delivered a sample downstream twice or out "
        "of sequence order (model checker)",
        Severity::kError));
    r->add(std::make_unique<RuntimeRule>(
        "PPM002", "link-delivery-liveness",
        "the reliable-link model lost a sample or gave it up below the "
        "retransmission bound despite the loss budget fitting inside it "
        "(model checker)",
        Severity::kError));
    r->add(std::make_unique<RuntimeRule>(
        "PPM003", "hot-swap-isolation",
        "the hot-swap model processed a sample in both predecessor and "
        "successor, mutated the graph outside the fenced quiesce window, "
        "leaked the fence, or lost a sample across cutover/rollback (model "
        "checker)",
        Severity::kError));
    // PPM004 (stale-frozen-plan) is retired with the compiled-plan
    // freeze/thaw lifecycle it modelled; the id stays reserved.
    r->add(std::make_unique<RuntimeRule>(
        "PPM005", "model-budget-exhausted",
        "bounded exploration of a protocol model ran out of its state, "
        "depth, or time budget — the unexplored remainder is unverified, "
        "not clean (model checker)",
        Severity::kNote));
    return r;
  }();
  return *registry;
}

namespace {

/// Minimal triggering sketches, one per catalog id (the completeness test
/// iterates the catalog against this table). Failing config fragments for
/// the static PPV/PPQ rules, runtime scenarios for the PPS sanitizer
/// rules. Component kinds reference the standard perpos-verify registry.
struct ExplainSketch {
  const char* id;
  const char* sketch;
};

constexpr ExplainSketch kSketches[] = {
    {"PPV000",
     "  component gps gps-sensor extra-token-the-factory-rejects\n"
     "  # any line the parser or a factory rejects raises PPV000"},
    {"PPV001",
     "  component app application App PositionFix\n"
     "  # nothing produces PositionFix and nothing is connected to app"},
    {"PPV002",
     "  component gps gps-sensor\n"
     "  component parser nmea-parser\n"
     "  component app application App any   # wildcard input\n"
     "  connect gps app\n"
     "  connect parser app   # two producers match 'any': order-dependent"},
    {"PPV003",
     "  component gps gps-sensor\n"
     "  component app application App RawFragment\n"
     "  connect gps app   # gps's NMEA capability has no consumer"},
    {"PPV004",
     "  component parser nmea-parser\n"
     "  component interp nmea-interpreter\n"
     "  connect parser interp   # subgraph has no source feeding it"},
    {"PPV005",
     "  component kf kalman-filter\n"
     "  # a merge-style consumer with a single producer (or an\n"
     "  # implausibly wide fan-in) trips the arity heuristic"},
    {"PPV006",
     "  connect a b\n"
     "  connect b a   # directed cycle in the reified process"},
    {"PPV007",
     "  # producer declares output_frame()=\"siteB\" while its consumer\n"
     "  # declares input_frame()=\"siteA\"; the edge mixes frames"},
    {"PPV008",
     "  host alpha gps\n"
     "  host beta app\n"
     "  connect gps app   # cut edge carries a type with no wire codec"},
    {"PPV009",
     "  lane fast gps\n"
     "  lane slow app\n"
     "  connect gps app   # edge crosses execution lanes"},
    {"PPV010",
     "  # every component in a feedback region emits >1 sample per input;\n"
     "  # the loop's amplification product exceeds 1x and diverges"},
    {"PPV011",
     "  # a component feature's consume()/produce() hook calls emit(),\n"
     "  # which re-enters the hook chain on the same dispatch"},
    {"PPV012",
     "  # a merge consumer's input arrives via a path that reorders\n"
     "  # samples, so per-producer logical time is not monotonic"},
    {"PPV013",
     "  # reliable (acked) links between hosts form a cycle, so every\n"
     "  # host can end up waiting on a peer's ack"},
    {"PPV014",
     "  lane main gps wifi app1 app2 app3\n"
     "  # one lane serializes several hot sinks; N-1 of them starve"},
    {"PPV015",
     "  # a component feature lists a dependency that is not attached,\n"
     "  # or attached after it, so hooks run out of order"},
    {"PPS001",
     "  runtime: engine.bind_thread(lane) then graph driven from another\n"
     "  thread (e.g. a direct source->push off-lane)"},
    {"PPS002",
     "  runtime: a producer re-emits an older timestamp / sequence on a\n"
     "  channel (clock stepped back, replayed sample)"},
    {"PPS003",
     "  runtime: a provenance buffer returns to the pool while a sample\n"
     "  still holds it (one buffer would serve two samples)"},
    {"PPS004",
     "  runtime: one external emission cascades through emit() chains\n"
     "  past the configured delivery-depth bound"},
    {"PPS005",
     "  runtime: a dispatch or lane queue exceeds its depth watermark\n"
     "  (producer outruns the drain)"},
    {"PPS006",
     "  runtime: graph.remove()/connect()/replace() while the execution\n"
     "  lane still has tasks in flight, outside a LiveReconfigurator\n"
     "  quiesce window (fence first, or use reconfig::LiveReconfigurator)"},
    {"PPQ001",
     "  component gps gps-sensor\n"
     "  component parser nmea-parser\n"
     "  component interp nmea-interpreter\n"
     "  component app application App PositionFix\n"
     "  connect gps parser\n"
     "  connect parser interp\n"
     "  connect interp app\n"
     "  lane main gps parser interp app\n"
     "  budget gps rate=2000\n"
     "  budget interp cost_us=1500   # 2 kHz x 1.5 ms = 3 cores, one lane"},
    {"PPQ002",
     "  component gps gps-sensor\n"
     "  component parser nmea-parser\n"
     "  component interp nmea-interpreter\n"
     "  component app application App PositionFix\n"
     "  connect gps parser\n"
     "  connect parser interp\n"
     "  connect interp app\n"
     "  lane main gps parser interp app\n"
     "  budget * watermark=4 burst=8\n"
     "  budget gps rate=100   # an 8-sample burst overruns the 4-deep lane"},
    {"PPQ003",
     "  component gps gps-sensor\n"
     "  component parser nmea-parser\n"
     "  component interp nmea-interpreter\n"
     "  component app application App PositionFix\n"
     "  connect gps parser\n"
     "  connect parser interp\n"
     "  connect interp app\n"
     "  budget * slo_us=50\n"
     "  budget interp cost_us=1500   # best-case path already misses the SLO"},
    {"PPQ004",
     "  component gps gps-sensor\n"
     "  component parser nmea-parser\n"
     "  component interp nmea-interpreter\n"
     "  component app application App PositionFix\n"
     "  connect gps parser\n"
     "  connect parser interp\n"
     "  connect interp app\n"
     "  budget gps rate=1\n"
     "  budget app min_rate=10   # upstream caps app's input at 1 Hz"},
    {"PPQ005",
     "  # a feedback region whose emit-gain product is >= 1 feeds a\n"
     "  # bounded execution lane; no finite queue watermark can hold it"},
    {"PPM001",
     "  # reliable-link model, dedupe seeded out (--model-mutant=\n"
     "  # link-no-dedupe): drop ACK 1; egress retransmits DATA 1; ingress\n"
     "  # emits seq 1 twice -> duplicate-delivery counterexample"},
    {"PPM002",
     "  # reliable-link model, bound check seeded out (--model-mutant=\n"
     "  # link-skip-retransmit-bound): drop DATA 1; first timeout gives up\n"
     "  # instead of retransmitting -> premature-giveup counterexample"},
    {"PPM003",
     "  # hot-swap model, fence wait seeded out (--model-mutant=\n"
     "  # swap-unfence-early): cutover fires while the worker still has a\n"
     "  # task in flight -> mutation-during-drain (PPS006) counterexample"},
    {"PPM005",
     "  # any model with the budget forced tiny, e.g.\n"
     "  #   perpos-verify --model --model-states=10\n"
     "  # -> exploration truncated; reported as a note, never as clean"},
};

}  // namespace

std::string_view rule_sketch(std::string_view id) noexcept {
  for (const ExplainSketch& entry : kSketches) {
    if (id == entry.id) return entry.sketch;
  }
  return {};
}

}  // namespace perpos::verify
