// perpos-verify: lint PerPos config files with the static analyzer.
//
// Usage:
//   perpos-verify [--format=text|json|sarif] [--output FILE] [--werror]
//                 [--budget] [--model] [--disable RULE]... [--baseline FILE]
//                 [--update-baseline] CONFIG...
//   perpos-verify --model [--model-states=N] [--model-depth=N]
//                 [--model-ms=N] [--model-mutant=NAME]
//   perpos-verify --list-rules
//   perpos-verify --explain RULE
//
// `--explain PPVxxx/PPSxxx/PPQxxx/PPMxxx` prints one rule's full
// description, default severity, and a minimal failing-config sketch (for
// the static rules), the runtime scenario that trips it (for the PPS
// sanitizer rules), or the seeded-bug model scenario (for the PPM
// model-checker rules).
//
// `--model` additionally runs the bounded explicit-state model checker
// over the built-in protocol models (reliable-link in pipelined and
// stop-and-wait/FIFO configurations, hot-swap). Violations
// are PPM errors carrying the shortest counterexample schedule (rendered
// as numbered steps in text, a `trace` array in JSON, and codeFlows in
// SARIF); exploration that exhausts the --model-states/--model-depth/
// --model-ms budget is a PPM005 note — unverified, never silently clean.
// With config files the model findings merge into the (single-file) JSON/
// SARIF document or follow the per-file text reports; `--model` alone
// (zero configs) checks just the models. --model-mutant=NAME seeds a
// deliberate protocol bug (see --explain PPM001..PPM003) for
// mutation-kill testing of the checker itself.
//
// `--budget` appends the quantitative capacity report (per-node rates,
// per-lane utilization and queue bounds, per-path latency) to text output,
// and embeds it as the "budget" object in JSON / the run property bag in
// SARIF. The PPQ findings themselves are always on — --budget only adds
// the full report behind them.
//
// Exit codes: 0 = no findings that gate, 1 = errors (or warnings under
// --werror), 2 = usage / IO problem. JSON and SARIF output describe one
// config, so those formats accept exactly one CONFIG argument (CI loops
// over files); text mode accepts any number.
//
// Baselines adopt the analyzer into a codebase with existing findings:
// `--update-baseline --baseline FILE` records every current finding's
// fingerprint (rule id + node path); later runs with `--baseline FILE`
// suppress exactly those findings, so only regressions gate. Fingerprints
// deliberately ignore message text and line numbers — renaming a config
// line or rewording a rule does not invalidate a baseline, but a finding
// moving to a new component does. PPM findings fingerprint as rule id +
// model + property + an 8-hex-digit counterexample-trace hash: accepting
// one counterexample does not hide a different schedule violating the
// same property.
//
// Configs are instantiated against the standard kind registry shared with
// perpos-plan (standard_registry.hpp).

#include "standard_registry.hpp"

#include "perpos/verify/budget.hpp"
#include "perpos/verify/emit.hpp"
#include "perpos/verify/protocol_models.hpp"
#include "perpos/verify/verify.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace perpos;

namespace {

using tools::Fixtures;
using tools::standard_registry;

int list_rules() {
  const verify::RuleRegistry& catalog = verify::RuleRegistry::default_catalog();
  for (const auto& rule : catalog.rules()) {
    std::printf("%s  %-22s  %-7s  %s\n", std::string(rule->id()).c_str(),
                std::string(rule->name()).c_str(),
                std::string(verify::severity_name(rule->default_severity()))
                    .c_str(),
                std::string(rule->description()).c_str());
  }
  return 0;
}

int explain_rule(const std::string& id) {
  const verify::RuleRegistry& catalog = verify::RuleRegistry::default_catalog();
  const verify::Rule* rule = catalog.find(id);
  if (rule == nullptr) {
    std::fprintf(stderr,
                 "unknown rule '%s' (see --list-rules for the catalog)\n",
                 id.c_str());
    return 2;
  }
  std::printf("%s  %s  [%s]\n", std::string(rule->id()).c_str(),
              std::string(rule->name()).c_str(),
              std::string(verify::severity_name(rule->default_severity()))
                  .c_str());
  std::printf("\n  %s\n", std::string(rule->description()).c_str());
  // Sketches live in the verify library next to the rules themselves so
  // the catalog-completeness test can hold them to the same coverage bar.
  const std::string_view sketch = verify::rule_sketch(id);
  if (!sketch.empty()) {
    const char* heading = "minimal failing config";
    if (id.rfind("PPS", 0) == 0) heading = "triggering scenario";
    if (id.rfind("PPM", 0) == 0) heading = "minimal failing model";
    std::printf("\n%s:\n%.*s\n", heading, static_cast<int>(sketch.size()),
                sketch.data());
  }
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--format=text|json|sarif] [--output FILE] [--werror]\n"
      "          [--budget] [--model] [--disable RULE]... [--baseline FILE]\n"
      "          [--update-baseline] CONFIG...\n"
      "       %s --model [--model-states=N] [--model-depth=N]\n"
      "          [--model-ms=N] [--model-mutant=NAME]\n"
      "       %s --list-rules\n"
      "       %s --explain RULE\n",
      argv0, argv0, argv0, argv0);
  return 2;
}

/// The stable identity of a finding for baseline matching: rule id + node
/// path (component name, edge, or config line position) — not the message,
/// which rewords across analyzer versions. Protocol-model findings key on
/// model + property + a short hash of the counterexample schedule instead:
/// the location fields mean nothing for them, and the trace hash keeps a
/// baselined counterexample from hiding a *different* schedule breaking
/// the same property.
std::string fingerprint(const verify::Diagnostic& d) {
  if (d.rule_id.rfind("PPM", 0) == 0) {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a over the schedule.
    const auto mix = [&h](std::string_view text) {
      for (const char c : text) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ull;
      }
      h ^= '\n';
      h *= 1099511628211ull;
    };
    for (const verify::TraceStep& step : d.trace) {
      mix(step.actor);
      mix(step.label);
    }
    char hash8[16];
    std::snprintf(hash8, sizeof hash8, "%08llx",
                  static_cast<unsigned long long>(h >> 32));
    return d.rule_id + " " + d.component_name + "/" + d.property + "@" +
           hash8;
  }
  std::string location;
  if (!d.component_name.empty()) {
    location = d.component_name;
  } else if (d.component.has_value()) {
    location = "#" + std::to_string(*d.component);
  } else if (d.edge.has_value()) {
    location = "#" + std::to_string(d.edge->first) + "->#" +
               std::to_string(d.edge->second);
  } else if (d.line.has_value()) {
    location = "line:" + std::to_string(*d.line);
  } else {
    location = "<config>";
  }
  return d.rule_id + " " + location;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string output_path;
  std::string baseline_path;
  bool update_baseline = false;
  bool werror = false;
  bool budget = false;
  bool model = false;
  verify::ModelCheckOptions model_options;
  verify::Options options;
  std::vector<std::string> files;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") return list_rules();
    if (arg.rfind("--explain=", 0) == 0) return explain_rule(arg.substr(10));
    if (arg == "--explain") {
      if (i + 1 >= argc) {
        std::fprintf(stderr,
                     "--explain needs a rule id (PPVxxx/PPSxxx/PPQxxx)\n");
        return 2;
      }
      return explain_rule(argv[i + 1]);
    }
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
    } else if (arg == "--format" && i + 1 < argc) {
      format = argv[++i];
    } else if (arg.rfind("--output=", 0) == 0) {
      output_path = arg.substr(9);
    } else if (arg == "--output" && i + 1 < argc) {
      output_path = argv[++i];
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg == "--budget") {
      budget = true;
    } else if (arg == "--model") {
      model = true;
    } else if (arg.rfind("--model-states=", 0) == 0) {
      model = true;
      model_options.budget.max_states =
          static_cast<std::size_t>(std::stoull(arg.substr(15)));
    } else if (arg.rfind("--model-depth=", 0) == 0) {
      model = true;
      model_options.budget.max_depth =
          static_cast<std::size_t>(std::stoull(arg.substr(14)));
    } else if (arg.rfind("--model-ms=", 0) == 0) {
      model = true;
      model_options.budget.max_ms = std::stod(arg.substr(11));
    } else if (arg.rfind("--model-mutant=", 0) == 0) {
      model = true;
      const std::string name = arg.substr(15);
      const auto mutant = verify::parse_model_mutant(name);
      if (!mutant.has_value()) {
        std::string known;
        for (const std::string_view m : verify::model_mutant_names()) {
          if (!known.empty()) known += ", ";
          known += std::string(m);
        }
        std::fprintf(stderr, "unknown model mutant '%s' (known: %s)\n",
                     name.c_str(), known.c_str());
        return 2;
      }
      model_options.mutant = *mutant;
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    } else if (arg == "--baseline" && i + 1 < argc) {
      baseline_path = argv[++i];
    } else if (arg == "--update-baseline") {
      update_baseline = true;
    } else if (arg.rfind("--disable=", 0) == 0) {
      options.disabled_rules.push_back(arg.substr(10));
    } else if (arg == "--disable" && i + 1 < argc) {
      options.disabled_rules.push_back(argv[++i]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      return usage(argv[0]);
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && !model) return usage(argv[0]);
  if (format != "text" && format != "json" && format != "sarif") {
    std::fprintf(stderr, "unknown format '%s'\n", format.c_str());
    return usage(argv[0]);
  }
  if (format != "text" && !files.empty() && files.size() != 1) {
    std::fprintf(stderr,
                 "%s output describes one config; got %zu files "
                 "(invoke once per file)\n",
                 format.c_str(), files.size());
    return 2;
  }
  if (update_baseline && baseline_path.empty()) {
    std::fprintf(stderr, "--update-baseline needs --baseline FILE\n");
    return 2;
  }

  // Load the accepted-findings baseline (one fingerprint per line; '#'
  // starts a comment). Missing file + --update-baseline = first adoption.
  std::set<std::string> baseline;
  if (!baseline_path.empty() && !update_baseline) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      while (!line.empty() && (line.back() == ' ' || line.back() == '\r')) {
        line.pop_back();
      }
      if (!line.empty()) baseline.insert(line);
    }
  }

  Fixtures fx;
  const runtime::ComponentFactoryRegistry registry = standard_registry(fx);

  std::ostringstream rendered;
  std::set<std::string> current_fingerprints;
  bool gate = false;

  // --model: explore the built-in protocol models once per invocation;
  // the findings join the ordinary stream — fingerprinted, suppressible
  // via the baseline, gating on error like any other rule family.
  verify::Report model_report;
  if (model) {
    model_report = verify::check_protocol_models(model_options);
    for (const verify::Diagnostic& d : model_report.diagnostics) {
      current_fingerprints.insert(fingerprint(d));
    }
    if (!baseline.empty()) {
      auto& diags = model_report.diagnostics;
      diags.erase(std::remove_if(diags.begin(), diags.end(),
                                 [&baseline](const verify::Diagnostic& d) {
                                   return baseline.count(fingerprint(d)) > 0;
                                 }),
                  diags.end());
    }
    gate = gate || !model_report.ok() ||
           (werror && model_report.warnings() > 0);
  }

  for (const std::string& path : files) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot read '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();

    verify::ConfigVerification result =
        verify::verify_config(text.str(), registry, options);
    for (const verify::Diagnostic& d : result.report.diagnostics) {
      current_fingerprints.insert(fingerprint(d));
    }
    if (!baseline.empty()) {
      auto& diags = result.report.diagnostics;
      diags.erase(std::remove_if(diags.begin(), diags.end(),
                                 [&baseline](const verify::Diagnostic& d) {
                                   return baseline.count(fingerprint(d)) > 0;
                                 }),
                  diags.end());
    }
    gate = gate || !result.report.ok() ||
           (werror && result.report.warnings() > 0);

    // --budget: re-run the quantitative pass the PPQ rules ran internally,
    // now keeping the full report for output. verify_config hands back the
    // effective options (config budget/lane/host lines folded in), so this
    // sees exactly what the rules saw.
    std::optional<verify::BudgetReport> budget_report;
    if (budget) {
      budget_report =
          verify::analyze_budget(result.model, result.options);
    }
    const verify::BudgetReport* budget_ptr =
        budget_report.has_value() ? &*budget_report : nullptr;

    // JSON/SARIF describe one config per document (enforced above), so
    // model findings fold into that single document — one SARIF upload
    // carries static, quantitative, and model results together.
    if (model && format != "text") {
      result.report.diagnostics.insert(result.report.diagnostics.end(),
                                       model_report.diagnostics.begin(),
                                       model_report.diagnostics.end());
    }

    if (format == "json") {
      rendered << verify::to_json(result.report, budget_ptr) << '\n';
    } else if (format == "sarif") {
      rendered << verify::to_sarif(result.report,
                                   verify::RuleRegistry::default_catalog(),
                                   path, budget_ptr)
               << '\n';
    } else {
      if (files.size() > 1) rendered << path << ":\n";
      rendered << verify::to_text(result.report);
      if (budget_ptr != nullptr) {
        rendered << verify::budget_to_text(*budget_ptr);
      }
      if (files.size() > 1) rendered << '\n';
    }
  }

  // Text mode keeps the model section separate from the per-file reports;
  // with no configs at all, the model report is the whole document.
  if (model && (files.empty() || format == "text")) {
    if (format == "json") {
      rendered << verify::to_json(model_report, nullptr) << '\n';
    } else if (format == "sarif") {
      rendered << verify::to_sarif(model_report,
                                   verify::RuleRegistry::default_catalog(),
                                   "", nullptr)
               << '\n';
    } else {
      if (!files.empty()) rendered << "protocol models:\n";
      rendered << verify::to_text(model_report);
    }
  }

  if (update_baseline) {
    std::ofstream out(baseline_path);
    if (!out) {
      std::fprintf(stderr, "cannot write baseline '%s'\n",
                   baseline_path.c_str());
      return 2;
    }
    out << "# perpos-verify baseline: accepted findings, one 'RULE "
           "location' per line.\n";
    for (const std::string& fp : current_fingerprints) out << fp << '\n';
    std::fprintf(stderr, "baseline '%s': %zu finding(s) recorded\n",
                 baseline_path.c_str(), current_fingerprints.size());
    return 0;
  }

  if (output_path.empty()) {
    std::cout << rendered.str();
  } else {
    std::ofstream out(output_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", output_path.c_str());
      return 2;
    }
    out << rendered.str();
  }
  return gate ? 1 : 0;
}
