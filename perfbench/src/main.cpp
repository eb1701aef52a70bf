// perfbench: the end-to-end positioning benchmark driver binary.
//
//   perfbench --workload <gps_fleet|rooms_churn|remote_tracking>
//             --seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]
//
// Runs one workload in this process and prints one JSON object on the last
// line of stdout: correctness counters, the metrics of the run (end-to-end
// metrics untraced; per-layer metrics with --trace 1), build provenance and
// any problems found. Exits 0 only when the outputs matched the reference.

#include "common.hpp"
#include "workloads.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

namespace {

using namespace perfbench;

/// Every per-layer metric of a traced run, with its unit. A workload that
/// does not cross a layer reports 0 for it (e.g. reconfig.* outside
/// rooms_churn, health.* outside remote_tracking).
struct Named {
  const char* name;
  const char* unit;
};
constexpr Named kPerLayer[] = {
    {"core.psl.hop_ns", "ns"},
    {"core.psl.push_ns", "ns"},
    {"core.psl.deliveries_per_sample", "count"},
    {"core.psl.first_push_after_swap_us", "us"},
    {"core.provenance.inputs_per_fix", "count"},
    {"core.pcl.tree_ns", "ns"},
    {"core.pcl.apply_ns", "ns"},
    {"core.pl.deliver_ns", "ns"},
    {"exec.queue_wait_p50_us", "us"},
    {"exec.queue_wait_p99_us", "us"},
    {"exec.task_ns", "ns"},
    {"exec.busy_frac", "ratio"},
    {"nmea.parser_ns", "ns"},
    {"nmea.interpreter_ns", "ns"},
    {"fusion.satfilter_ns", "ns"},
    {"fusion.particle_ns", "ns"},
    {"wifi.positioner_us", "us"},
    {"locmodel.resolver_ns", "ns"},
    {"runtime.egress_ns", "ns"},
    {"runtime.ingress_ns", "ns"},
    {"health.retransmits_per_msg", "ratio"},
    {"health.duplicates_per_msg", "ratio"},
    {"health.radio_msgs_per_fix", "count"},
    {"sim.wire_bytes_per_fix", "bytes"},
    {"sim.events_per_fix", "count"},
    {"reconfig.swap_p50_us", "us"},
    {"reconfig.swap_p99_us", "us"},
    {"reconfig.rollback_us", "us"},
    {"reconfig.lane_stall_us", "us"},
    {"plan.refreezes_per_swap", "count"},
    {"verify.freeze_ms", "ms"},
    {"runtime.assemble_ms", "ms"},
    {"obs.scrape_us", "us"},
    {"loadgen.lag_p99_us", "us"},
    {"loadgen.backlog_max", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.sample_ns", "ns"},
    {"trace.self_sum_frac", "ratio"},
    {"ledger.exec.task_ns", "ns"},
    {"ledger.core.psl_ns", "ns"},
    {"ledger.core.pcl.tree_ns", "ns"},
    {"ledger.core.pcl.apply_ns", "ns"},
    {"ledger.core.pl.deliver_ns", "ns"},
    {"ledger.nmea.parser_ns", "ns"},
    {"ledger.nmea.interpreter_ns", "ns"},
    {"ledger.fusion.satfilter_ns", "ns"},
    {"ledger.fusion.particle_ns", "ns"},
    {"ledger.wifi.positioner_ns", "ns"},
    {"ledger.locmodel.resolver_ns", "ns"},
    {"ledger.runtime.egress_ns", "ns"},
    {"ledger.runtime.ingress_ns", "ns"},
    {"ledger.health.ack_ns", "ns"},
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <gps_fleet|rooms_churn|"
               "remote_tracking> --seed <n> --seconds <s> --trace <0|1> "
               "[--out-dir <dir>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--out-dir") {
      options.out_dir = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || options.seconds <= 0.0) return usage();
  if (!optimised_build()) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a build without optimisation "
                 "(build type %s, flags '%s')\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }

  Report report;
  add_build_notes(report);
  report.note("workload", options.workload);
  report.note("seed", std::to_string(options.seed));
  try {
    if (options.workload == "gps_fleet") {
      run_gps_fleet(options, report);
    } else if (options.workload == "rooms_churn") {
      run_rooms_churn(options, report);
    } else if (options.workload == "remote_tracking") {
      run_remote_tracking(options, report);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    report.problem(std::string("exception: ") + e.what());
  }
  if (options.trace) {
    const std::string json = report.to_json();
    for (const Named& m : kPerLayer) {
      if (json.find(std::string("\"") + m.name + "\":") == std::string::npos) {
        report.metric(m.name, 0.0, m.unit);
      }
    }
  }
  std::printf("%s\n", report.to_json().c_str());
  return report.correct() ? 0 : 1;
}
