#pragma once

// The threaded fleet harness shared by gps_fleet and rooms_churn: one graph
// per target on its own engine lane, 3 engine workers plus this thread as
// load generator and control. Each target's input is a seeded cycle that
// repeats; an inline ExecutionEngine(0) run over two cycles is the output
// oracle every measured lane is compared against.
//
// Phases of one run:
//   saturate - closed loop, fixed in-flight window per lane, fixed sample
//              count: throughput_sps, cpu_ns_per_sample;
//   paced    - open loop at a fixed offered rate, each sample timed from
//              its due time to its PL listener call: latency_p50/p99_us.
// The traced run repeats saturate untraced (for trace.overhead_frac), then
// runs both phases with probes attached.

#include "common.hpp"
#include "perpos/exec/engine.hpp"

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

namespace perpos::core {
struct Sample;
}

namespace perfbench {

/// State of one lane. Fields below `done` are touched only by tasks of the
/// lane (serialized by the engine) or by the generator while idle.
struct LaneState {
  perpos::exec::LaneId lane = 0;
  std::uint64_t posted = 0;  ///< Generator-owned.
  std::atomic<std::uint64_t> done{0};
  /// Set by the control thread after a committed swap; the next task on
  /// the lane reports its push as the first after the swap.
  std::atomic<bool> first_after_swap{false};

  TranscriptCheck check;
  std::vector<Output>* record = nullptr;  ///< Oracle mode: append here.
  std::vector<std::uint32_t>* record_after = nullptr;
  bool record_latency = false;
  /// Paced phase: latencies (us) of this lane's outputs per window of due
  /// time, windows of `window_ns` from `window_start_ns`.
  std::vector<std::vector<float>> latency;
  std::int64_t window_start_ns = 0;
  std::int64_t window_ns = 1;
  bool record_waits = false;
  struct Wait {
    std::int64_t posted_ns;
    float wait_us;
  };
  std::vector<Wait> waits;
  std::int64_t due_ns = 0;  ///< Due time of the task running now.
  double provenance_inputs = 0.0;
  std::uint64_t fixes = 0;

  /// Called from the workload's PL listener.
  void on_output(const Output& out, const perpos::core::Sample& sample);
};

/// One target's graph, owned by the workload.
class FleetTarget {
 public:
  virtual ~FleetTarget() = default;
  /// Push cycle input `pos` into the graph (runs on the lane).
  virtual void push(std::size_t pos) = 0;
  virtual std::uint64_t deliveries() const = 0;
  /// Successful GraphPlan freezes so far (incl. auto re-freezes).
  virtual std::uint64_t plan_freezes() const = 0;
};

/// Set-up timings, collected by the workload's builder.
struct SetupTimes {
  std::vector<double> assemble_ms;
  std::vector<double> freeze_ms;
};

/// Swap statistics, collected by the workload's control action.
struct ControlStats {
  std::vector<double> swap_us;
  std::vector<double> rollback_us;
  std::uint64_t commits = 0;
  std::uint64_t rollbacks = 0;
  std::uint64_t failures = 0;
  struct Window {
    std::size_t target;
    std::int64_t begin_ns;
    std::int64_t end_ns;
  };
  std::vector<Window> windows;
};

class FleetSpec {
 public:
  virtual ~FleetSpec() = default;
  virtual std::size_t targets() const = 0;
  virtual std::size_t cycle_len() const = 0;
  /// Inputs pushed by one engine task (a receiver's burst); divides
  /// cycle_len(). Counts, windows and rates are in inputs, not tasks.
  virtual std::size_t batch() const { return 1; }
  /// In-flight window per lane in the saturate phase.
  virtual std::size_t window() const = 0;
  /// Saturate-phase samples per lane for each second of --seconds.
  virtual std::size_t saturate_per_lane_second() const = 0;
  /// Paced-phase offered rate, samples per second over all lanes.
  virtual double paced_rate() const = 0;
  /// Shared set-up done once per assembly (e.g. the fingerprint survey).
  virtual void prepare_shared() {}
  virtual std::unique_ptr<FleetTarget> build(std::size_t index,
                                             perpos::exec::ExecutionEngine& engine,
                                             perpos::exec::LaneId lane,
                                             LaneState& state, bool probes,
                                             SetupTimes& times) = 0;
  /// Control action, run by the generator every control_every() posts.
  virtual std::size_t control_every() const { return 0; }
  virtual void control(std::vector<std::unique_ptr<FleetTarget>>& targets,
                       std::vector<std::unique_ptr<LaneState>>& lanes,
                       ControlStats& stats) {
    (void)targets;
    (void)lanes;
    (void)stats;
  }
};

/// Run the workload end to end and fill `report`.
void run_fleet(FleetSpec& spec, const Options& options, Report& report);

}  // namespace perfbench
