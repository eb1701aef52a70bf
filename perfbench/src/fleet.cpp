#include "fleet.hpp"

#include "perpos/core/sample.hpp"
#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <functional>
#include <string>
#include <thread>

namespace perfbench {

using perpos::exec::ExecutionEngine;

void LaneState::on_output(const Output& out, const perpos::core::Sample& sample) {
  if (record != nullptr) {
    record->push_back(out);
  } else {
    check.check(out);
  }
  if (record_latency) {
    const auto w = std::clamp<std::int64_t>(
        (due_ns - window_start_ns) / window_ns, 0,
        static_cast<std::int64_t>(latency.size()) - 1);
    latency[static_cast<std::size_t>(w)].push_back(
        static_cast<float>((now_ns() - due_ns) / 1000.0));
  }
  provenance_inputs +=
      sample.inputs ? static_cast<double>(sample.inputs->size()) : 0.0;
  ++fixes;
}

namespace {

constexpr std::size_t kWorkers = 3;
/// Each phase is measured in this many short slices (one set-up repetition
/// before each saturate slice); every end-to-end metric is the quiet()
/// estimate over its slices.
constexpr int kSlices = 120;
/// A paced phase whose generator ran later than this (p99) is invalid.
constexpr double kLagLimitUs = 2000.0;
constexpr double kPacedShare = 0.45;  ///< Of --seconds, untraced run.
constexpr double kTracedPacedShare = 0.2;
constexpr std::size_t kKeepSpans = 20000;
/// Latency recorded for an output that never arrived.
constexpr double kLostLatencyUs = 1e9;

struct Fleet {
  std::vector<std::unique_ptr<LaneState>> lanes;
  std::vector<std::unique_ptr<FleetTarget>> targets;
};

Fleet assemble(FleetSpec& spec, ExecutionEngine& engine, bool probes,
               SetupTimes& times,
               const std::vector<CycleTranscript>* transcripts) {
  Fleet f;
  spec.prepare_shared();
  for (std::size_t i = 0; i < spec.targets(); ++i) {
    auto lane = std::make_unique<LaneState>();
    lane->lane = engine.create_lane("target-" + std::to_string(i));
    if (transcripts != nullptr) lane->check.expect = &(*transcripts)[i];
    f.targets.push_back(
        spec.build(i, engine, lane->lane, *lane, probes, times));
    f.lanes.push_back(std::move(lane));
  }
  return f;
}

/// Post the lane's next `batch` cycle inputs as one engine task.
void post_input(ExecutionEngine& engine, LaneState& st, FleetTarget& target,
                std::size_t cycle_len, std::size_t batch, std::int64_t due_ns) {
  const std::uint64_t index = st.posted;
  st.posted += batch;
  const std::int64_t posted_ns = now_ns();
  engine.post(st.lane, [&st, &target, index, cycle_len, batch, due_ns,
                        posted_ns] {
    const std::int64_t start = now_ns();
    st.due_ns = due_ns;
    if (st.record_waits) {
      st.waits.push_back(LaneState::Wait{
          posted_ns, static_cast<float>((start - posted_ns) / 1000.0)});
    }
    const bool first =
        st.first_after_swap.load(std::memory_order_relaxed) &&
        st.first_after_swap.exchange(false, std::memory_order_acq_rel);
    Tracer::begin_root(index, first);
    for (std::size_t k = 0; k < batch; ++k) {
      Tracer::record(Ev::kPushBegin);
      target.push(static_cast<std::size_t>((index + k) % cycle_len));
      Tracer::record(Ev::kPushEnd);
      if (st.record_after != nullptr) {
        st.record_after->push_back(static_cast<std::uint32_t>(st.record->size()));
      }
    }
    Tracer::end_root();
    st.done.fetch_add(batch, std::memory_order_release);
  });
}

struct Generator {
  FleetSpec& spec;
  ExecutionEngine& engine;
  Fleet& fleet;
  ControlStats& control;
  std::size_t since_control = 0;
  /// When the last control action returned: samples due before it were
  /// late because the generator was busy reconfiguring, not overloaded.
  std::int64_t control_end_ns = 0;

  void post(std::size_t lane, std::int64_t due_ns) {
    post_input(engine, *fleet.lanes[lane], *fleet.targets[lane],
               spec.cycle_len(), spec.batch(), due_ns);
    since_control += spec.batch();
    if (spec.control_every() != 0 && since_control >= spec.control_every()) {
      since_control = 0;
      spec.control(fleet.targets, fleet.lanes, control);
      control_end_ns = now_ns();
    }
  }
};

struct SaturateResult {
  double wall_s = 0.0;
  double cpu_ns = 0.0;
  std::uint64_t samples = 0;
};

/// Closed loop: keep `window` samples in flight per lane until every lane
/// posted `quota` more samples.
SaturateResult saturate(Generator& gen, std::uint64_t quota) {
  Fleet& f = gen.fleet;
  const std::size_t window = gen.spec.window();
  std::vector<std::uint64_t> goal;
  std::uint64_t posted_before = 0;
  for (auto& st : f.lanes) {
    goal.push_back(st->posted + quota);
    posted_before += st->posted;
  }
  const std::int64_t cpu0 = process_cpu_ns();
  const std::int64_t t0 = now_ns();
  bool pending = true;
  while (pending) {
    pending = false;
    bool progressed = false;
    for (std::size_t i = 0; i < f.lanes.size(); ++i) {
      LaneState& st = *f.lanes[i];
      while (st.posted < goal[i] &&
             st.posted - st.done.load(std::memory_order_acquire) < window) {
        gen.post(i, now_ns());
        progressed = true;
      }
      if (st.posted < goal[i]) pending = true;
    }
    if (pending && !progressed) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }
  gen.engine.run_until_idle();
  SaturateResult r;
  r.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  r.cpu_ns = static_cast<double>(process_cpu_ns() - cpu0);
  for (auto& st : f.lanes) r.samples += st->posted;
  r.samples -= posted_before;
  return r;
}

/// The saturate phase in kSlices slices of `quota` / kSlices samples per
/// lane, running `between` (a set-up repetition) before each slice.
std::vector<SaturateResult> saturate_slices(Generator& gen, std::uint64_t quota,
                                            const std::function<void()>& between) {
  std::vector<SaturateResult> slices;
  const std::uint64_t per_slice = std::max<std::uint64_t>(1, quota / kSlices);
  for (int i = 0; i < kSlices; ++i) {
    between();
    slices.push_back(saturate(gen, per_slice));
  }
  return slices;
}

struct PacedResult {
  /// Per window: p99 of the generator's lateness, and of the lateness of
  /// samples not held up by a control action (whether the generator itself
  /// kept up).
  std::vector<double> lag_p99_us;
  std::vector<double> own_lag_p99_us;
  std::size_t backlog_max = 0;
};

/// Open loop: task k (one batch of inputs) is due at start + k * batch /
/// rate, on lane k mod lanes. Latencies are kept per window of due time.
PacedResult paced(Generator& gen, double seconds) {
  Fleet& f = gen.fleet;
  const double rate = gen.spec.paced_rate();
  const auto batch = static_cast<double>(gen.spec.batch());
  const auto n = static_cast<std::uint64_t>(rate * seconds / batch);
  const double period_ns = 1e9 * batch / rate;
  const std::int64_t start = now_ns() + 1'000'000;
  const auto window_ns = static_cast<std::int64_t>(
      static_cast<double>(n) * period_ns / kSlices) + 1;
  for (auto& st : f.lanes) {
    st->latency.assign(kSlices, {});
    st->window_start_ns = start;
    st->window_ns = window_ns;
  }
  PacedResult r;
  std::vector<LogHistogram> lag(kSlices);
  std::vector<LogHistogram> own_lag(kSlices);
  for (std::uint64_t k = 0; k < n; ++k) {
    const std::int64_t due =
        start + static_cast<std::int64_t>(static_cast<double>(k) * period_ns);
    const auto w = static_cast<std::size_t>(std::min<std::int64_t>(
        (due - start) / window_ns, kSlices - 1));
    if (now_ns() < due) sleep_until_ns(due);
    const double late = static_cast<double>(now_ns() - due) / 1000.0;
    lag[w].add(late);
    if (due > gen.control_end_ns) own_lag[w].add(late);
    gen.post(static_cast<std::size_t>(k % f.lanes.size()), due);
  }
  for (int w = 0; w < kSlices; ++w) {
    r.lag_p99_us.push_back(lag[w].quantile(0.99));
    if (own_lag[w].count() > 0) r.own_lag_p99_us.push_back(own_lag[w].quantile(0.99));
  }
  for (auto& st : f.lanes) {
    r.backlog_max = std::max(r.backlog_max, gen.engine.lane_depth(st->lane));
  }
  gen.engine.run_until_idle();
  return r;
}

/// Correctness of a fleet: mismatched, lost or duplicated outputs.
std::uint64_t fleet_failures(const Fleet& f) {
  std::uint64_t failures = 0;
  for (const auto& st : f.lanes) failures += st->check.failures(st->posted);
  return failures;
}

std::uint64_t fleet_posted(const Fleet& f) {
  std::uint64_t n = 0;
  for (const auto& st : f.lanes) n += st->posted;
  return n;
}

/// Paced-phase latencies of every lane per window of due time; lost outputs
/// count as missing the limit in every window.
std::vector<std::vector<double>> latency_windows(
    const Fleet& f, const std::vector<std::uint64_t>& posted_before) {
  std::vector<std::vector<double>> windows(kSlices);
  std::uint64_t lost = 0;
  for (std::size_t i = 0; i < f.lanes.size(); ++i) {
    const LaneState& st = *f.lanes[i];
    std::uint64_t got = 0;
    for (std::size_t w = 0; w < st.latency.size(); ++w) {
      windows[w].insert(windows[w].end(), st.latency[w].begin(), st.latency[w].end());
      got += st.latency[w].size();
    }
    const std::uint64_t expected = st.check.expect->expected_after(st.posted) -
                                   st.check.expect->expected_after(posted_before[i]);
    if (expected > got) lost += expected - got;
  }
  for (auto& w : windows) w.insert(w.end(), lost, kLostLatencyUs);
  return windows;
}

/// quiet() over slices of a per-slice statistic.
template <typename T, typename F>
double quiet_of(const std::vector<T>& slices, F stat, bool higher_is_better) {
  std::vector<double> v;
  for (const T& s : slices) v.push_back(stat(s));
  return quiet(std::move(v), higher_is_better);
}

/// Per swap: the longest queue wait of a task posted to the fenced lane
/// while the swap ran.
void lane_stalls(const Fleet& f, const ControlStats& control,
                 std::size_t first_window, std::vector<double>& out) {
  for (std::size_t w = first_window; w < control.windows.size(); ++w) {
    const auto& win = control.windows[w];
    const auto& waits = f.lanes[win.target]->waits;
    double worst = 0.0;
    auto it = std::lower_bound(
        waits.begin(), waits.end(), win.begin_ns,
        [](const LaneState::Wait& x, std::int64_t t) { return x.posted_ns < t; });
    for (; it != waits.end() && it->posted_ns <= win.end_ns; ++it) {
      worst = std::max(worst, static_cast<double>(it->wait_us));
    }
    out.push_back(worst);
  }
}

std::vector<CycleTranscript> run_oracle(FleetSpec& spec, Report& report) {
  const std::size_t n = spec.targets();
  const std::size_t cycle = spec.cycle_len();
  std::vector<CycleTranscript> transcripts(n);
  std::vector<std::vector<Output>> outputs(n);
  std::vector<std::vector<std::uint32_t>> after(n);
  ExecutionEngine inline_engine(0);
  SetupTimes unused;
  Fleet f = assemble(spec, inline_engine, false, unused, nullptr);
  for (std::size_t i = 0; i < n; ++i) {
    f.lanes[i]->record = &outputs[i];
    f.lanes[i]->record_after = &after[i];
  }
  for (std::size_t pos = 0; pos < 2 * cycle; pos += spec.batch()) {
    for (std::size_t i = 0; i < n; ++i) {
      post_input(inline_engine, *f.lanes[i], *f.targets[i], cycle, spec.batch(), 0);
    }
  }
  inline_engine.run_until_idle();
  for (std::size_t i = 0; i < n; ++i) {
    bool ok = false;
    transcripts[i] =
        CycleTranscript::from_two_cycles(outputs[i], after[i], cycle, ok);
    if (!ok) {
      report.problem("oracle: target " + std::to_string(i) +
                     " does not repeat its outputs per input cycle");
    }
  }
  return transcripts;
}

double sum_deliveries(const Fleet& f) {
  double n = 0;
  for (const auto& t : f.targets) n += static_cast<double>(t->deliveries());
  return n;
}

double sum_freezes(const Fleet& f) {
  double n = 0;
  for (const auto& t : f.targets) n += static_cast<double>(t->plan_freezes());
  return n;
}

void report_swaps(Report& report, const ControlStats& control) {
  report.metric("reconfig.swap_p50_us", percentile(control.swap_us, 0.5), "us");
  report.metric("reconfig.swap_p99_us", percentile(control.swap_us, 0.99), "us");
  report.metric("reconfig.rollback_us", median(control.rollback_us), "us");
}

}  // namespace

void run_fleet(FleetSpec& spec, const Options& options, Report& report) {
  const std::vector<CycleTranscript> transcripts = run_oracle(spec, report);
  if (!report.correct()) return;

  ExecutionEngine engine(kWorkers);
  std::vector<double> setup_s;
  SetupTimes times;
  const auto setup_rep = [&] {
    const std::int64_t t0 = now_ns();
    Fleet extra = assemble(spec, engine, false, times, &transcripts);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  };
  const std::int64_t t0 = now_ns();
  Fleet fleet = assemble(spec, engine, false, times, &transcripts);
  setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  const auto quota = static_cast<std::uint64_t>(std::max(
      1.0, std::round(static_cast<double>(spec.saturate_per_lane_second()) *
                      options.seconds)));
  ControlStats control;

  if (!options.trace) {
    Generator gen{spec, engine, fleet, control};
    const std::vector<SaturateResult> sat = saturate_slices(gen, quota, setup_rep);
    std::vector<std::uint64_t> before;
    for (auto& st : fleet.lanes) {
      st->record_latency = true;
      before.push_back(st->posted);
    }
    const PacedResult pac = paced(gen, kPacedShare * options.seconds);
    const double lag_p99 = median(pac.lag_p99_us);
    const double own_lag_p99 = median(pac.own_lag_p99_us);
    report.attempted = fleet_posted(fleet) + control.commits + control.rollbacks;
    report.failed = fleet_failures(fleet) + control.failures;
    report.valid = own_lag_p99 <= kLagLimitUs;
    const auto windows = latency_windows(fleet, before);
    report.metric("setup_s", quiet(setup_s, false), "s");
    report.metric("throughput_sps", quiet_of(sat, [](const SaturateResult& r) {
                    return static_cast<double>(r.samples) / r.wall_s;
                  }, true),
                  "samples/s");
    report.metric("cpu_ns_per_sample", quiet_of(sat, [](const SaturateResult& r) {
                    return r.cpu_ns / static_cast<double>(r.samples);
                  }, false),
                  "ns");
    // Latency percentiles over the pooled quietest tenth of the windows,
    // ranked by their p99: a host stall spoils the tail of its window.
    std::vector<double> window_p99;
    for (const auto& w : windows) window_p99.push_back(percentile(w, 0.99));
    std::vector<double> pool;
    for (std::size_t i : quietest(window_p99, 0.1)) {
      pool.insert(pool.end(), windows[i].begin(), windows[i].end());
    }
    report.metric("latency_p50_us", percentile(pool, 0.5), "us");
    report.metric("latency_p99_us", percentile(pool, 0.99), "us");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.note("latency_samples_pooled", std::to_string(pool.size()));
    double worst_p99 = 0.0;
    for (const auto& w : windows) worst_p99 = std::max(worst_p99, percentile(w, 0.99));
    report.note("latency_worst_window_p99_us", std::to_string(worst_p99));
    report.note("loadgen_lag_p99_us", std::to_string(lag_p99));
    report.note("loadgen_own_lag_p99_us", std::to_string(own_lag_p99));
    report.note("paced_backlog_max", std::to_string(pac.backlog_max));
    report.note("swaps_committed", std::to_string(control.commits));
    return;
  }

  // Traced run: untraced baseline on a probe-free assembly, then the same
  // phases on an assembly with every probe attached.
  double base_tput = 0.0;
  {
    Generator gen{spec, engine, fleet, control};
    const SaturateResult base = saturate(gen, quota / 2);
    base_tput = static_cast<double>(base.samples) / base.wall_s;
    report.attempted += fleet_posted(fleet);
    report.failed += fleet_failures(fleet);
  }
  fleet = Fleet{};
  control = ControlStats{};
  fleet = assemble(spec, engine, true, times, &transcripts);
  Generator gen{spec, engine, fleet, control};
  for (auto& st : fleet.lanes) st->record_waits = true;

  const double deliveries0 = sum_deliveries(fleet);
  const double freezes0 = sum_freezes(fleet);
  tracer().start(kKeepSpans);
  const SaturateResult sat = saturate(gen, quota / 2);
  LayerTotals totals = tracer().stop();
  const std::vector<Span> spans = tracer().spans();
  const double deliveries = sum_deliveries(fleet) - deliveries0;
  std::vector<double> stalls;
  lane_stalls(fleet, control, 0, stalls);
  const std::size_t sat_windows = control.windows.size();
  for (auto& st : fleet.lanes) st->waits.clear();

  tracer().start(0);
  const PacedResult pac = paced(gen, kTracedPacedShare * options.seconds);
  const LayerTotals paced_totals = tracer().stop();
  lane_stalls(fleet, control, sat_windows, stalls);
  std::vector<double> waits;
  double provenance = 0.0;
  double fixes = 0.0;
  for (auto& st : fleet.lanes) {
    for (const auto& w : st->waits) waits.push_back(w.wait_us);
    provenance += st->provenance_inputs;
    fixes += static_cast<double>(st->fixes);
  }
  report.attempted += fleet_posted(fleet) + control.commits + control.rollbacks;
  report.failed += fleet_failures(fleet) + control.failures;

  const double traced_tput = static_cast<double>(sat.samples) / sat.wall_s;
  report_layers(report, totals, sat.samples);
  report.metric("core.psl.deliveries_per_sample",
                deliveries / static_cast<double>(sat.samples), "count");
  report.metric("exec.busy_frac",
                totals.root_ns / (static_cast<double>(kWorkers) * sat.wall_s * 1e9),
                "ratio");
  totals.merge(paced_totals);
  report.metric("core.psl.first_push_after_swap_us",
                totals.first_pushes_after_mark == 0
                    ? 0.0
                    : totals.first_push_after_mark_ns /
                          static_cast<double>(totals.first_pushes_after_mark) /
                          1000.0,
                "us");
  report.metric("core.provenance.inputs_per_fix",
                fixes > 0 ? provenance / fixes : 0.0, "count");
  report.metric("exec.queue_wait_p50_us", percentile(waits, 0.5), "us");
  report.metric("exec.queue_wait_p99_us", percentile(waits, 0.99), "us");
  report_swaps(report, control);
  report.metric("reconfig.lane_stall_us", median(stalls), "us");
  const double swaps = static_cast<double>(control.commits + control.rollbacks);
  report.metric("plan.refreezes_per_swap",
                swaps > 0 ? (sum_freezes(fleet) - freezes0) / swaps : 0.0,
                "count");
  report.metric("verify.freeze_ms", median(times.freeze_ms), "ms");
  report.metric("runtime.assemble_ms", median(times.assemble_ms), "ms");
  report.metric("loadgen.lag_p99_us", median(pac.lag_p99_us), "us");
  report.metric("loadgen.backlog_max", static_cast<double>(pac.backlog_max),
                "count");
  report.metric("trace.overhead_frac", 1.0 - traced_tput / base_tput, "ratio");
  if (!options.out_dir.empty()) {
    const std::string path = options.out_dir + "/trace-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    if (write_spans(path, spans)) report.note("trace_file", path);
  }
}

}  // namespace perfbench
