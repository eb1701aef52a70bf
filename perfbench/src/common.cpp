#include "common.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_of(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t process_cpu_ns() { return clock_of(CLOCK_PROCESS_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void sleep_until_ns(std::int64_t deadline_ns) {
  constexpr std::int64_t kSpin = 80'000;
  const std::int64_t left = deadline_ns - now_ns();
  if (left > kSpin) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(left - kSpin));
  }
  while (now_ns() < deadline_ns) {
  }
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

std::vector<std::size_t> quietest(const std::vector<double>& keys, double share) {
  std::vector<std::size_t> order(keys.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return keys[a] < keys[b]; });
  const auto keep = static_cast<std::size_t>(
      std::ceil(share * static_cast<double>(order.size())));
  order.resize(std::min(order.size(), std::max<std::size_t>(1, keep)));
  return order;
}

double quiet(std::vector<double> values, bool higher_is_better) {
  if (values.empty()) return 0.0;
  if (higher_is_better) {
    for (double& v : values) v = -v;
  }
  double sum = 0.0;
  const std::vector<std::size_t> best = quietest(values, 0.25);
  for (std::size_t i : best) sum += values[i];
  const double mean = sum / static_cast<double>(best.size());
  return higher_is_better ? -mean : mean;
}

void LogHistogram::add(double value) {
  const double x = std::log1p(std::max(value, 0.0)) * kPerE;
  ++buckets_[static_cast<std::size_t>(std::min<double>(x, kBuckets - 1))];
  ++count_;
}

double LogHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count_ - 1));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[static_cast<std::size_t>(i)];
    if (seen > rank) return std::expm1((i + 0.5) / kPerE);
  }
  return std::expm1((kBuckets - 0.5) / kPerE);
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    problem("metric " + name + " is not finite");
    value = 0.0;
  }
  metrics_.push_back(Metric{name, value, unit});
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::problem(const std::string& what) { problems_.push_back(what); }

namespace {
std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}
}  // namespace

std::string Report::to_json() const {
  std::string out = "{\"correct\":";
  out += correct() ? "true" : "false";
  out += ",\"valid\":";
  out += valid ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(attempted);
  out += ",\"failed\":" + std::to_string(failed);
  out += ",\"metrics\":{";
  char value[64];
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    std::snprintf(value, sizeof(value), "%.17g", metrics_[i].value);
    if (i > 0) out += ',';
    out += quoted(metrics_[i].name);
    out += ":{\"value\":";
    out += value;
    out += ",\"unit\":";
    out += quoted(metrics_[i].unit);
    out += '}';
  }
  out += "},\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(notes_[i].first);
    out += ':';
    out += quoted(notes_[i].second);
  }
  out += "},\"problems\":[";
  for (std::size_t i = 0; i < problems_.size(); ++i) {
    if (i > 0) out += ',';
    out += quoted(problems_[i]);
  }
  out += "]}";
  return out;
}

std::uint64_t CycleTranscript::expected_after(std::uint64_t inputs) const {
  const std::uint64_t cycle = prefix.size();
  if (cycle == 0) return 0;
  const std::uint64_t full = inputs / cycle;
  const std::uint64_t rest = inputs % cycle;
  return full * outputs.size() + (rest == 0 ? 0 : prefix[rest - 1]);
}

CycleTranscript CycleTranscript::from_two_cycles(
    const std::vector<Output>& outputs, const std::vector<std::uint32_t>& after,
    std::size_t cycle_len, bool& ok) {
  CycleTranscript t;
  ok = after.size() == 2 * cycle_len && cycle_len > 0;
  if (!ok) return t;
  const std::uint32_t per_cycle = after[cycle_len - 1];
  ok = outputs.size() == 2 * std::size_t{per_cycle} && per_cycle > 0;
  if (!ok) return t;
  t.outputs.assign(outputs.begin(), outputs.begin() + per_cycle);
  t.prefix.assign(after.begin(), after.begin() + cycle_len);
  for (std::size_t j = 0; j < cycle_len && ok; ++j) {
    ok = after[cycle_len + j] == per_cycle + after[j];
  }
  for (std::size_t i = 0; i < per_cycle && ok; ++i) {
    ok = outputs[per_cycle + i] == outputs[i];
  }
  return t;
}

std::uint64_t TranscriptCheck::failures(std::uint64_t inputs) const {
  const std::uint64_t expected = expect->expected_after(inputs);
  const std::uint64_t gap = seen > expected ? seen - expected : expected - seen;
  return mismatches + gap;
}

bool optimised_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

void add_build_notes(Report& report) {
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  report.note("compiler", PERFBENCH_COMPILER);
  report.note("cxx_flags", PERFBENCH_CXX_FLAGS);
  report.note("optimised", optimised_build() ? "yes" : "no");
  report.note("hardware_threads",
              std::to_string(std::thread::hardware_concurrency()));
}

}  // namespace perfbench
