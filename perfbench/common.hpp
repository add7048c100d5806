#pragma once

// Shared plumbing for the four perfbench workloads: wall clock, CPU
// rotation, quantiles over exact samples, the correctness-check ledger and
// the metric lists each workload fills in.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <sched.h>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// Median of wall-clock samples (mean of the middle pair when even).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank quantile of wall-clock samples.
inline double quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::max(1.0, std::ceil(p * static_cast<double>(v.size()))));
  return v[std::min(rank, v.size()) - 1];
}

/// Quantile of integer tick samples, interpolated within the tied tick
/// (grouped-data rule: tick t spans [t - 0.5, t + 0.5)).  Latencies are
/// whole ticks with heavy ties; a nearest-rank median would jump a whole
/// tick when a seed moves one sample across the tie, this moves smoothly.
/// Input must be sorted.
inline double tick_quantile(const std::vector<std::uint64_t>& sorted,
                            double p) {
  if (sorted.empty()) return 0;
  const double target = p * static_cast<double>(sorted.size());
  const auto below = static_cast<std::size_t>(target);
  const std::size_t idx = std::min(below, sorted.size() - 1);
  const std::uint64_t t = sorted[idx];
  const auto lo = static_cast<std::size_t>(
      std::lower_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
  const auto hi = static_cast<std::size_t>(
      std::upper_bound(sorted.begin(), sorted.end(), t) - sorted.begin());
  const double frac = (target - static_cast<double>(lo)) /
                      static_cast<double>(hi - lo);
  return static_cast<double>(t) - 0.5 + std::clamp(frac, 0.0, 1.0);
}

/// Correctness ledger: every failed property is printed to stderr and
/// makes the run's verdict `correct: false` (and the exit code nonzero).
class Checks {
 public:
  void require(bool ok, const std::string& what) {
    if (ok) return;
    ++failures_;
    if (failures_ <= 20) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
  }
  [[nodiscard]] bool ok() const { return failures_ == 0; }

 private:
  std::uint64_t failures_ = 0;
};

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every `--trace 0` run (BENCHMARK.json `end_to_end`).
inline constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"req_per_s", "1/s"},
    {"rss_peak_mib", "MiB"},
    {"cost_per_req", "count"},
    {"vlat_p50_ticks", "ticks"},
    {"vlat_p99_ticks", "ticks"},
};

/// Printed by every `--trace 1` run (BENCHMARK.json `per_layer`).  A layer
/// a workload does not exercise reads 0 there.
inline constexpr MetricDef kPerLayer[] = {
    {"queue.events_per_req", "count"},
    {"queue.ns_per_event", "ns"},
    {"net.sends_per_req", "count"},
    {"net.bits_per_msg", "bit"},
    {"net.max_msg_bits", "bit"},
    {"net.bits_per_req", "bit"},
    {"channel.retransmits_per_req", "count"},
    {"channel.acks_per_req", "count"},
    {"crash.crashes", "count"},
    {"crash.drops_per_req", "count"},
    {"watchdog.recovery_sweeps", "count"},
    {"agent.hops_per_req", "count"},
    {"agent.wait_ticks_per_req", "ticks"},
    {"durable.writes_per_req", "count"},
    {"durable.bits_per_write", "bit"},
    {"durable.boards_restored", "count"},
    {"core.moves_per_req", "count"},
    {"core.filler_steps_per_req", "count"},
    {"core.granted_per_req", "count"},
    {"core.submit_ns", "ns"},
    {"core.iterations", "count"},
    {"tree.build_ms", "ms"},
    {"setup.ctor_ms", "ms"},
    {"forest.window_us_p50", "us"},
    {"forest.window_us_p99", "us"},
    {"forest.events_per_window", "count"},
    {"forest.builds_per_req", "count"},
    {"forest.wakes_per_req", "count"},
    {"forest.hibernations_per_req", "count"},
    {"forest.snapshot_bits", "bit"},
    {"forest.bytes_per_tree", "B"},
    {"obs.trace_overhead", "ratio"},
};

/// What one workload run hands back to main() for printing.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> values;

  void set(const std::string& name, double value) { values[name] = value; }
};

inline double per(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

/// Moves the calling thread to a different allowed CPU each round.  On a
/// shared VM the vCPUs run at persistently different speeds (up to ~20%
/// apart here), and a single-threaded run otherwise stays on whichever one
/// it started on; rotating makes every run sample all of them alike.
class CpuRotation {
 public:
  CpuRotation() {
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return;
    for (std::size_t c = 0; c < static_cast<std::size_t>(CPU_SETSIZE); ++c) {
      if (CPU_ISSET(c, &set)) cpus_.push_back(c);
    }
  }
  void pin(std::size_t round) const {
    if (cpus_.size() < 2) return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus_[round % cpus_.size()], &set);
    (void)sched_setaffinity(0, sizeof set, &set);
  }

 private:
  std::vector<std::size_t> cpus_;
};

/// Rounds keep running until the run's measuring time is spent; every run
/// attempts at least `min_rounds` whole rounds.
class RoundBudget {
 public:
  RoundBudget(double seconds, std::size_t min_rounds)
      : seconds_(seconds), min_rounds_(min_rounds), t0_(Clock::now()) {}
  [[nodiscard]] bool more(std::size_t done) const {
    return done < min_rounds_ || seconds_since(t0_) < seconds_;
  }

 private:
  double seconds_;
  std::size_t min_rounds_;
  Clock::time_point t0_;
};

Report run_dist_scarce(const Args& args, Checks& checks);
Report run_crash_durable(const Args& args, Checks& checks);
Report run_forest_hot(const Args& args, Checks& checks);
Report run_forest_cold(const Args& args, Checks& checks);

}  // namespace perfbench
