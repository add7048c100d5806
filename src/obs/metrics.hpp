#pragma once

// Run-metrics registry: named counters, gauges, and log2-bucket histograms.
//
// Protocol layers never hold a registry — they call the free functions
// `obs::count/gauge/observe`, which forward to the *installed* registry.
// When none is installed (the default) each call is a single predictable
// branch, so instrumentation can stay in hot paths permanently; benches and
// tools install one for the duration of a run (`ScopedMetrics`).
//
// Metric names are dotted paths ("permits.granted", "net.messages"); the
// catalog, with each name's paper lemma, lives in docs/OBSERVABILITY.md.
//
// Threading model: a Registry is NOT internally synchronized — each
// simulation run stays single-threaded and owns its registry.  What IS
// safe is *independent* registries on concurrent threads (the parallel
// sweep shape, util/thread_pool.hpp): the installed-registry pointer is
// thread_local, the epoch source is atomic, and handle caches are declared
// `static thread_local` at their instrumentation sites, so runs on
// different workers never share mutable metric state.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace dyncon::obs {

/// Histogram over [0, 2^64) with one bucket per bit-width: bucket w counts
/// values in [2^(w-1), 2^w), bucket 0 counts zeros — the same bucketing as
/// sim::NetStats::size_histogram, so the two merge losslessly.
struct Histogram {
  std::array<std::uint64_t, 65> buckets{};
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t min = 0;
  std::uint64_t max = 0;

  /// Record `weight` occurrences of value `v` (weight > 1 models batched
  /// sources like Network::charge, which accounts many identical messages).
  void observe(std::uint64_t v, std::uint64_t weight = 1) {
    if (weight == 0) return;
    buckets[static_cast<std::size_t>(std::bit_width(v))] += weight;
    if (count == 0 || v < min) min = v;
    if (v > max) max = v;
    count += weight;
    sum += v * weight;
  }

  [[nodiscard]] double mean() const {
    return count ? static_cast<double>(sum) / static_cast<double>(count) : 0.0;
  }

  /// Upper bound on the q-quantile (q in [0, 1]): the inclusive upper edge
  /// of the first bucket whose cumulative count reaches q * count, clamped
  /// to the observed max.  Resolution is the log2 bucketing — a factor-of-2
  /// envelope, which is what tail-latency claims are quoted against.
  [[nodiscard]] std::uint64_t percentile(double q) const {
    if (count == 0) return 0;
    if (q < 0.0) q = 0.0;
    if (q > 1.0) q = 1.0;
    const double target = q * static_cast<double>(count);
    std::uint64_t seen = 0;
    for (std::size_t w = 0; w < buckets.size(); ++w) {
      seen += buckets[w];
      if (static_cast<double>(seen) >= target && seen > 0) {
        // Bucket w holds values in [2^(w-1), 2^w); bucket 0 holds zeros.
        const std::uint64_t edge =
            w == 0 ? 0
                   : (w >= 64 ? UINT64_MAX : (std::uint64_t{1} << w) - 1);
        return edge < max ? edge : max;
      }
    }
    return max;
  }

  /// Fold another histogram in (bucketwise; min/max widened).  Merging is
  /// commutative over the integer fields, so a parallel sweep's per-worker
  /// histograms reduce to exactly the serial run's.
  void merge(const Histogram& other) {
    if (other.count == 0) return;
    for (std::size_t i = 0; i < buckets.size(); ++i) {
      buckets[i] += other.buckets[i];
    }
    if (count == 0 || other.min < min) min = other.min;
    if (other.max > max) max = other.max;
    count += other.count;
    sum += other.sum;
  }

  [[nodiscard]] json::Value to_json() const;
};

namespace detail {
/// Source for Registry epochs: globally monotonic, so no two registry
/// *incarnations* (a fresh instance, or one generation of an instance
/// between clear() calls) ever share an epoch — even if a new Registry is
/// constructed at a freed one's address.  Handles key their caches on it.
/// Atomic because independent registries are constructed concurrently by
/// parallel sweeps; a plain increment was a data race (two workers could
/// mint the same epoch and a stale handle cache would silently pass the
/// epoch check — see docs/OBSERVABILITY.md "Concurrency").
inline std::atomic<std::uint64_t> g_registry_epochs{0};
}  // namespace detail

/// Owns one run's metrics.  Lookups are by name; maps are ordered so JSON
/// output is deterministic.
class Registry {
 public:
  Registry()
      : epoch_(detail::g_registry_epochs.fetch_add(
                   1, std::memory_order_relaxed) +
               1) {}

  void add(std::string_view name, std::uint64_t delta = 1);
  /// Overwrite a counter (used when re-exporting cumulative sources such as
  /// an accumulated NetStats, where adding would double-count).
  void set(std::string_view name, std::uint64_t value);
  void set_gauge(std::string_view name, double value);
  void add_gauge(std::string_view name, double delta);
  void observe(std::string_view name, std::uint64_t value,
               std::uint64_t weight = 1);

  [[nodiscard]] std::uint64_t counter(std::string_view name) const;
  [[nodiscard]] double gauge(std::string_view name) const;
  [[nodiscard]] const Histogram* histogram(std::string_view name) const;

  using CounterMap = std::map<std::string, std::uint64_t, std::less<>>;
  using GaugeMap = std::map<std::string, double, std::less<>>;
  using HistogramMap = std::map<std::string, Histogram, std::less<>>;

  [[nodiscard]] const CounterMap& counters() const { return counters_; }
  [[nodiscard]] const GaugeMap& gauges() const { return gauges_; }
  [[nodiscard]] const HistogramMap& histograms() const { return hists_; }

  void clear();

  /// Fold another registry's contents in: counters and gauges add,
  /// histograms merge bucketwise.  Gauges add (not overwrite) so the
  /// accumulating families (wall.* timers) reduce correctly; set-style
  /// gauges from sweep points use distinct names per point.  Used by
  /// bench::parallel_sweep to reduce per-worker registries into the run's
  /// registry in deterministic point order.
  void merge(const Registry& other);

  /// Incarnation id of this registry's current contents: unique across all
  /// Registry instances and bumped by clear(), so a cached slot reference
  /// is valid iff the (registry pointer, epoch) pair still matches.
  [[nodiscard]] std::uint64_t epoch() const { return epoch_; }

  /// Stable reference to a counter's storage (created at 0 if missing).
  /// std::map node references survive unrelated inserts/erases, so the
  /// reference stays valid until clear() or registry destruction — which is
  /// exactly what epoch() lets callers detect.
  [[nodiscard]] std::uint64_t& counter_slot(std::string_view name);
  /// Stable reference to a histogram's storage (created empty if missing).
  [[nodiscard]] Histogram& histogram_slot(std::string_view name);

  /// {"counters": {...}, "gauges": {...}, "histograms": {...}}.
  [[nodiscard]] json::Value to_json() const;

 private:
  CounterMap counters_;
  GaugeMap gauges_;
  HistogramMap hists_;
  std::uint64_t epoch_;
};

namespace detail {
// thread_local: each parallel-sweep worker installs its own registry for
// the duration of its run; threads that install nothing keep the one-branch
// disabled path.  On the main thread this behaves exactly as the old
// process-wide pointer did.
inline thread_local Registry* g_metrics = nullptr;
}  // namespace detail

/// The registry installed on THIS thread, or nullptr (disabled).
[[nodiscard]] inline Registry* metrics() { return detail::g_metrics; }

/// Install (or, with nullptr, remove) this thread's registry.
inline void install_metrics(Registry* r) { detail::g_metrics = r; }

// ---- instrumentation entry points (one branch when not installed) -----------

inline void count(std::string_view name, std::uint64_t delta = 1) {
  if (Registry* r = detail::g_metrics) r->add(name, delta);
}

inline void gauge(std::string_view name, double value) {
  if (Registry* r = detail::g_metrics) r->set_gauge(name, value);
}

inline void observe(std::string_view name, std::uint64_t value,
                    std::uint64_t weight = 1) {
  if (Registry* r = detail::g_metrics) r->observe(name, value, weight);
}

// ---- pre-resolved handles (hot-path instrumentation) ------------------------
//
// obs::count("net.messages", n) pays a map lookup — a string hash/compare —
// on every call.  A handle resolves the name to the counter's storage once
// per (registry, epoch) incarnation and then increments through the cached
// reference; steady state is two loads, one compare, one add.  Declare them
// function-local `static thread_local` at the instrumentation site:
//
//   static thread_local obs::CounterHandle messages("net.messages");
//   messages.add(count);
//
// thread_local, not plain static: the cache holds a raw slot pointer into
// whichever registry this thread has installed.  A shared static would be
// thrashed (and raced on) by workers running different registries; per
// thread it keeps PR 4's one-branch steady-state cost with zero sharing.
//
// Safe against every registry lifecycle: uninstall (null check), reinstall
// of a different registry (pointer check), clear() or a new registry at a
// recycled address (epoch check — epochs are minted atomically, so no two
// incarnations ever alias).

class CounterHandle {
 public:
  explicit CounterHandle(std::string name) : name_(std::move(name)) {}

  void add(std::uint64_t delta = 1) {
    Registry* r = detail::g_metrics;
    if (r == nullptr) return;
    if (r != registry_ || r->epoch() != epoch_) {
      slot_ = &r->counter_slot(name_);
      registry_ = r;
      epoch_ = r->epoch();
    }
    *slot_ += delta;
  }

 private:
  std::string name_;
  Registry* registry_ = nullptr;
  std::uint64_t epoch_ = 0;
  std::uint64_t* slot_ = nullptr;
};

class HistogramHandle {
 public:
  explicit HistogramHandle(std::string name) : name_(std::move(name)) {}

  void observe(std::uint64_t value, std::uint64_t weight = 1) {
    Registry* r = detail::g_metrics;
    if (r == nullptr) return;
    if (r != registry_ || r->epoch() != epoch_) {
      slot_ = &r->histogram_slot(name_);
      registry_ = r;
      epoch_ = r->epoch();
    }
    slot_->observe(value, weight);
  }

 private:
  std::string name_;
  Registry* registry_ = nullptr;
  std::uint64_t epoch_ = 0;
  Histogram* slot_ = nullptr;
};

/// RAII install; restores the previously installed registry on scope exit,
/// so nested scopes (a test inside a bench) compose.
class ScopedMetrics {
 public:
  explicit ScopedMetrics(Registry& r) : prev_(detail::g_metrics) {
    detail::g_metrics = &r;
  }
  ~ScopedMetrics() { detail::g_metrics = prev_; }
  ScopedMetrics(const ScopedMetrics&) = delete;
  ScopedMetrics& operator=(const ScopedMetrics&) = delete;

 private:
  Registry* prev_;
};

}  // namespace dyncon::obs
