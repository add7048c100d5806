// The two forest workloads: `forest-hot` (64 resident trees, 1 shard, the
// per-window serial path) and `forest-cold` (10^5 lazily built trees under
// a small residency budget, 1 shard, the build/wake/hibernate path).  One
// round constructs a ForestEngine from the seed (set-up) and steps it
// window by window until every user has spent its request budget (timed).

#include <optional>

#include "common.hpp"
#include "forest/forest.hpp"
#include "obs/meminfo.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace perfbench {
namespace {

using namespace dyncon;

struct ForestSpec {
  const char* name;
  forest::ForestConfig cfg;
  /// Smaller copy of `cfg` for the untimed identity twins.
  forest::ForestConfig twin;
};

forest::ForestConfig base_config(unsigned shards, std::uint64_t trees,
                                 std::uint64_t users, std::uint64_t rpu,
                                 std::uint64_t resident, bool eager) {
  forest::ForestConfig cfg;
  cfg.shards = shards;
  cfg.mux.trees = trees;
  cfg.mux.users = users;
  cfg.mux.requests_per_user = rpu;
  cfg.mux.zipf_s = 0.9;
  cfg.tree_size = 48;
  cfg.window = 256;
  cfg.resident_trees = resident;
  cfg.eager = eager;
  cfg.span_capacity = 4096;
  return cfg;
}

// forest-hot: every tree is built by the (eager) constructor and stays
// resident, so the timed phase is pure serving plus the per-window serial
// path.  It runs one shard: with a thread-pool barrier in every window the
// wall clock of this shared host spread 16-30% from run to run at 2, 3 and
// 4 shards.  The identity twin still runs 4 shards.
ForestSpec hot_spec() {
  return {"forest-hot", base_config(1, 64, 8192, 64, 0, true),
          base_config(4, 64, 512, 8, 0, true)};
}

// forest-cold: lazy trees, 512 resident per shard, one shard: most
// requests build or wake a tree.
ForestSpec cold_spec() {
  return {"forest-cold", base_config(1, 100000, 2048, 16, 512, false),
          base_config(1, 4000, 256, 16, 16, false)};
}

constexpr int kExtraSetups = 40;

struct Fingerprint {
  forest::ForestStats stats;
  forest::ForestMemStats mem;
  std::uint64_t moves = 0, filler = 0;
  bool operator==(const Fingerprint& o) const {
    const auto& a = stats;
    const auto& b = o.stats;
    return a.requests == b.requests && a.granted == b.granted &&
           a.rejected == b.rejected && a.other == b.other &&
           a.events == b.events && a.windows == b.windows &&
           a.handoffs == b.handoffs && a.cross_shard == b.cross_shard &&
           a.tree_builds == b.tree_builds &&
           a.hibernations == b.hibernations && a.wakes == b.wakes &&
           a.hibernate_bits == b.hibernate_bits && mem.trees == o.mem.trees &&
           mem.resident == o.mem.resident &&
           mem.hibernated == o.mem.hibernated && moves == o.moves &&
           filler == o.filler;
  }
};

struct Layers {  // accumulated over traced rounds
  std::vector<double> window_us;
  double step_ns = 0;
  std::uint64_t events = 0;
};

struct RoundOut {
  double setup_s = 0, timed_s = 0;
  Fingerprint fp;
  std::vector<std::uint64_t> lat;  ///< sorted request latencies (ticks)
  std::uint64_t spans_lost = 0;
  std::uint64_t failed = 0;  ///< requests that never completed
};

/// One round.  `stamp` installs a span sink so each request's root span
/// [ready, done] yields its exact virtual latency; `layers` times every
/// step_window call.
RoundOut forest_round(const ForestSpec& s, std::uint64_t seed, bool stamp,
                      Layers* layers, Checks& checks) {
  RoundOut out;
  obs::SpanSink sink(std::size_t{1} << 15);
  std::optional<obs::ScopedSpans> span_scope;
  if (stamp) span_scope.emplace(sink);

  const auto t0 = Clock::now();
  forest::ForestEngine engine(s.cfg, seed);
  out.setup_s = seconds_since(t0);

  auto drain = [&] {
    for (const obs::Span& sp : sink.entries()) {
      if (sp.kind == obs::SpanKind::kRequest) {
        out.lat.push_back(sp.end - sp.begin);
      }
    }
    out.spans_lost += sink.overwritten();
    sink.clear();
  };
  const auto t1 = Clock::now();
  if (layers == nullptr && !stamp) {
    while (engine.step_window()) {
    }
  } else {
    for (bool more = true; more;) {
      const auto w0 = Clock::now();
      more = engine.step_window();
      const double ns =
          std::chrono::duration<double, std::nano>(Clock::now() - w0).count();
      if (layers != nullptr) {
        layers->step_ns += ns;
        if (more) layers->window_us.push_back(ns * 1e-3);
      }
      drain();
    }
  }
  out.timed_s = seconds_since(t1);

  // run() finds the forest drained; it folds the per-shard tallies into
  // stats() and merges the shard registries into `registry`.
  obs::Registry registry;
  {
    obs::ScopedMetrics scope(registry);
    out.fp.stats = engine.run();
  }
  sink.clear();  // shard op spans merged by run(); not needed
  out.fp.mem = engine.mem_stats();
  out.fp.moves = registry.counter("moves.total");
  out.fp.filler = registry.counter("filler_search.steps");
  if (layers != nullptr) layers->events += out.fp.stats.events;
  std::sort(out.lat.begin(), out.lat.end());

  const std::string tag = std::string(s.name) + ": ";
  const forest::ForestStats& st = out.fp.stats;
  const forest::ForestMemStats& m = out.fp.mem;
  const std::uint64_t want = s.cfg.mux.users * s.cfg.mux.requests_per_user;
  out.failed = want - std::min(want, st.requests);
  checks.require(st.requests == want,
                 tag + "completed != users * requests_per_user");
  checks.require(st.granted + st.rejected + st.other == st.requests,
                 tag + "granted + rejected + other != completed");
  checks.require(m.resident + m.hibernated == m.materialized,
                 tag + "resident + hibernated != materialized");
  checks.require(m.materialized + m.virgin == m.trees,
                 tag + "materialized + virgin != trees");
  checks.require(s.cfg.resident_trees == 0 ||
                     m.resident <= s.cfg.resident_trees * s.cfg.shards,
                 tag + "more trees resident than the budget");
  if (s.cfg.eager) {
    checks.require(st.tree_builds == s.cfg.mux.trees && st.wakes == 0 &&
                       st.hibernations == 0,
                   tag + "a tree was built, woken or hibernated while serving");
  }
  if (stamp) {
    checks.require(out.lat.size() == st.requests,
                   tag + "a request closed without its root span");
  }
  return out;
}

/// Registry JSON of one untimed run of `cfg`.
std::string registry_dump(const forest::ForestConfig& cfg,
                          std::uint64_t seed) {
  obs::Registry registry;
  obs::ScopedMetrics scope(registry);
  forest::ForestEngine engine(cfg, seed);
  engine.run();
  return registry.to_json().dump();
}

/// The design promises byte-identical registries at any shard count and
/// any residency budget; check both on the reduced twin.
void check_identity(const ForestSpec& s, std::uint64_t seed, Checks& checks) {
  forest::ForestConfig one = s.twin;
  one.shards = 1;
  const std::string ref = registry_dump(one, seed);
  checks.require(registry_dump(s.twin, seed) == ref,
                 std::string(s.name) + ": registry differs between 1 and " +
                     std::to_string(s.twin.shards) + " shards");
  if (s.twin.resident_trees != 0) {
    forest::ForestConfig unlimited = one;
    unlimited.resident_trees = 0;
    checks.require(registry_dump(unlimited, seed) == ref,
                   std::string(s.name) +
                       ": registry differs under an unlimited budget");
  }
}

Report run_forest(const ForestSpec& s, const Args& args, Checks& checks) {
  check_identity(s, args.seed, checks);

  // A single-shard engine runs on the calling thread alone, so it rotates
  // over the CPUs; a sharded engine's workers inherit the creating
  // thread's CPU mask and must keep all of them.
  const CpuRotation cpus;
  auto pin = [&](std::size_t round) {
    if (s.cfg.shards == 1) cpus.pin(round);
  };
  Layers layers;
  // Round 0 stamps latencies (spans on) and warms up; it is not timed
  // into the medians.  Traced runs then alternate plain and traced rounds.
  pin(0);
  RoundOut first = forest_round(s, args.seed, true, nullptr, checks);
  std::uint64_t failed = first.failed;
  std::vector<double> setup, rate, rate_traced;
  // Set-up is a few milliseconds, so it is sampled more often than rounds
  // run: extra constructions, each timed and discarded.
  for (int i = 0; i < kExtraSetups; ++i) {
    pin(static_cast<std::size_t>(i));
    const auto t0 = Clock::now();
    forest::ForestEngine engine(s.cfg, args.seed);
    setup.push_back(seconds_since(t0));
  }
  std::uint64_t rounds = 1;
  RoundBudget budget(args.seconds, 4);
  while (budget.more(rounds)) {
    pin(rounds);
    const bool traced = args.trace && rounds % 2 == 0;
    RoundOut r = forest_round(s, args.seed, false,
                              traced ? &layers : nullptr, checks);
    ++rounds;
    failed += r.failed;
    const double rps = static_cast<double>(r.fp.stats.requests) / r.timed_s;
    (traced ? rate_traced : rate).push_back(rps);
    std::fprintf(stderr, "round %llu cpu %d%s: setup %.4f s, %.0f req/s\n",
                 static_cast<unsigned long long>(rounds), sched_getcpu(),
                 traced ? " traced" : "", r.setup_s, rps);
    if (!traced) setup.push_back(r.setup_s);
    checks.require(r.fp == first.fp,
                   std::string(s.name) +
                       ": a round's counts differ from round 1");
  }
  checks.require(first.spans_lost == 0,
                 std::string(s.name) + ": span ring overflowed");

  const forest::ForestStats& st = first.fp.stats;
  const std::uint64_t R = st.requests;
  std::printf("%s: %llu rounds of %llu requests (1 latency-stamping round), "
              "vlat samples %zu per round\n",
              s.name, static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(R), first.lat.size());
  Report rep;
  rep.attempted = rounds * R;
  rep.failed = failed;
  if (!args.trace) {
    rep.set("setup_s", median(setup));
    rep.set("req_per_s", median(rate));
    rep.set("rss_peak_mib",
            static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
    rep.set("cost_per_req", per(first.fp.moves, R));
    rep.set("vlat_p50_ticks", tick_quantile(first.lat, 0.50));
    rep.set("vlat_p99_ticks", tick_quantile(first.lat, 0.99));
    return rep;
  }
  rep.set("queue.events_per_req", per(st.events, R));
  rep.set("queue.ns_per_event",
          layers.step_ns / static_cast<double>(layers.events));
  rep.set("core.moves_per_req", per(first.fp.moves, R));
  rep.set("core.filler_steps_per_req", per(first.fp.filler, R));
  rep.set("core.granted_per_req", per(st.granted, R));
  rep.set("setup.ctor_ms", 1e3 * median(setup));
  rep.set("forest.window_us_p50", quantile(layers.window_us, 0.50));
  rep.set("forest.window_us_p99", quantile(layers.window_us, 0.99));
  rep.set("forest.events_per_window", per(st.events, st.windows));
  rep.set("forest.builds_per_req", per(st.tree_builds, R));
  rep.set("forest.wakes_per_req", per(st.wakes, R));
  rep.set("forest.hibernations_per_req", per(st.hibernations, R));
  rep.set("forest.snapshot_bits", per(st.hibernate_bits, st.hibernations));
  rep.set("forest.bytes_per_tree",
          per(first.fp.mem.accounting_bytes(), first.fp.mem.trees));
  rep.set("obs.trace_overhead", 1.0 - median(rate_traced) / median(rate));
  return rep;
}

}  // namespace

Report run_forest_hot(const Args& args, Checks& checks) {
  return run_forest(hot_spec(), args, checks);
}

Report run_forest_cold(const Args& args, Checks& checks) {
  return run_forest(cold_spec(), args, checks);
}

}  // namespace perfbench
