// The two distributed workloads: `dist-scarce` (the §4 controller on
// random-attach trees, scarce permits, open-loop arrivals) and
// `crash-durable` (the iterated wrapper behind the ARQ channel under node
// crashes with durable whiteboards).  A round runs several instances; each
// builds its tree and controller from the seed (set-up), then runs its
// event queue until every request has its verdict (the timed phase).
// Every round of a run replays the same inputs, so its protocol counts
// must repeat exactly.

#include <cmath>
#include <memory>
#include <optional>
#include <type_traits>

#include "common.hpp"
#include "core/distributed_controller.hpp"
#include "core/distributed_iterated.hpp"
#include "obs/meminfo.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/channel.hpp"
#include "sim/crash.hpp"
#include "sim/watchdog.hpp"
#include "sim/wire.hpp"
#include "workload/shapes.hpp"

namespace perfbench {
namespace {

using namespace dyncon;
using core::Outcome;
using core::RequestSpec;
using core::Result;

/// Input make-up of one distributed workload (README "Inputs").
struct DistSpec {
  const char* name;
  std::uint64_t instances;   ///< independent trees per round
  std::uint64_t nodes;       ///< initial random-attach tree size
  std::uint64_t requests;    ///< requests per instance
  double add_leaf_fraction;  ///< the rest are non-topological events
  std::uint64_t gap_max;     ///< arrival gap: 1 + uniform(0, gap_max) ticks
  std::uint64_t M, W, U;
  // Crash adversary (crash-durable only).
  double crash_fraction = 0;
  SimTime crash_period = 0, crash_down = 0;
  /// Keep every instance of a round until the round ends (see Instance).
  bool hold_instances = false;
};

// Each round runs several independent instances: a random-attach tree's
// top levels (and, under crashes, which of them are crash-prone) are a
// seed lottery that does not average out inside one tree, so a round pools
// many trees.  M is a little below the request count, so permits run out
// near the end of every instance and the reject wave fires; W = M/5 keeps
// packages small, so they keep migrating.  A mean arrival gap of ~500 ticks
// keeps both workloads below saturation: latency is protocol work and lock
// waits, not an ever-growing backlog.
constexpr DistSpec spec(const char* name, std::uint64_t instances,
                        std::uint64_t nodes, std::uint64_t requests) {
  return {name, instances, nodes, requests, 0.5, 1000,
          requests * 9 / 10, requests * 9 / 50, 2 * (nodes + requests)};
}

constexpr DistSpec kScarce = spec("dist-scarce", 16, 8192, 4000);

// A quarter of the nodes (never the root or churn-born ones) are down 512
// ticks in every 8192.
constexpr DistSpec kCrash = [] {
  DistSpec s = spec("crash-durable", 48, 1024, 750);
  s.crash_fraction = 0.25;
  s.crash_period = 8192;
  s.crash_down = 512;
  s.hold_instances = true;
  return s;
}();

/// Lemma 4.5 envelope constant: messages <= C * U * (M/W) * log2(U)^2.
constexpr double kLemma45C = 1.0;
/// Slices of the traced timed phase (EventQueue::run(kSlice) per timing).
constexpr std::uint64_t kSlice = 4096;

/// What one round measured.  `Fingerprint` holds the outputs that are a
/// pure function of the seed; every round must reproduce it exactly.
struct Fingerprint {
  std::uint64_t messages = 0, net_msgs = 0, net_bits = 0, max_bits = 0;
  std::uint64_t granted = 0, rejected = 0, events = 0;
  std::uint64_t crashes = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct Layers {  // traced rounds only
  double slice_ns = 0, submit_ns = 0;
  std::uint64_t slice_events = 0;
  std::uint64_t op_ticks = 0, hop_ticks = 0, spans_lost = 0;
  std::uint64_t sweeps = 0, iterations = 0;
  std::uint64_t retransmits = 0, acks = 0;
  std::map<std::string, std::uint64_t> counters;  ///< last traced round

  [[nodiscard]] std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

struct RoundOut {
  double setup_s = 0, timed_s = 0, build_s = 0, ctor_s = 0;
  Fingerprint fp;
  std::vector<std::uint64_t> lat;  ///< sorted verdict latencies (ticks)
  std::uint64_t failed = 0;
};

/// The benchmark's own view of an instance: inputs, verdict stamps and
/// tallies.
template <class Ctrl>
struct Harness {
  explicit Harness(sim::EventQueue& q) : queue(q) {}

  sim::EventQueue& queue;
  Ctrl* ctrl = nullptr;
  Layers* layers = nullptr;
  std::vector<RequestSpec> reqs;
  std::vector<SimTime> submit_at;
  std::vector<std::uint8_t> seen;
  std::vector<std::uint64_t> lat;
  std::vector<std::pair<NodeId, NodeId>> grown;  ///< (new node, parent)
  std::uint64_t granted = 0, rejected = 0, crash_failed = 0, duplicates = 0;

  void submit(std::size_t i) {
    submit_at[i] = queue.now();
    auto done = [this, i](const Result& r) { verdict(i, r); };
    if (layers == nullptr) {
      ctrl->submit(reqs[i], done);
      return;
    }
    const auto t0 = Clock::now();
    ctrl->submit(reqs[i], done);
    layers->submit_ns +=
        std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
  }

  void verdict(std::size_t i, const Result& r) {
    if (seen[i] != 0) {
      ++duplicates;
      return;
    }
    seen[i] = 1;
    lat[i] = queue.now() - submit_at[i];
    if (r.crash_failed) ++crash_failed;
    if (r.granted()) {
      ++granted;
      if (reqs[i].type == RequestSpec::Type::kAddLeaf) {
        grown.emplace_back(r.new_node, reqs[i].subject);
      }
    } else if (r.outcome == Outcome::kRejected) {
      ++rejected;
    }
  }
};

/// Fold spans drained from the sink: an op span's length minus the agent
/// hops under it is time its agent spent parked on locks.
void drain_spans(obs::SpanSink& sink, Layers& layers) {
  for (const obs::Span& s : sink.entries()) {
    if (s.kind == obs::SpanKind::kOp) {
      layers.op_ticks += s.end - s.begin;
    } else if (s.kind == obs::SpanKind::kHop &&
               s.op == static_cast<std::uint8_t>(sim::MsgKind::kAgent)) {
      layers.hop_ticks += s.end - s.begin;
    }
  }
  layers.spans_lost += sink.overwritten();
  sink.clear();
}

/// Everything the program allocates for one instance.  With
/// `hold_instances` a round keeps every instance until it ends, the way a
/// service keeps the trees it hosts, so the peak resident set is the
/// per-instance footprint summed over the round.  Otherwise it is a
/// baseline plus the largest instance's heap peak, and on crash-durable's
/// small trees that peak is a seed lottery of a few MiB on a 13 MiB total.
template <class Ctrl>
struct Instance {
  sim::EventQueue queue;
  std::optional<sim::Network> net;
  tree::DynamicTree tree;
  std::shared_ptr<const sim::CrashSchedule> schedule;
  std::optional<sim::CrashDriver> crashes;
  std::optional<sim::Watchdog> watchdog;
  std::unique_ptr<Ctrl> ctrl;
};

/// One instance: build its tree and controller from `seed` (set-up), then
/// drain its event queue (timed).  `sink` is installed iff `layers` is set.
template <class Ctrl>
RoundOut run_instance(const DistSpec& s, std::uint64_t seed, Layers* layers,
                      obs::SpanSink& sink, Instance<Ctrl>& in,
                      Checks& checks) {
  constexpr bool kCrashy = std::is_same_v<Ctrl, core::DistributedIterated>;
  RoundOut out;
  const auto t0 = Clock::now();
  Rng rng(seed);
  sim::EventQueue& queue = in.queue;
  sim::Network& net = in.net.emplace(
      queue, sim::make_delay(sim::DelayKind::kUniform, rng.next()));
  tree::DynamicTree& tree = in.tree;
  const auto tb = Clock::now();
  workload::build(tree, workload::Shape::kRandomAttach, s.nodes, rng);
  out.build_s = seconds_since(tb);

  std::optional<sim::CrashDriver>& crashes = in.crashes;
  std::optional<sim::Watchdog>& watchdog = in.watchdog;
  if constexpr (kCrashy) {
    sim::CrashSchedule sch(Rng(rng.next()), s.crash_fraction, s.crash_period,
                           s.crash_down);
    sch.set_limit(static_cast<NodeId>(s.nodes));
    sch.set_immune(tree.root());
    in.schedule = std::make_shared<const sim::CrashSchedule>(sch);
    net.set_fault_policy(sim::make_crash_stack(nullptr, in.schedule));
    net.enable_reliability();
    crashes.emplace(queue, in.schedule);
    watchdog.emplace(queue, 50'000'000);
  }

  const auto tc = Clock::now();
  std::unique_ptr<Ctrl>& ctrl = in.ctrl;
  if constexpr (kCrashy) {
    core::DistributedIterated::Options opts;
    opts.track_domains = false;
    opts.watchdog = &*watchdog;
    opts.crashes = &*crashes;
    opts.durability = agent::Durability::kDurable;
    ctrl = std::make_unique<Ctrl>(net, tree, s.M, s.W, s.U, opts);
  } else {
    core::DistributedController::Options opts;
    opts.track_domains = false;
    ctrl = std::make_unique<Ctrl>(net, tree, core::Params(s.M, s.W, s.U),
                                  opts);
  }
  out.ctor_s = seconds_since(tc);

  // Inputs: subjects uniform over the initial nodes (grow-only churn keeps
  // them alive), open-loop arrival times fixed up front.
  const std::vector<NodeId> initial = tree.alive_nodes();
  std::vector<NodeId> initial_parent(initial.size());
  for (std::size_t k = 0; k < initial.size(); ++k) {
    initial_parent[k] = tree.parent(initial[k]);
  }
  Harness<Ctrl> h(queue);
  h.ctrl = ctrl.get();
  h.layers = layers;
  h.reqs.resize(s.requests);
  h.submit_at.assign(s.requests, 0);
  h.seen.assign(s.requests, 0);
  h.lat.assign(s.requests, 0);
  h.grown.reserve(s.requests);
  SimTime when = 0;
  for (std::size_t i = 0; i < s.requests; ++i) {
    h.reqs[i] = {rng.chance(s.add_leaf_fraction)
                     ? RequestSpec::Type::kAddLeaf
                     : RequestSpec::Type::kEvent,
                 initial[rng.index(initial.size())]};
    when += 1 + rng.uniform(0, s.gap_max);
    Harness<Ctrl>* hp = &h;
    queue.schedule_at(when, [hp, i] { hp->submit(i); });
  }
  if constexpr (kCrashy) {
    // Crash transitions cover the arrival span plus the drain after it.
    crashes->start(static_cast<NodeId>(s.nodes), when + when / 4);
  }
  out.setup_s = seconds_since(t0);

  // ---- timed phase ---------------------------------------------------------
  std::uint64_t sweeps = 0;
  const auto t1 = Clock::now();
  try {
    if (layers == nullptr) {
      queue.run();
    } else {
      while (!queue.empty()) {
        const auto q0 = Clock::now();
        layers->slice_events += queue.run(kSlice);
        layers->slice_ns +=
            std::chrono::duration<double, std::nano>(Clock::now() - q0)
                .count();
        drain_spans(sink, *layers);
      }
    }
    if constexpr (kCrashy) {
      while (watchdog->run_recovery_sweep() > 0) {
        ++sweeps;
        queue.run();
      }
    }
  } catch (const std::exception& e) {
    checks.require(false, std::string(s.name) + ": run aborted: " + e.what());
  }
  out.timed_s = seconds_since(t1);

  // ---- correctness ---------------------------------------------------------
  const std::string tag = std::string(s.name) + ": ";
  std::uint64_t unanswered = 0;
  for (std::uint8_t v : h.seen) unanswered += v == 0;
  out.failed = unanswered + h.crash_failed;
  checks.require(unanswered == 0,
                 tag + std::to_string(unanswered) +
                     " requests without verdict");
  checks.require(h.duplicates == 0, tag + "a request got two verdicts");
  checks.require(h.granted == ctrl->permits_granted(),
                 tag + "granted verdicts != controller's granted count");
  checks.require(h.granted <= s.M, tag + "safety: granted > M");
  checks.require(h.rejected == 0 || h.granted + s.W >= s.M,
                 tag + "liveness: rejected while granted < M - W");
  checks.require(h.granted + ctrl->unused_permits() == s.M,
                 tag + "granted + unused != M after the drain");
  // Mirror: the initial tree plus every granted add-leaf, nothing else.
  bool mirror = tree.size() == initial.size() + h.grown.size();
  for (std::size_t k = 0; mirror && k < initial.size(); ++k) {
    mirror = tree.alive(initial[k]) &&
             tree.parent(initial[k]) == initial_parent[k];
  }
  for (const auto& [child, parent] : h.grown) {
    mirror = mirror && tree.alive(child) && tree.parent(child) == parent;
  }
  checks.require(mirror, tag + "tree differs from the verdict mirror");
  const double log_u = std::ceil(std::log2(static_cast<double>(s.U)));
  const double envelope = kLemma45C * static_cast<double>(s.U) *
                          (static_cast<double>(s.M) /
                           static_cast<double>(s.W)) *
                          log_u * log_u;
  checks.require(static_cast<double>(ctrl->messages_used()) <= envelope,
                 tag + "messages above the Lemma 4.5 envelope");
  const sim::NetStats& ns = net.stats();
  checks.require(ns.max_message_bits <= sim::size_envelope_bits(s.U),
                 tag + "a message exceeds the O(log N) size envelope");
  if constexpr (kCrashy) {
    checks.require(crashes->restarts() <= crashes->crashes(),
                   tag + "more restarts than crashes");
    try {
      watchdog->verify_idle();
    } catch (const std::exception& e) {
      checks.require(false, tag + "watchdog: " + e.what());
    }
  }

  out.lat = std::move(h.lat);
  Fingerprint& fp = out.fp;
  fp.messages = ctrl->messages_used();
  fp.net_msgs = ns.messages;
  fp.net_bits = ns.total_bits;
  fp.max_bits = ns.max_message_bits;
  fp.granted = h.granted;
  fp.rejected = h.rejected;
  fp.events = queue.events_fired();
  if constexpr (kCrashy) fp.crashes = crashes->crashes();

  if (layers != nullptr) {
    layers->sweeps += sweeps;
    if constexpr (kCrashy) {
      layers->iterations += ctrl->iterations();
    } else {
      layers->iterations += 1;
    }
    if (const sim::ReliableChannel* ch = net.channel()) {
      layers->retransmits += ch->stats().retransmits;
      layers->acks += ch->stats().acks;
    }
  }
  return out;
}

/// One round: every instance of the workload in turn.  Instance k's seed
/// is the k-th split of the run seed, so a round is a pure function of it.
template <class Ctrl>
RoundOut dist_round(const DistSpec& s, std::uint64_t seed, Layers* layers,
                    Checks& checks) {
  obs::Registry registry;
  std::optional<obs::ScopedMetrics> metrics_scope;
  obs::SpanSink sink(std::size_t{1} << 18);
  std::optional<obs::ScopedSpans> span_scope;
  if (layers != nullptr) {
    // Per-round tallies restart; timings accumulate over traced rounds.
    layers->sweeps = layers->iterations = 0;
    layers->retransmits = layers->acks = 0;
    metrics_scope.emplace(registry);
    span_scope.emplace(sink);
  }
  // Declared after the scopes, so the instances go before the sinks do.
  std::vector<std::unique_ptr<Instance<Ctrl>>> held;
  RoundOut out;
  Rng parent(seed);
  for (std::uint64_t k = 0; k < s.instances; ++k) {
    if (!s.hold_instances) held.clear();
    held.push_back(std::make_unique<Instance<Ctrl>>());
    RoundOut one = run_instance<Ctrl>(s, parent.split_seed(), layers, sink,
                                      *held.back(), checks);
    out.setup_s += one.setup_s;
    out.timed_s += one.timed_s;
    out.build_s += one.build_s;
    out.ctor_s += one.ctor_s;
    out.failed += one.failed;
    Fingerprint& fp = out.fp;
    fp.messages += one.fp.messages;
    fp.net_msgs += one.fp.net_msgs;
    fp.net_bits += one.fp.net_bits;
    fp.max_bits = std::max(fp.max_bits, one.fp.max_bits);
    fp.granted += one.fp.granted;
    fp.rejected += one.fp.rejected;
    fp.events += one.fp.events;
    fp.crashes += one.fp.crashes;
    out.lat.insert(out.lat.end(), one.lat.begin(), one.lat.end());
  }
  std::sort(out.lat.begin(), out.lat.end());
  if (layers != nullptr) {
    layers->counters.clear();
    for (const auto& [name, value] : registry.counters()) {
      layers->counters[name] = value;
    }
  }
  return out;
}

template <class Ctrl>
Report run_dist(const DistSpec& s, const Args& args, Checks& checks) {
  std::vector<double> setup, rate, rate_traced, build, ctor;
  Layers layers;
  std::optional<RoundOut> first;
  std::uint64_t rounds = 0, failed = 0;
  RoundBudget budget(args.seconds, 3);
  const CpuRotation cpus;
  while (budget.more(rounds)) {
    cpus.pin(rounds);
    // Traced runs alternate plain and traced rounds; the plain ones give
    // the baseline for the tracing overhead.
    const bool traced = args.trace && rounds % 2 == 1;
    RoundOut r = dist_round<Ctrl>(s, args.seed, traced ? &layers : nullptr,
                                  checks);
    ++rounds;
    failed += r.failed;
    const double rps =
        static_cast<double>(s.instances * s.requests) / r.timed_s;
    std::fprintf(stderr, "round %llu cpu %d%s: setup %.4f s, %.0f req/s\n",
                 static_cast<unsigned long long>(rounds), sched_getcpu(),
                 traced ? " traced" : "", r.setup_s, rps);
    setup.push_back(r.setup_s);
    (traced ? rate_traced : rate).push_back(rps);
    if (traced) {
      build.push_back(r.build_s);
      ctor.push_back(r.ctor_s);
    }
    if (!first) {
      first = std::move(r);
    } else {
      checks.require(r.fp == first->fp && r.lat == first->lat,
                     std::string(s.name) +
                         ": a round's protocol counts differ from round 1");
    }
  }

  const Fingerprint& fp = first->fp;
  const std::uint64_t R = s.instances * s.requests;
  std::printf("%s: %llu rounds of %llu requests, vlat samples %zu per round\n",
              s.name, static_cast<unsigned long long>(rounds),
              static_cast<unsigned long long>(R), first->lat.size());
  Report rep;
  rep.attempted = rounds * R;
  rep.failed = failed;
  if (!args.trace) {
    rep.set("setup_s", median(setup));
    rep.set("req_per_s", median(rate));
    rep.set("rss_peak_mib",
            static_cast<double>(obs::peak_rss_bytes()) / (1024.0 * 1024.0));
    rep.set("cost_per_req", per(fp.messages, R));
    rep.set("vlat_p50_ticks", tick_quantile(first->lat, 0.50));
    rep.set("vlat_p99_ticks", tick_quantile(first->lat, 0.99));
    return rep;
  }

  checks.require(layers.spans_lost == 0,
                 std::string(s.name) + ": span ring overflowed");
  rep.set("queue.events_per_req", per(fp.events, R));
  rep.set("queue.ns_per_event",
          layers.slice_ns / static_cast<double>(layers.slice_events));
  rep.set("net.sends_per_req", per(fp.net_msgs, R));
  rep.set("net.bits_per_msg", per(fp.net_bits, fp.net_msgs));
  rep.set("net.max_msg_bits", static_cast<double>(fp.max_bits));
  rep.set("net.bits_per_req", per(fp.net_bits, R));
  rep.set("channel.retransmits_per_req", per(layers.retransmits, R));
  rep.set("channel.acks_per_req", per(layers.acks, R));
  rep.set("crash.crashes", static_cast<double>(fp.crashes));
  rep.set("crash.drops_per_req", per(layers.counter("crash.drops"), R));
  rep.set("watchdog.recovery_sweeps", static_cast<double>(layers.sweeps));
  rep.set("agent.hops_per_req", per(layers.counter("agent.hops"), R));
  const std::uint64_t traced_rounds = rate_traced.size();
  rep.set("agent.wait_ticks_per_req",
          per(layers.op_ticks - layers.hop_ticks, traced_rounds * R));
  rep.set("durable.writes_per_req",
          per(layers.counter("recovery.snapshot_writes"), R));
  rep.set("durable.bits_per_write",
          per(layers.counter("recovery.snapshot_bits"),
              layers.counter("recovery.snapshot_writes")));
  rep.set("durable.boards_restored",
          static_cast<double>(layers.counter("recovery.boards_restored")));
  rep.set("core.moves_per_req", per(layers.counter("moves.total"), R));
  rep.set("core.filler_steps_per_req",
          per(layers.counter("filler_search.steps"), R));
  rep.set("core.granted_per_req", per(fp.granted, R));
  rep.set("core.submit_ns",
          layers.submit_ns / static_cast<double>(traced_rounds * R));
  rep.set("core.iterations", static_cast<double>(layers.iterations));
  rep.set("tree.build_ms", 1e3 * median(build));
  rep.set("setup.ctor_ms", 1e3 * median(ctor));
  rep.set("obs.trace_overhead", 1.0 - median(rate_traced) / median(rate));
  return rep;
}

}  // namespace

Report run_dist_scarce(const Args& args, Checks& checks) {
  return run_dist<core::DistributedController>(kScarce, args, checks);
}

Report run_crash_durable(const Args& args, Checks& checks) {
  return run_dist<core::DistributedIterated>(kCrash, args, checks);
}

}  // namespace perfbench
