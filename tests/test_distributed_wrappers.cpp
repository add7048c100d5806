// Unit tests for the distributed wrappers: Thm 4.7 (iterated), Obs 2.1
// (terminating) and Thm 4.9 / Appendix A (adaptive, unknown U).

#include <gtest/gtest.h>

#include <vector>

#include "core/distributed_adaptive.hpp"
#include "core/distributed_iterated.hpp"
#include "core/iterated_controller.hpp"
#include "core/terminating_controller.hpp"
#include "tree/validate.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "workload/shapes.hpp"

namespace dyncon::core {
namespace {

using tree::DynamicTree;

struct Sim {
  sim::EventQueue queue;
  sim::Network net;
  DynamicTree tree;

  explicit Sim(sim::DelayKind kind = sim::DelayKind::kFixed,
               std::uint64_t seed = 1)
      : net(queue, sim::make_delay(kind, seed)) {}
};

/// Submit one request and run to completion.
template <typename Ctrl>
Result sync_submit(Sim& s, Ctrl& ctrl, const RequestSpec& spec) {
  Result out;
  bool fired = false;
  ctrl.submit(spec, [&](const Result& r) {
    out = r;
    fired = true;
  });
  while (!fired && !s.queue.empty()) s.queue.step();
  EXPECT_TRUE(fired);
  return out;
}

TEST(DistIterated, GrantsUpToMThenRejects) {
  Rng rng(1);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 16, rng);
  const std::uint64_t M = 30;
  DistributedIterated ctrl(s.net, s.tree, M, /*W=*/1, /*U=*/64);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 3 * M; ++i) {
    const auto o =
        sync_submit(s, ctrl,
                    RequestSpec{RequestSpec::Type::kEvent,
                                nodes[i % nodes.size()]})
            .outcome;
    granted += o == Outcome::kGranted;
    rejected += o == Outcome::kRejected;
  }
  EXPECT_GE(granted, M - 1);
  EXPECT_LE(granted, M);
  EXPECT_EQ(granted + rejected, 3 * M);
  // (On shallow trees every creation level is 0, nothing strands, and a
  // single iteration can grant all of M; iteration-count behaviour is
  // covered by the deep-path centralized test.)
}

TEST(DistIterated, WZeroExactGrantCount) {
  Rng rng(2);
  Sim s;
  workload::build(s.tree, workload::Shape::kPath, 10, rng);
  const std::uint64_t M = 17;
  DistributedIterated ctrl(s.net, s.tree, M, /*W=*/0, /*U=*/32);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    granted += sync_submit(s, ctrl,
                           RequestSpec{RequestSpec::Type::kEvent,
                                       nodes[i % nodes.size()]})
                   .granted();
  }
  EXPECT_EQ(granted, M);
}

TEST(DistIterated, ConcurrentRequestsAcrossRotation) {
  Rng rng(3);
  Sim s(sim::DelayKind::kUniform, 17);
  workload::build(s.tree, workload::Shape::kRandomAttach, 24, rng);
  const std::uint64_t M = 64;
  DistributedIterated ctrl(s.net, s.tree, M, /*W=*/1, /*U=*/256);
  const auto nodes = s.tree.alive_nodes();
  int answered = 0, granted = 0;
  for (int i = 0; i < 200; ++i) {
    ctrl.submit_event(nodes[rng.index(nodes.size())], [&](const Result& r) {
      ++answered;
      granted += r.granted();
    });
  }
  s.queue.run();
  EXPECT_EQ(answered, 200);
  EXPECT_GE(granted, static_cast<int>(M - 1));
  EXPECT_LE(granted, static_cast<int>(M));
}

TEST(DistTerminating, NeverRejectsTerminatesInBand) {
  Rng rng(4);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 12, rng);
  const std::uint64_t M = 24, W = 6;
  DistributedTerminating ctrl(s.net, s.tree, M, W, /*U=*/64);
  const auto nodes = s.tree.alive_nodes();
  std::uint64_t granted = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto o = sync_submit(s, ctrl,
                               RequestSpec{RequestSpec::Type::kEvent,
                                           nodes[i % nodes.size()]})
                       .outcome;
    EXPECT_NE(o, Outcome::kRejected);
    granted += o == Outcome::kGranted;
  }
  EXPECT_TRUE(ctrl.terminated());
  EXPECT_GE(granted, M - W);
  EXPECT_LE(granted, M);
}

TEST(DistTerminating, ExternalTerminate) {
  Sim s;
  DistributedTerminating ctrl(s.net, s.tree, 100, 50, 16);
  ASSERT_TRUE(
      sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kEvent, 0})
          .granted());
  bool done = false;
  ctrl.terminate([&] { done = true; });
  s.queue.run();
  EXPECT_TRUE(done);
  EXPECT_TRUE(ctrl.terminated());
  EXPECT_EQ(
      sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kEvent, 0}).outcome,
      Outcome::kTerminated);
}

TEST(DistAdaptive, GrowthAcrossIterations) {
  Rng rng(5);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedAdaptive ctrl(s.net, s.tree, /*M=*/300, /*W=*/1);
  std::uint64_t granted = 0;
  for (int i = 0; i < 200; ++i) {
    const auto nodes = s.tree.alive_nodes();
    granted += sync_submit(s, ctrl,
                           RequestSpec{RequestSpec::Type::kAddLeaf,
                                       nodes[rng.index(nodes.size())]})
                   .granted();
  }
  EXPECT_EQ(granted, 200u);
  EXPECT_EQ(s.tree.size(), 208u);
  EXPECT_GE(ctrl.iterations(), 2u);
  EXPECT_TRUE(tree::validate(s.tree).ok());
}

TEST(DistAdaptive, SafetyAndRejectAfterExhaustion) {
  Rng rng(6);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 10, rng);
  const std::uint64_t M = 40;
  DistributedAdaptive ctrl(s.net, s.tree, M, /*W=*/4);
  std::uint64_t granted = 0, rejected = 0;
  for (std::uint64_t i = 0; i < 4 * M; ++i) {
    const auto nodes = s.tree.alive_nodes();
    const NodeId u = nodes[rng.index(nodes.size())];
    const auto o =
        sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kAddLeaf, u})
            .outcome;
    granted += o == Outcome::kGranted;
    rejected += o == Outcome::kRejected;
  }
  EXPECT_LE(granted, M);
  EXPECT_GE(granted, M - 4);
  EXPECT_GT(rejected, 0u);
  EXPECT_TRUE(ctrl.done());
}

TEST(DistAdaptive, MixedChurnConcurrent) {
  Rng rng(7);
  Sim s(sim::DelayKind::kUniform, 23);
  workload::build(s.tree, workload::Shape::kCaterpillar, 30, rng);
  DistributedAdaptive ctrl(s.net, s.tree, /*M=*/500, /*W=*/8);
  int answered = 0;
  for (int burst = 0; burst < 30; ++burst) {
    for (int i = 0; i < 6; ++i) {
      const auto nodes = s.tree.alive_nodes();
      const NodeId u = nodes[rng.index(nodes.size())];
      RequestSpec spec;
      switch (rng.uniform(0, 2)) {
        case 0:
          spec = RequestSpec{RequestSpec::Type::kAddLeaf, u};
          break;
        case 1:
          spec = u != s.tree.root()
                     ? RequestSpec{RequestSpec::Type::kRemove, u}
                     : RequestSpec{RequestSpec::Type::kAddLeaf, u};
          break;
        default:
          spec = RequestSpec{RequestSpec::Type::kEvent, u};
      }
      ctrl.submit(spec, [&](const Result&) { ++answered; });
    }
    s.queue.run();
    ASSERT_TRUE(tree::validate(s.tree).ok()) << "burst " << burst;
  }
  EXPECT_EQ(answered, 180);
}

// ---- submission contract: the root is never deleted nor given a parent ----

/// Every request shape that names the root illegally must be refused at
/// submit time, before an agent could compute the root's (absent) parent as
/// its arrival node, and must leave the tree and the event loop untouched.
template <typename Ctrl>
void expect_root_requests_refused(Sim& s, Ctrl& ctrl) {
  const NodeId root = s.tree.root();
  const std::uint64_t size = s.tree.size();
  const auto ignore = [](const Result&) {};
  EXPECT_THROW(ctrl.submit_add_internal_above(root, ignore), ContractError);
  EXPECT_THROW(ctrl.submit_remove(root, ignore), ContractError);
  EXPECT_THROW(ctrl.submit(RequestSpec{RequestSpec::Type::kAddInternal, root},
                           ignore),
               ContractError);
  EXPECT_THROW(
      ctrl.submit(RequestSpec{RequestSpec::Type::kRemove, root}, ignore),
      ContractError);
  s.queue.run();
  EXPECT_EQ(s.tree.size(), size);
  EXPECT_TRUE(tree::validate(s.tree).ok());
  // The controller still serves legal requests afterwards.
  EXPECT_TRUE(
      sync_submit(s, ctrl, RequestSpec{RequestSpec::Type::kAddLeaf, root})
          .granted());
}

TEST(RootRequests, DistributedControllerRefusesAtSubmit) {
  Rng rng(21);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedController ctrl(s.net, s.tree, Params(16, 4, 32));
  expect_root_requests_refused(s, ctrl);
}

TEST(RootRequests, DistributedIteratedRefusesAtSubmit) {
  Rng rng(22);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedIterated ctrl(s.net, s.tree, 16, 4, 32);
  expect_root_requests_refused(s, ctrl);
}

TEST(RootRequests, DistributedTerminatingRefusesAtSubmit) {
  Rng rng(23);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedTerminating ctrl(s.net, s.tree, 16, 4, 32);
  expect_root_requests_refused(s, ctrl);
}

TEST(RootRequests, DistributedAdaptiveRefusesAtSubmit) {
  Rng rng(24);
  Sim s;
  workload::build(s.tree, workload::Shape::kRandomAttach, 8, rng);
  DistributedAdaptive ctrl(s.net, s.tree, 16, 4);
  expect_root_requests_refused(s, ctrl);
}

// ---- wrapper options: base fields that are not wrapper knobs ----------------

/// A terminating controller never rejects, so it takes no `mode`.
TEST(WrapperOptions, TerminatingRefusesMode) {
  Sim s;
  s.tree.add_leaf(s.tree.root());
  DistributedTerminating::Options dopts;
  dopts.mode = DistributedController::Mode::kExhaustSignal;
  EXPECT_THROW(DistributedTerminating(s.net, s.tree, 16, 4, 32, dopts),
               ContractError);
  TerminatingController::Options copts;
  copts.mode = CentralizedController::Mode::kExhaustSignal;
  EXPECT_THROW(TerminatingController(s.tree, 16, 4, 32, copts),
               ContractError);
}

/// `debug_trace` is a per-instance DistributedController knob.
TEST(WrapperOptions, DistributedWrappersRefuseDebugTrace) {
  Sim s;
  s.tree.add_leaf(s.tree.root());
  DistributedIterated::Options opts;
  opts.debug_trace = true;
  EXPECT_THROW(DistributedIterated(s.net, s.tree, 16, 4, 32, opts),
               ContractError);
  EXPECT_THROW(DistributedTerminating(s.net, s.tree, 16, 4, 32, opts),
               ContractError);
}

/// App. A's two instances share the wrapper's options, so a serial interval
/// or a pass-down hook would reach the counting sidecar too; the wrapper
/// refuses every base field it does not support.
TEST(WrapperOptions, AdaptiveRefusesUnsupportedBaseFields) {
  Sim s;
  s.tree.add_leaf(s.tree.root());
  const auto refused = [&s](auto set) {
    DistributedAdaptive::Options opts;
    set(opts);
    EXPECT_THROW(DistributedAdaptive(s.net, s.tree, 16, 4, opts),
                 ContractError);
  };
  using Opts = DistributedAdaptive::Options;
  refused([](Opts& o) {
    o.mode = DistributedController::Mode::kExhaustSignal;
  });
  refused([](Opts& o) { o.apply_events = false; });
  refused([](Opts& o) { o.serials = Interval(1, 16); });
  refused([](Opts& o) { o.on_pass_down = [](NodeId, std::uint64_t) {}; });
  refused([](Opts& o) { o.debug_trace = true; });
  EXPECT_EQ(s.net.stats().messages, 0u);
}

// ---- Lemma 4.5 at the wrapper level ------------------------------------------

/// With requests issued one at a time, the distributed pipeline makes
/// exactly the centralized pipeline's decisions: the same verdict and the
/// same new node for every request, across every rotation and the W = 0
/// trivial tail, and the same iteration count at the end.
void expect_wrappers_agree(std::uint64_t M, std::uint64_t W,
                           std::uint64_t iterations) {
  constexpr std::uint64_t kNodes = 200, kU = 256, kMaxAdds = 50;
  Rng build_a(31), build_b(31);
  Sim s;
  workload::build(s.tree, workload::Shape::kPath, kNodes, build_a);
  DynamicTree mirror;
  workload::build(mirror, workload::Shape::kPath, kNodes, build_b);
  DistributedIterated dist(s.net, s.tree, M, W, kU);
  IteratedController cent(mirror, M, W, kU);

  Rng pick(32);
  std::uint64_t adds = 0;
  for (std::uint64_t i = 0; i < M + 16; ++i) {
    const auto nodes = mirror.alive_nodes();
    const NodeId u = nodes[pick.index(nodes.size())];
    const bool add = adds < kMaxAdds && pick.chance(0.01);
    Result rc, rd;
    if (add) {
      rc = cent.request_add_leaf(u);
      rd = sync_submit(s, dist, RequestSpec{RequestSpec::Type::kAddLeaf, u});
      adds += rc.granted();
    } else {
      rc = cent.request_event(u);
      rd = sync_submit(s, dist, RequestSpec{RequestSpec::Type::kEvent, u});
    }
    ASSERT_EQ(rd.outcome, rc.outcome) << "diverged at request " << i;
    ASSERT_EQ(rd.new_node, rc.new_node) << "diverged at request " << i;
  }
  EXPECT_EQ(dist.iterations(), cent.iterations());
  EXPECT_EQ(dist.permits_granted(), cent.permits_granted());
  EXPECT_EQ(cent.iterations(), iterations);
  EXPECT_EQ(s.tree.size(), mirror.size());
}

TEST(WrapperReduction, IteratedMatchesCentralizedAcrossRotations) {
  expect_wrappers_agree(/*M=*/1u << 14, /*W=*/1, /*iterations=*/3);
}

TEST(WrapperReduction, IteratedMatchesCentralizedThroughTrivialTail) {
  expect_wrappers_agree(/*M=*/4096, /*W=*/0, /*iterations=*/2);
}

TEST(WrapperReduction, IteratedMatchesCentralizedSmallBudget) {
  expect_wrappers_agree(/*M=*/4096, /*W=*/1, /*iterations=*/2);
}

}  // namespace
}  // namespace dyncon::core
