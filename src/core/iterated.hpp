#pragma once

// Observation 3.4 (the iterated controller) and Observation 2.1 (the
// terminating transform), written once over both base controllers.
//
// Iterated<Base> runs Base instances in iterations: iteration i uses
// parameters (M_i, M_i/2); when the instance first signals exhaustion the
// wrapper drains it (lets every active request finish — the distributed
// stand-in for "all actions of the controller have been completed"), counts
// the L unused permits left in packages and storage, clears the structure,
// and starts iteration i+1 with M_{i+1} = L.  Requests that saw the
// exhaustion are replayed on the next instance.  Liveness of each iteration
// guarantees L <= M_i/2, so after O(log(M/(W+1))) iterations the leftover is
// within a constant factor of W and a final (M_i, W) iteration finishes the
// job.  Theorem 4.7 is exactly this applied to the §4 controller, which
// simulates the centralized one (Lemma 4.5).
//
// W = 0 (grant *exactly* M permits) follows the paper: run the (M,1)
// pipeline; if it ends short, the trivial (1,0)-controller — a direct
// root-to-requester delivery — grants the remaining permits.
//
// In Mode::kExhaustSignal the wrapper reports kExhausted instead of starting
// a reject wave.  Terminating<Base> (Obs. 2.1) builds on that: it never
// rejects; when the pipeline exhausts, or when it is terminated externally
// (an adaptive or application rotation), it drains, performs one
// broadcast-and-upcast, and grants nothing from then on.  At termination
// the number of granted permits m satisfies M - W <= m <= M.
//
// Every difference between the two bases lives in CostModel<Base>:
//
//                          centralized   distributed
//   reject wave            n             n
//   trivial-tail grant     depth         2 * depth
//   rotation               0             2n
//   termination            2n            2n
//   trace timestamps       0             now()
//
// The centralized base is an instant backend: a request completes inside
// the call that submits it, so the drain is empty and replays run inline.
// The distributed base completes from the event loop.  Both are explicitly
// instantiated in iterated.cpp; IteratedController / TerminatingController
// are the synchronous IController facades over the centralized pair, and
// DistributedIterated / DistributedTerminating name the distributed pair.

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>

#include "core/centralized_controller.hpp"
#include "core/controller_iface.hpp"
#include "core/distributed_controller.hpp"
#include "sim/watchdog.hpp"
#include "util/error.hpp"

namespace dyncon::core {

template <typename Base>
class CostModel;

/// Cost is move complexity; completion runs inline.
template <>
class CostModel<CentralizedController> {
 public:
  using Options = CentralizedController::Options;

  [[nodiscard]] std::unique_ptr<CentralizedController> make(
      tree::DynamicTree& tree, Params params, Options options) const;
  template <typename Fn>
  void submit(CentralizedController& c, const RequestSpec& spec,
              Fn&& done) const {
    done(c.request(spec));
  }
  template <typename Fn>
  void post(Fn&& fn) const {
    fn();
  }
  [[nodiscard]] SimTime now() const { return 0; }

  [[nodiscard]] std::uint64_t cost(const CentralizedController& c) const {
    return c.cost();
  }
  std::uint64_t reject_wave(std::uint64_t n) const { return n; }
  std::uint64_t trivial_grant(std::uint64_t depth, std::uint64_t) const {
    return depth;
  }
  std::uint64_t rotation(std::uint64_t, std::uint64_t) const { return 0; }
  std::uint64_t termination(std::uint64_t n) const { return 2 * n; }

  /// Every base field is a wrapper option.
  static void require_wrapper_options(const Options&) {}
  // No crash adversary, no watchdog, no counting-only instances.
  static bool applies_events(const Options&) { return true; }
  static bool waste_bound_voided(const Options&) { return false; }
  static std::uint32_t redrives(const Options&) { return 0; }
  static sim::Watchdog* watchdog(const Options&) { return nullptr; }
  static sim::Watchdog* probe_watchdog(const Options&) { return nullptr; }
  static bool crash_recover(CentralizedController*) { return false; }
};

/// Cost is messages, each also charged to the network's per-kind stats;
/// completion runs from the event loop.
template <>
class CostModel<DistributedController> {
 public:
  using Options = DistributedController::Options;

  /// Implicit, so `DistributedIterated(net, tree, M, W, U)` reads like the
  /// DistributedController constructor it wraps.
  CostModel(sim::Network& net)  // NOLINT(google-explicit-constructor)
      : net_(&net) {}

  /// The wrapper arms its watchdog at its own submit boundary — one token
  /// per request across every replay — so instances get none.
  [[nodiscard]] std::unique_ptr<DistributedController> make(
      tree::DynamicTree& tree, Params params, Options options) const;
  template <typename Fn>
  void submit(DistributedController& c, const RequestSpec& spec,
              Fn&& done) const {
    c.submit(spec, std::forward<Fn>(done));
  }
  template <typename Fn>
  void post(Fn&& fn) const {
    net_->queue().schedule_after(0, std::forward<Fn>(fn));
  }
  [[nodiscard]] SimTime now() const { return net_->queue().now(); }

  [[nodiscard]] std::uint64_t cost(const DistributedController& c) const {
    return c.messages_used();
  }
  std::uint64_t reject_wave(std::uint64_t n) const;
  /// One agent walks to the root and back; `serial` names it on the wire.
  std::uint64_t trivial_grant(std::uint64_t depth,
                              std::uint64_t serial) const;
  /// Broadcast/upcast counting the leftover L and resetting the structure.
  std::uint64_t rotation(std::uint64_t n, std::uint64_t L) const;
  std::uint64_t termination(std::uint64_t n) const;

  /// `debug_trace` stays a per-instance DistributedController knob.
  static void require_wrapper_options(const Options& o) {
    DYNCON_REQUIRE(!o.debug_trace,
                   "debug_trace is not a wrapper option; set it on a "
                   "DistributedController");
  }
  static bool applies_events(const Options& o) { return o.apply_events; }
  /// A crash adversary voids Lemma 3.2's leftover bound: permits rescued
  /// from killed agents sit as static packages nobody may ever claim.
  static bool waste_bound_voided(const Options& o) {
    return o.crashes != nullptr && !o.crashes->schedule().crash_free();
  }
  static std::uint32_t redrives(const Options& o) { return o.crash_redrives; }
  static sim::Watchdog* watchdog(const Options& o) { return o.watchdog; }
  /// The death probe follows the current instance across rotations.
  static sim::Watchdog* probe_watchdog(const Options& o) {
    return o.crashes != nullptr ? o.watchdog : nullptr;
  }
  static bool crash_recover(DistributedController* c) {
    return c != nullptr && c->crash_recover();
  }

 private:
  sim::Network* net_;
};

template <typename Base>
class Terminating;

template <typename Base>
class Iterated : public SubmitShorthands<Iterated<Base>> {
 public:
  using Model = CostModel<Base>;
  using Options = typename Base::Options;
  using Mode = typename Base::Mode;

  /// Serial tracking is only supported when the first iteration is final
  /// (M <= 4*max(W,1)), which covers every application in §5.
  Iterated(Model model, tree::DynamicTree& tree, std::uint64_t M,
           std::uint64_t W, std::uint64_t U, Options options = {});

  Iterated(const Iterated&) = delete;
  Iterated& operator=(const Iterated&) = delete;

  void submit(const RequestSpec& spec, Callback done);

  /// The paper's cost measure: moves (centralized) or messages
  /// (distributed), retired iterations included.
  [[nodiscard]] std::uint64_t cost() const;
  [[nodiscard]] std::uint64_t messages_used() const { return cost(); }
  [[nodiscard]] std::uint64_t permits_granted() const;
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  /// True once every future request will be rejected (the pipeline is
  /// spent, or the final iteration has started its reject wave).
  [[nodiscard]] bool done() const {
    return phase_ == Phase::kDone || (inner_ && inner_->reject_wave_started());
  }
  /// Unused permits across the pipeline (root storage + packages).
  [[nodiscard]] std::uint64_t unused_permits() const;
  /// The active base instance (null between iterations and once done).
  [[nodiscard]] const Base* inner() const { return inner_.get(); }
  /// No request is inside the base instance.
  [[nodiscard]] bool quiescent() const { return inflight_ == 0; }

  /// Forwarded to the current instance (see
  /// DistributedController::crash_recover); false between iterations.
  bool crash_recover() { return Model::crash_recover(inner_.get()); }

  /// Stop accepting grants: drain, then call `on_done` (the terminating
  /// transform).  Subsequent submissions complete with kExhausted.
  void freeze(std::function<void()> on_done);

 private:
  enum class Phase : std::uint8_t { kIterating, kFinal, kTrivial, kDone };

  [[nodiscard]] bool is_final(std::uint64_t Mi) const {
    return w_ >= 1 ? Mi <= 4 * w_ : Mi <= 4;
  }
  /// A template so that Terminating's continuation reaches the instant
  /// backend without being type-erased (and heap-allocated) per request.
  template <typename Fn>
  void dispatch(const RequestSpec& spec, Fn done,
                std::uint32_t redrives_left);
  void start_iteration(std::uint64_t Mi);
  void rotate();
  void maybe_finish_drain();
  void complete(Callback done, Result r);
  void apply_trivial(const RequestSpec& spec, Result& r);

  Model model_;
  tree::DynamicTree& tree_;
  std::uint64_t w_, u_;
  Options options_;

  std::unique_ptr<Base> inner_;
  Phase phase_ = Phase::kIterating;
  bool draining_ = false;
  bool frozen_ = false;
  bool wave_charged_ = false;
  std::function<void()> on_frozen_;
  std::uint64_t inflight_ = 0;
  std::uint64_t iterations_ = 0;
  std::uint64_t trivial_storage_ = 0;  ///< W = 0 tail permits
  std::deque<std::pair<RequestSpec, Callback>> pending_;
  std::uint64_t cost_base_ = 0;     ///< cost of retired iterations
  std::uint64_t granted_base_ = 0;  ///< grants of retired iterations
  sim::Watchdog::ProbeScope death_probe_;

  friend class Terminating<Base>;
};

template <typename Base>
class Terminating : public SubmitShorthands<Terminating<Base>> {
 public:
  using Model = CostModel<Base>;
  using Options = typename Base::Options;

  /// `options.mode` must stay at its default: a terminating controller
  /// never rejects, so it runs its pipeline in exhaust-signal mode.
  Terminating(Model model, tree::DynamicTree& tree, std::uint64_t M,
              std::uint64_t W, std::uint64_t U, Options options = {});

  void submit(const RequestSpec& spec, Callback done);

  [[nodiscard]] bool terminated() const { return terminated_; }
  [[nodiscard]] std::uint64_t cost() const {
    return inner_.cost() + control_cost_;
  }
  [[nodiscard]] std::uint64_t messages_used() const { return cost(); }
  [[nodiscard]] std::uint64_t permits_granted() const {
    return inner_.permits_granted();
  }
  [[nodiscard]] const Iterated<Base>& inner() const { return inner_; }

  /// Terminate externally (adaptive / application rotation): drain,
  /// broadcast/upcast, then `on_done` fires.  Idempotent.
  void terminate(std::function<void()> on_done);

  /// Forwarded orphan-lock release wave.
  bool crash_recover() { return inner_.crash_recover(); }

 private:
  void mark_terminated();
  /// Obs. 2.1's reading of an inner verdict: exhaustion terminates.
  template <typename Fn>
  auto on_verdict(Fn done);

  tree::DynamicTree& tree_;
  Iterated<Base> inner_;
  bool terminated_ = false;
  std::uint64_t control_cost_ = 0;
};

extern template class Iterated<CentralizedController>;
extern template class Iterated<DistributedController>;
extern template class Terminating<CentralizedController>;
extern template class Terminating<DistributedController>;

/// Theorem 4.7: the iterated distributed controller.
using DistributedIterated = Iterated<DistributedController>;
/// Observation 2.1 over the distributed controller.
using DistributedTerminating = Terminating<DistributedController>;

/// A synchronous IController over a centralized wrapper: the instant
/// backend completes each request inside the call that submits it.
template <typename Core>
class InlineController : public IController {
 public:
  Result request_event(NodeId u) override {
    return run(RequestSpec{RequestSpec::Type::kEvent, u});
  }
  Result request_add_leaf(NodeId parent) override {
    return run(RequestSpec{RequestSpec::Type::kAddLeaf, parent});
  }
  Result request_add_internal_above(NodeId child) override {
    return run(RequestSpec{RequestSpec::Type::kAddInternal, child});
  }
  Result request_remove(NodeId v) override {
    return run(RequestSpec{RequestSpec::Type::kRemove, v});
  }
  [[nodiscard]] std::uint64_t cost() const override { return core_.cost(); }
  [[nodiscard]] std::uint64_t permits_granted() const override {
    return core_.permits_granted();
  }

 protected:
  InlineController(tree::DynamicTree& tree, std::uint64_t M, std::uint64_t W,
                   std::uint64_t U, CentralizedController::Options options)
      : core_({}, tree, M, W, U, std::move(options)) {}

  Core core_;

 private:
  Result run(const RequestSpec& spec) {
    Result out;
    bool fired = false;
    core_.submit(spec, [&out, &fired](const Result& r) {
      out = r;
      fired = true;
    });
    DYNCON_INVARIANT(fired, "instant backend completed asynchronously");
    return out;
  }
};

class IteratedController final
    : public InlineController<Iterated<CentralizedController>> {
 public:
  using Mode = CentralizedController::Mode;
  using Options = CentralizedController::Options;

  IteratedController(tree::DynamicTree& tree, std::uint64_t M,
                     std::uint64_t W, std::uint64_t U, Options options = {})
      : InlineController(tree, M, W, U, std::move(options)) {}

  [[nodiscard]] std::uint64_t iterations() const {
    return core_.iterations();
  }
  [[nodiscard]] bool done() const { return core_.done(); }
  [[nodiscard]] const CentralizedController* inner() const {
    return core_.inner();
  }
};

class TerminatingController final
    : public InlineController<Terminating<CentralizedController>> {
 public:
  using Options = CentralizedController::Options;

  TerminatingController(tree::DynamicTree& tree, std::uint64_t M,
                        std::uint64_t W, std::uint64_t U,
                        Options options = {})
      : InlineController(tree, M, W, U, std::move(options)) {}

  [[nodiscard]] bool terminated() const { return core_.terminated(); }

  /// Force termination now (used by wrappers that rotate iterations on a
  /// schedule of their own, e.g. the adaptive controller's Z_i counter).
  /// Charges the terminating broadcast/upcast and freezes the controller.
  void terminate_now() {
    core_.terminate([] {});
  }

  [[nodiscard]] const Iterated<CentralizedController>& inner() const {
    return core_.inner();
  }
};

}  // namespace dyncon::core
