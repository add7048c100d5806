#include "core/iterated.hpp"

#include <algorithm>
#include <utility>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::core {

// ---- cost models -------------------------------------------------------------

std::unique_ptr<CentralizedController> CostModel<CentralizedController>::make(
    tree::DynamicTree& tree, Params params, Options options) const {
  return std::make_unique<CentralizedController>(tree, params,
                                                 std::move(options));
}

std::unique_ptr<DistributedController> CostModel<DistributedController>::make(
    tree::DynamicTree& tree, Params params, Options options) const {
  options.watchdog = nullptr;
  return std::make_unique<DistributedController>(*net_, tree, params,
                                                 std::move(options));
}

std::uint64_t CostModel<DistributedController>::reject_wave(
    std::uint64_t n) const {
  net_->charge(sim::Message::reject_wave(), n);
  return n;
}

std::uint64_t CostModel<DistributedController>::trivial_grant(
    std::uint64_t depth, std::uint64_t serial) const {
  // Its hops are modeled with a worst-case (deepest-point) hop message.
  net_->charge(sim::Message::agent_hop(serial, depth, depth, /*bag_level=*/0,
                                       /*phase=*/0, /*carrying=*/true),
               2 * depth);
  return 2 * depth;
}

std::uint64_t CostModel<DistributedController>::rotation(
    std::uint64_t n, std::uint64_t L) const {
  net_->charge(sim::Message::control(sim::ControlTopic::kRotate,
                                     std::max(L, n)),
               2 * n);
  return 2 * n;
}

std::uint64_t CostModel<DistributedController>::termination(
    std::uint64_t n) const {
  // Broadcast of the termination signal + upcast of acknowledgements
  // (waiting for granted events to occur), per Observation 2.1.
  net_->charge(sim::Message::control(sim::ControlTopic::kTerminate, n), 2 * n);
  return 2 * n;
}

// ---- Iterated (Obs. 3.4) -------------------------------------------------------

template <typename Base>
Iterated<Base>::Iterated(Model model, tree::DynamicTree& tree, std::uint64_t M,
                         std::uint64_t W, std::uint64_t U, Options options)
    : model_(model),
      tree_(tree),
      w_(W),
      u_(U),
      options_(std::move(options)),
      death_probe_(Model::probe_watchdog(options_), this,
                   [this] { return crash_recover(); }) {
  DYNCON_REQUIRE(M >= 1 && U >= 1, "M, U must be >= 1");
  Model::require_wrapper_options(options_);
  DYNCON_REQUIRE(options_.serials.empty() || is_final(M),
                 "serial tracking requires a single (final) iteration");
  start_iteration(M);
}

template <typename Base>
void Iterated<Base>::start_iteration(std::uint64_t Mi) {
  ++iterations_;
  obs::count("controller.iterations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationStart, model_.now(),
                            tree_.root(), iterations_, Mi});
  Options opts = options_;
  std::uint64_t Wi;
  if (is_final(Mi)) {
    // Final iteration: run with the real waste budget.  For W = 0 the final
    // base iteration uses W = 1 and the trivial (1,0)-controller cleans up,
    // so the base must signal exhaustion rather than reject.
    Wi = std::max<std::uint64_t>(w_, 1);
    if (w_ == 0) opts.mode = Mode::kExhaustSignal;
    phase_ = Phase::kFinal;
  } else {
    Wi = std::max<std::uint64_t>(Mi / 2, 1);
    opts.mode = Mode::kExhaustSignal;
    phase_ = Phase::kIterating;
  }
  if (iterations_ > 1) opts.serials = Interval{};
  inner_ = model_.make(tree_, Params(Mi, Wi, u_), std::move(opts));
}

template <typename Base>
void Iterated<Base>::complete(Callback done, Result r) {
  model_.post([done = std::move(done), r] { done(r); });
}

template <typename Base>
void Iterated<Base>::apply_trivial(const RequestSpec& spec, Result& r) {
  if (!Model::applies_events(options_)) return;
  switch (spec.type) {
    case RequestSpec::Type::kEvent:
      return;
    case RequestSpec::Type::kAddLeaf:
      r.new_node = tree_.add_leaf(spec.subject);
      return;
    case RequestSpec::Type::kAddInternal:
      r.new_node = tree_.add_internal_above(spec.subject);
      return;
    case RequestSpec::Type::kRemove:
      tree_.remove_node(spec.subject);  // no packages left to rescue
      return;
  }
}

template <typename Base>
template <typename Fn>
void Iterated<Base>::dispatch(const RequestSpec& spec, Fn done,
                              std::uint32_t redrives_left) {
  if (frozen_) {
    complete(std::move(done), Result{Outcome::kExhausted});
    return;
  }
  if (phase_ == Phase::kTrivial && trivial_storage_ == 0) {
    phase_ = Phase::kDone;
  }
  if (phase_ == Phase::kDone) {
    if (options_.mode == Mode::kExhaustSignal) {
      complete(std::move(done), Result{Outcome::kExhausted});
      return;
    }
    if (!wave_charged_) {
      // One reject package per node (§2.2 reject wave), charged once.
      cost_base_ += model_.reject_wave(tree_.size());
      wave_charged_ = true;
    }
    complete(std::move(done), Result{Outcome::kRejected});
    return;
  }
  // Only a replay can find its subject gone: submit checked it was alive.
  if (!tree_.alive(spec.subject)) {
    complete(std::move(done), Result{Outcome::kMoot});
    return;
  }
  if (phase_ == Phase::kTrivial) {
    // The trivial (1,0)-controller: the permit travels from the root
    // straight to the requester.
    --trivial_storage_;
    ++granted_base_;
    cost_base_ += model_.trivial_grant(tree_.depth(arrival_node(tree_, spec)),
                                       granted_base_);
    Result r{Outcome::kGranted};
    apply_trivial(spec, r);
    complete(std::move(done), r);
    return;
  }
  if (draining_) {
    pending_.emplace_back(spec, std::move(done));
    return;
  }
  ++inflight_;
  auto on_verdict = [this, spec, redrives_left,
                     done = std::move(done)](const Result& r) mutable {
    --inflight_;
    if (r.outcome == Outcome::kExhausted) {
      pending_.emplace_back(spec, std::move(done));
      draining_ = true;
    } else if (r.crash_failed && redrives_left > 0 && !frozen_) {
      // A crash killed the agent before any verdict: re-drive the request
      // instead of surfacing the synthetic rejection.
      obs::count("recovery.redrives");
      if (!tree_.alive(spec.subject)) {
        done(Result{Outcome::kMoot});
      } else {
        dispatch(spec, std::move(done), redrives_left - 1);
      }
    } else {
      done(r);
    }
    maybe_finish_drain();
  };
  model_.submit(*inner_, spec, std::move(on_verdict));
}

template <typename Base>
void Iterated<Base>::maybe_finish_drain() {
  if (inflight_ != 0) return;
  if (frozen_) {
    // Flush everything still pending as exhausted, then notify.
    auto pend = std::move(pending_);
    pending_.clear();
    for (auto& [spec, cb] : pend) {
      complete(std::move(cb), Result{Outcome::kExhausted});
    }
    if (on_frozen_) {
      auto cb = std::move(on_frozen_);
      on_frozen_ = nullptr;
      cb();
    }
    return;
  }
  if (draining_) rotate();
}

template <typename Base>
void Iterated<Base>::rotate() {
  DYNCON_INVARIANT(inner_ != nullptr, "rotate without an active iteration");
  const std::uint64_t Wi = inner_->params().W();
  const std::uint64_t L = inner_->unused_permits();
  // Lemma 3.2 liveness (via Lemma 4.5's reduction for the distributed
  // base), checked live: at the first would-be reject, unused permits
  // (storage + packages) never exceed the waste.
  DYNCON_INVARIANT(Model::waste_bound_voided(options_) || L <= Wi,
                   "iteration leftover exceeds waste bound");
  obs::count("controller.rotations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationRotate, model_.now(),
                            tree_.root(), iterations_, L});
  cost_base_ += model_.cost(*inner_) + model_.rotation(tree_.size(), L);
  granted_base_ += inner_->permits_granted();
  const bool was_final = phase_ == Phase::kFinal;
  inner_.reset();
  draining_ = false;

  if (was_final) {
    if (w_ == 0 && L > 0) {
      trivial_storage_ = L;  // the trivial (1,0) tail
      phase_ = Phase::kTrivial;
    } else {
      phase_ = Phase::kDone;
    }
  } else if (L == 0) {
    phase_ = Phase::kDone;
  } else {
    start_iteration(L);
  }

  auto pend = std::move(pending_);
  pending_.clear();
  for (auto& [spec, cb] : pend) {
    dispatch(spec, std::move(cb), Model::redrives(options_));
  }
}

template <typename Base>
void Iterated<Base>::freeze(std::function<void()> on_done) {
  DYNCON_REQUIRE(static_cast<bool>(on_done), "null freeze callback");
  frozen_ = true;
  on_frozen_ = std::move(on_done);
  maybe_finish_drain();
}

template <typename Base>
void Iterated<Base>::submit(const RequestSpec& spec, Callback done) {
  admit_request(tree_, spec, Model::watchdog(options_), done);
  dispatch(spec, std::move(done), Model::redrives(options_));
}

template <typename Base>
std::uint64_t Iterated<Base>::cost() const {
  return cost_base_ + (inner_ ? model_.cost(*inner_) : 0);
}

template <typename Base>
std::uint64_t Iterated<Base>::permits_granted() const {
  return granted_base_ + (inner_ ? inner_->permits_granted() : 0);
}

template <typename Base>
std::uint64_t Iterated<Base>::unused_permits() const {
  return trivial_storage_ + (inner_ ? inner_->unused_permits() : 0);
}

// ---- Terminating (Obs. 2.1) ------------------------------------------------------

template <typename Base>
Terminating<Base>::Terminating(Model model, tree::DynamicTree& tree,
                               std::uint64_t M, std::uint64_t W,
                               std::uint64_t U, Options options)
    : tree_(tree), inner_(model, tree, M, W, U, [&options] {
        DYNCON_REQUIRE(options.mode == Base::Mode::kRejectWave,
                       "a terminating controller never rejects: leave "
                       "options.mode at its default");
        options.mode = Base::Mode::kExhaustSignal;
        return std::move(options);
      }()) {}

template <typename Base>
void Terminating<Base>::mark_terminated() {
  if (terminated_) return;
  terminated_ = true;
  control_cost_ += inner_.model_.termination(tree_.size());
}

template <typename Base>
template <typename Fn>
auto Terminating<Base>::on_verdict(Fn done) {
  return [this, done = std::move(done)](const Result& r) mutable {
    if (r.outcome == Outcome::kExhausted) {
      mark_terminated();
      done(Result{Outcome::kTerminated});
      return;
    }
    // The "never rejects" contract has one carve-out: a crash-failed
    // request whose redrive budget ran out carries its flag to the caller.
    DYNCON_INVARIANT(r.outcome != Outcome::kRejected || r.crash_failed,
                     "terminating controller must never reject");
    done(r);
  };
}

template <typename Base>
void Terminating<Base>::submit(const RequestSpec& spec, Callback done) {
  if (terminated_) {
    inner_.model_.post(
        [done = std::move(done)] { done(Result{Outcome::kTerminated}); });
    return;
  }
  admit_request(tree_, spec, Model::watchdog(inner_.options_), done);
  inner_.dispatch(spec, on_verdict(std::move(done)),
                  Model::redrives(inner_.options_));
}

template <typename Base>
void Terminating<Base>::terminate(std::function<void()> on_done) {
  DYNCON_REQUIRE(static_cast<bool>(on_done), "null terminate callback");
  if (terminated_) {
    inner_.model_.post(std::move(on_done));
    return;
  }
  inner_.freeze([this, on_done = std::move(on_done)] {
    mark_terminated();
    on_done();
  });
}

template class Iterated<CentralizedController>;
template class Iterated<DistributedController>;
template class Terminating<CentralizedController>;
template class Terminating<DistributedController>;

}  // namespace dyncon::core
