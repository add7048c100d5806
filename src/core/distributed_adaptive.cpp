#include "core/distributed_adaptive.hpp"

#include <algorithm>
#include <utility>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::core {

DistributedAdaptive::DistributedAdaptive(sim::Network& net,
                                         tree::DynamicTree& tree,
                                         std::uint64_t M, std::uint64_t W,
                                         Options options)
    : model_(net),
      tree_(tree),
      options_(std::move(options)),
      w_(W),
      mi_(M),
      // One probe over both instances; no short-circuit, so a doomed holder
      // in the sidecar is collected even when the main instance acted.
      death_probe_(options_.crashes != nullptr ? options_.watchdog : nullptr,
                   this, [this] {
                     const bool a = main_ != nullptr && main_->crash_recover();
                     const bool b =
                         counter_ != nullptr && counter_->crash_recover();
                     return a || b;
                   }) {
  DYNCON_REQUIRE(M >= 1, "M must be >= 1");
  // App. A needs every instance to apply changes, grant anonymous permits
  // and answer rather than reject; none of these base fields is an option.
  DYNCON_REQUIRE(options_.mode == DistributedController::Mode::kRejectWave &&
                     options_.apply_events && options_.serials.empty() &&
                     !options_.on_pass_down && !options_.debug_trace,
                 "DistributedAdaptive takes no mode, apply_events, serials, "
                 "on_pass_down or debug_trace");
  start_iteration();
}

void DistributedAdaptive::start_iteration() {
  ++iterations_;
  obs::count("controller.iterations");
  obs::emit(obs::TraceEvent{obs::EventKind::kIterationStart,
                            model_.now(), tree_.root(), iterations_,
                            mi_});
  const std::uint64_t n = std::max<std::uint64_t>(tree_.size(), 1);
  max_n_ = std::max(max_n_, n);
  ui_ = options_.policy == Policy::kChangeCount ? 2 * n : 2 * max_n_;

  DistributedController::Options main_opts = options_;
  main_opts.watchdog = nullptr;  // armed at this wrapper's boundary
  main_ = std::make_unique<DistributedTerminating>(model_, tree_, mi_, w_, ui_,
                                                   main_opts);

  DistributedController::Options counter_opts = main_opts;
  counter_opts.track_domains = false;  // accounting sidecar only
  counter_opts.apply_events = false;   // counts, never applies changes
  counter_ = std::make_unique<DistributedTerminating>(
      model_, tree_, std::max<std::uint64_t>(ui_ / 2, 1),
      std::max<std::uint64_t>(ui_ / 4, 1), ui_, std::move(counter_opts));
}

void DistributedAdaptive::complete_async(Callback done, Result r) {
  model_.post([done = std::move(done), r] { done(r); });
}

void DistributedAdaptive::begin_rotation(bool main_exhausted) {
  if (rotating_ || done_) return;
  rotating_ = true;
  pending_drains_ = 2;
  auto drained = [this, main_exhausted] {
    if (--pending_drains_ > 0) return;
    // Defer the teardown to a fresh event: this callback runs inside the
    // draining controller's own call chain, which must fully unwind before
    // the controller object may be destroyed.
    model_.post([this, main_exhausted] { finish_rotation(main_exhausted); });
  };
  main_->terminate(drained);
  counter_->terminate(drained);
}

void DistributedAdaptive::finish_rotation(bool main_exhausted) {
  {
    obs::count("controller.rotations");
    obs::emit(obs::TraceEvent{obs::EventKind::kIterationRotate,
                              model_.now(), tree_.root(), iterations_,
                              main_->permits_granted()});
    // Both controllers are quiescent: broadcast/upcast counts N_{i+1} and
    // Y_i and resets the data structures.
    const std::uint64_t yi = main_->permits_granted();
    messages_base_ += main_->messages_used() + counter_->messages_used() +
                      model_.rotation(tree_.size(), yi + 1);
    granted_base_ += yi;
    main_.reset();
    counter_.reset();
    DYNCON_INVARIANT(yi <= mi_, "granted more than the iteration budget");
    mi_ -= yi;
    rotating_ = false;
    if (main_exhausted || mi_ == 0) {
      done_ = true;
    } else {
      start_iteration();
    }
    auto pend = std::move(pending_);
    pending_.clear();
    for (auto& [spec, cb] : pend) dispatch(spec, std::move(cb));
  }
}

void DistributedAdaptive::submit_to_main(const RequestSpec& spec,
                                         Callback done) {
  main_->submit(spec, [this, spec, done = std::move(done)](
                          const Result& r) mutable {
    if (r.outcome == Outcome::kTerminated) {
      // The main (M_i, W)-controller exhausted: liveness is secured, so the
      // whole controller transitions to rejecting.  The triggering request
      // is itself rejected.
      if (!done_) {
        pending_.emplace_back(spec, std::move(done));
        begin_rotation(/*main_exhausted=*/true);
      } else {
        dispatch(spec, std::move(done));
      }
      return;
    }
    done(r);
  });
}

void DistributedAdaptive::dispatch(const RequestSpec& spec, Callback done) {
  if (done_) {
    if (!wave_charged_) {
      messages_base_ += model_.reject_wave(tree_.size());
      wave_charged_ = true;
    }
    complete_async(std::move(done), Result{Outcome::kRejected});
    return;
  }
  if (rotating_) {
    pending_.emplace_back(spec, std::move(done));
    return;
  }
  if (!tree_.alive(spec.subject)) {
    complete_async(std::move(done), Result{Outcome::kMoot});
    return;
  }

  if (spec.type == RequestSpec::Type::kEvent) {
    submit_to_main(spec, std::move(done));
    return;
  }

  // Topological request: it must also be counted by the parallel
  // (U_i/2, U_i/4)-controller before the main controller may grant it.
  // The counting request is registered at the root: the count's semantics
  // do not depend on the arrival node, and the sidecar's agents must not
  // stand on nodes the main controller may delete (the two controllers
  // ignore each other's locks — App. A; see DESIGN.md for the
  // substitution note).
  counter_->submit_event(
      tree_.root(),
      [this, spec, done = std::move(done)](const Result& r) mutable {
        if (r.outcome == Outcome::kTerminated) {
          // >= U_i/4 changes this iteration: rotate, replay afterwards.
          pending_.emplace_back(spec, std::move(done));
          begin_rotation(/*main_exhausted=*/false);
          return;
        }
        if (r.outcome != Outcome::kGranted) {
          done(r);  // moot etc.
          return;
        }
        if (rotating_ || done_ || !tree_.alive(spec.subject)) {
          // The world moved while we were being counted.
          dispatch(spec, std::move(done));
          return;
        }
        submit_to_main(spec, std::move(done));
      });
}

void DistributedAdaptive::submit(const RequestSpec& spec, Callback done) {
  admit_request(tree_, spec, options_.watchdog, done);
  dispatch(spec, std::move(done));
}

std::uint64_t DistributedAdaptive::messages_used() const {
  return messages_base_ + (main_ ? main_->messages_used() : 0) +
         (counter_ ? counter_->messages_used() : 0);
}

std::uint64_t DistributedAdaptive::permits_granted() const {
  return granted_base_ + (main_ ? main_->permits_granted() : 0);
}

}  // namespace dyncon::core
