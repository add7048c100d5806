#pragma once

// The unknown-U (M,W)-controller of Theorem 3.5.
//
// No bound on the number of nodes is known in advance.  The controller runs
// in iterations; iteration i assumes U = U_i and executes a *terminating*
// (M_i, W)-controller under that assumption, where
//
//   part 1 (Policy::kChangeCount):  U_i = 2 N_i (N_i = nodes at iteration
//     start) and the iteration is rotated after Z_i = U_i/4 topological
//     changes, giving move complexity
//     O(n0 log^2 n0 log(M/(W+1)) + sum_j log^2 n_j log(M/(W+1)));
//
//   part 2 (Policy::kSizeDoubling): the iteration is rotated when the node
//     count doubles relative to the maximum seen before the iteration (we
//     additionally rotate once the additions within an iteration reach that
//     maximum, which keeps the per-iteration U assumption sound — the paper
//     leaves this accounting implicit), giving O(N log^2 N log(M/(W+1))).
//
// Rotation performs a broadcast/upcast to count N_{i+1} and the granted
// requests Y_i, clears the structure, and starts iteration i+1 with
// M_{i+1} = M_i - Y_i.  If an iteration's terminating controller terminates
// on its own, fewer than W permits were left, so the controller as a whole
// starts its reject wave.

#include <cstdint>
#include <memory>

#include "core/iterated.hpp"

namespace dyncon::core {

class AdaptiveController final : public IController {
 public:
  enum class Policy : std::uint8_t { kChangeCount, kSizeDoubling };

  struct Options {
    Policy policy = Policy::kChangeCount;
    bool track_domains = true;
  };

  AdaptiveController(tree::DynamicTree& tree, std::uint64_t M, std::uint64_t W,
                     Options options);
  AdaptiveController(tree::DynamicTree& tree, std::uint64_t M, std::uint64_t W)
      : AdaptiveController(tree, M, W, Options{}) {}

  Result request_event(NodeId u) override;
  Result request_add_leaf(NodeId parent) override;
  Result request_add_internal_above(NodeId child) override;
  Result request_remove(NodeId v) override;

  [[nodiscard]] std::uint64_t cost() const override;
  [[nodiscard]] std::uint64_t permits_granted() const override;

  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] std::uint64_t rejects_delivered() const { return rejects_; }
  [[nodiscard]] std::uint64_t current_U() const { return ui_; }

 private:
  template <typename Fn>
  Result run(Fn&& submit, bool topological);
  void start_iteration();
  void rotate();
  [[nodiscard]] bool should_rotate() const;

  tree::DynamicTree& tree_;
  Options options_;
  std::uint64_t w_;

  std::unique_ptr<TerminatingController> inner_;
  std::uint64_t mi_;          ///< permits available to the current iteration
  std::uint64_t ui_ = 0;      ///< the current iteration's U assumption
  std::uint64_t zi_ = 0;      ///< topological changes this iteration
  std::uint64_t adds_ = 0;    ///< additions this iteration (part-2 guard)
  std::uint64_t max_n_ = 0;   ///< max simultaneous nodes before iteration
  std::uint64_t iterations_ = 0;
  bool done_ = false;
  bool wave_charged_ = false;
  std::uint64_t granted_base_ = 0;
  std::uint64_t cost_base_ = 0;
  std::uint64_t rejects_ = 0;
};

}  // namespace dyncon::core
