#pragma once

// The name-assignment protocol of §5.2 (Theorem 5.2).
//
// Every node holds a short unique identity: at any time all identities are
// distinct integers in [1, 4n], i.e. log n + O(1) bits.  Iteration i:
//
//   1. count N_i and relabel in two DFS traversals — first to the
//      "temporary" range (id = 3*N_i + DFS number), then to [1, N_i]; the
//      two-phase dance keeps identities unique *during* the relabeling;
//   2. run a terminating (N_i/2, N_i/4)-controller whose permits carry
//      explicit serial numbers from [N_i+1, 3N_i/2]; a node that joins is
//      named by the serial of the permit that admitted it.
//
// The iteration ends when the controller terminates (after >= N_i/4
// changes), giving the O(n0 log^2 n0 + sum_j log^2 n_j) message bound.

#include <cstdint>
#include <memory>
#include <unordered_map>

#include "core/iterated.hpp"

namespace dyncon::apps {

class NameAssignment {
 public:
  struct Options {
    bool track_domains = false;
  };

  /// Initial identities are assigned by a DFS over the starting tree.
  NameAssignment(tree::DynamicTree& tree, Options options);
  explicit NameAssignment(tree::DynamicTree& tree)
      : NameAssignment(tree, Options{}) {}

  core::Result request_add_leaf(NodeId parent);
  core::Result request_add_internal_above(NodeId child);
  core::Result request_remove(NodeId v);

  /// Current identity of an alive node.
  [[nodiscard]] std::uint64_t id_of(NodeId v) const;

  /// Largest identity currently in use (0 when only the root exists...
  /// the root always has one, so >= 1).
  [[nodiscard]] std::uint64_t max_id() const;

  /// True iff all current identities are pairwise distinct (audit).
  [[nodiscard]] bool ids_unique() const;

  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] std::uint64_t messages() const;

 private:
  template <typename Fn>
  core::Result with_rotation(Fn&& submit);
  void start_iteration();
  void relabel_dfs(std::uint64_t offset);

  tree::DynamicTree& tree_;
  Options options_;
  std::unique_ptr<core::TerminatingController> inner_;
  std::unordered_map<NodeId, std::uint64_t> ids_;
  std::uint64_t iterations_ = 0;
  std::uint64_t control_messages_ = 0;
  std::uint64_t messages_base_ = 0;
};

}  // namespace dyncon::apps
