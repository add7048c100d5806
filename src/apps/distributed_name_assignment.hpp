#pragma once

// The name-assignment protocol of §5.2, distributed.
//
// Iteration i: one DFS token relabels all nodes (two passes — temporary
// range 3N_i + DFS first, then [1, N_i] — so identities stay unique while
// they change; the token's walk is 2(n-1) hops per pass, charged as
// control traffic), then a distributed terminating (N_i/2, N_i/4)-
// controller whose permits carry explicit serial numbers from
// [N_i+1, 3N_i/2] admits joins; a node is named by the serial of the
// permit that admitted it.  On termination the protocol recounts with a
// real convergecast and starts the next iteration.
//
// Invariants (audited in tests): identities pairwise distinct at all
// times, every identity within [1, 4n].

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "agent/convergecast.hpp"
#include "core/iterated.hpp"

namespace dyncon::apps {

class DistributedNameAssignment {
 public:
  using Callback = core::DistributedController::Callback;

  struct Options {
    bool track_domains = false;
  };

  DistributedNameAssignment(sim::Network& net, tree::DynamicTree& tree,
                            Options options);
  DistributedNameAssignment(sim::Network& net, tree::DynamicTree& tree)
      : DistributedNameAssignment(net, tree, Options{}) {}

  void submit(const core::RequestSpec& spec, Callback done);
  void submit_add_leaf(NodeId parent, Callback done);
  void submit_add_internal_above(NodeId child, Callback done);
  void submit_remove(NodeId v, Callback done);

  [[nodiscard]] std::uint64_t id_of(NodeId v) const;
  [[nodiscard]] std::uint64_t max_id() const;
  [[nodiscard]] bool ids_unique() const;
  [[nodiscard]] std::uint64_t iterations() const { return iterations_; }
  [[nodiscard]] bool rotating() const { return rotating_; }
  [[nodiscard]] std::uint64_t messages() const;

 private:
  void start_iteration(std::uint64_t ni);
  void begin_rotation();
  void relabel_dfs(std::uint64_t offset);
  void dispatch(const core::RequestSpec& spec, Callback done);

  sim::Network& net_;
  tree::DynamicTree& tree_;
  Options options_;
  agent::Convergecast cast_;
  std::unique_ptr<core::DistributedTerminating> inner_;
  std::unordered_map<NodeId, std::uint64_t> ids_;
  std::uint64_t iterations_ = 0;
  bool rotating_ = false;
  std::deque<std::pair<core::RequestSpec, Callback>> pending_;
  std::uint64_t messages_base_ = 0;
};

}  // namespace dyncon::apps
