#pragma once

// Adversarial port numbering (paper §2.1.2).
//
// "We assume the relatively wasteful model in which the port numbers are
//  assigned by an adversary ... encoded using O(log N) bits."
//
// The assigner hands out arbitrary-looking (but deterministic) port numbers
// that are unique per node; nothing in the protocols may rely on ports being
// small or consecutive, and tests assert per-node uniqueness.
//
// It is a model assumption, not protocol state: no protocol reads a port,
// only tree::validate and the tests do.  So storage is built for the
// writers (every tree build and wake attaches each edge twice), and a
// lookup is a linear scan of one node's edges, as many as its degree.
// attach() scans too (the collision retry), so building a star of n nodes
// costs O(n^2) comparisons: cheap for the trees the benches and tests
// grow, but not for a root with 10^5 children.

#include <cstdint>
#include <vector>

#include "util/ids.hpp"
#include "util/rng.hpp"

namespace dyncon::tree {

/// Per-node port table: a flat list of (neighbor, port) edges per node.
class PortAssigner {
 public:
  explicit PortAssigner(std::uint64_t seed = 0xdecafbadULL)
      : rng_(seed), seed_(seed) {}

  /// Forget every port and rewind the adversary to its construction seed,
  /// keeping every edge list's capacity (slab-recycled trees rebuild into
  /// it without allocating).  Otherwise `*this = PortAssigner(seed)`.
  void reset();

  /// Reserve outer-table capacity for `nodes` node ids.
  void reserve_nodes(std::size_t nodes) { tables_.reserve(nodes); }

  /// Rough heap footprint in bytes (edge lists and the table array); an
  /// accounting estimate for `perf.mem.*`, not an allocator truth.
  [[nodiscard]] std::uint64_t approx_bytes() const;

  /// Assign a fresh port at `node` leading to `neighbor`.
  PortId attach(NodeId node, NodeId neighbor);

  /// Remove the port at `node` leading to `neighbor` (edge deleted).
  void detach(NodeId node, NodeId neighbor);

  /// Drop all ports of a deleted node.
  void drop_node(NodeId node);

  [[nodiscard]] bool has_port(NodeId node, NodeId neighbor) const;
  [[nodiscard]] PortId port_to(NodeId node, NodeId neighbor) const;
  [[nodiscard]] NodeId neighbor_at(NodeId node, PortId port) const;
  [[nodiscard]] std::size_t degree(NodeId node) const;

 private:
  struct Edge {
    NodeId neighbor;
    PortId port;
  };
  using Table = std::vector<Edge>;

  /// Indexed by NodeId — node ids are dense (DynamicTree allocates them
  /// sequentially and never reuses them within one build).  Only the first
  /// `used_` tables belong to the current build; the rest are kept empty
  /// with their capacity for the next build after a reset().
  std::vector<Table> tables_;
  std::size_t used_ = 0;
  Rng rng_;
  std::uint64_t seed_;

  [[nodiscard]] const Table* table(NodeId node) const {
    return node < used_ ? &tables_[node] : nullptr;
  }
  [[nodiscard]] static const Edge* find_neighbor(const Table& t,
                                                 NodeId neighbor);
};

}  // namespace dyncon::tree
