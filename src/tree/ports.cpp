#include "tree/ports.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace dyncon::tree {

void PortAssigner::reset() {
  for (std::size_t i = 0; i < used_; ++i) tables_[i].clear();
  used_ = 0;
  rng_ = Rng(seed_);
}

std::uint64_t PortAssigner::approx_bytes() const {
  std::uint64_t bytes = tables_.capacity() * sizeof(Table);
  for (const Table& t : tables_) bytes += t.capacity() * sizeof(Edge);
  return bytes;
}

const PortAssigner::Edge* PortAssigner::find_neighbor(const Table& t,
                                                      NodeId neighbor) {
  for (const Edge& e : t) {
    if (e.neighbor == neighbor) return &e;
  }
  return nullptr;
}

PortId PortAssigner::attach(NodeId node, NodeId neighbor) {
  if (node >= used_) {
    used_ = static_cast<std::size_t>(node) + 1;
    if (used_ > tables_.size()) tables_.resize(used_);
  }
  Table& t = tables_[node];
  DYNCON_REQUIRE(find_neighbor(t, neighbor) == nullptr,
                 "port to this neighbor already exists");
  // Adversarial-looking port id; retry on the (rare) per-node collision.
  PortId p;
  do {
    p = rng_.next();
  } while (std::any_of(t.begin(), t.end(),
                       [p](const Edge& e) { return e.port == p; }));
  t.push_back(Edge{neighbor, p});
  return p;
}

void PortAssigner::detach(NodeId node, NodeId neighbor) {
  if (node >= used_) return;
  std::erase_if(tables_[node],
                [neighbor](const Edge& e) { return e.neighbor == neighbor; });
}

void PortAssigner::drop_node(NodeId node) {
  // Ids are never reused within a build; the list keeps its capacity for
  // the node that takes this id after the next reset().
  if (node < used_) tables_[node].clear();
}

bool PortAssigner::has_port(NodeId node, NodeId neighbor) const {
  const Table* t = table(node);
  return t != nullptr && find_neighbor(*t, neighbor) != nullptr;
}

PortId PortAssigner::port_to(NodeId node, NodeId neighbor) const {
  const Table* t = table(node);
  DYNCON_REQUIRE(t != nullptr, "node has no ports");
  const Edge* e = find_neighbor(*t, neighbor);
  DYNCON_REQUIRE(e != nullptr, "no port to neighbor");
  return e->port;
}

NodeId PortAssigner::neighbor_at(NodeId node, PortId port) const {
  const Table* t = table(node);
  DYNCON_REQUIRE(t != nullptr, "node has no ports");
  const auto it =
      std::find_if(t->begin(), t->end(),
                   [port](const Edge& e) { return e.port == port; });
  DYNCON_REQUIRE(it != t->end(), "no such port");
  return it->neighbor;
}

std::size_t PortAssigner::degree(NodeId node) const {
  const Table* t = table(node);
  return t == nullptr ? 0 : t->size();
}

}  // namespace dyncon::tree
