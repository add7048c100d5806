// Unit tests for the dynamic tree substrate: the four controlled
// topological changes, queries, ports, validation, and observers.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "tree/dynamic_tree.hpp"
#include "tree/validate.hpp"
#include "util/rng.hpp"

namespace dyncon::tree {
namespace {

TEST(DynamicTree, StartsWithRootOnly) {
  DynamicTree t;
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.total_ever(), 1u);
  EXPECT_TRUE(t.alive(t.root()));
  EXPECT_EQ(t.parent(t.root()), kNoNode);
  EXPECT_TRUE(t.is_leaf(t.root()));
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, AddLeafBasics) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.parent(b), a);
  EXPECT_EQ(t.depth(b), 2u);
  EXPECT_FALSE(t.is_leaf(a));
  EXPECT_TRUE(t.is_leaf(b));
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveLeaf) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  t.remove_leaf(b);
  EXPECT_FALSE(t.alive(b));
  EXPECT_TRUE(t.is_leaf(a));
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.total_ever(), 3u);  // ids are never reused
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveLeafRejectsRootAndInternal) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  t.add_leaf(a);
  EXPECT_THROW(t.remove_leaf(t.root()), ContractError);
  EXPECT_THROW(t.remove_leaf(a), ContractError);  // a is internal now
}

TEST(DynamicTree, AddInternalSplitsEdge) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  EXPECT_EQ(t.parent(b), m);
  EXPECT_EQ(t.parent(m), a);
  EXPECT_EQ(t.depth(b), 3u);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, AddInternalAboveRootChildren) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId m = t.add_internal_above(a);
  EXPECT_EQ(t.parent(m), t.root());
  EXPECT_EQ(t.parent(a), m);
  EXPECT_THROW(t.add_internal_above(t.root()), ContractError);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveInternalReparentsChildren) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId c = t.add_leaf(a);
  t.remove_internal(a);
  EXPECT_FALSE(t.alive(a));
  EXPECT_EQ(t.parent(b), t.root());
  EXPECT_EQ(t.parent(c), t.root());
  EXPECT_EQ(t.size(), 3u);
  EXPECT_TRUE(validate(t).ok());
}

TEST(DynamicTree, RemoveNodeDispatches) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  t.remove_node(a);  // internal
  EXPECT_EQ(t.parent(b), t.root());
  t.remove_node(b);  // leaf
  EXPECT_EQ(t.size(), 1u);
}

TEST(DynamicTree, AncestryQueries) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId c = t.add_leaf(t.root());
  EXPECT_TRUE(t.is_ancestor(t.root(), b));
  EXPECT_TRUE(t.is_ancestor(a, b));
  EXPECT_TRUE(t.is_ancestor(b, b));
  EXPECT_FALSE(t.is_ancestor(b, a));
  EXPECT_FALSE(t.is_ancestor(c, b));
  EXPECT_EQ(t.ancestor_at(b, 0), b);
  EXPECT_EQ(t.ancestor_at(b, 1), a);
  EXPECT_EQ(t.ancestor_at(b, 2), t.root());
  EXPECT_THROW(t.ancestor_at(b, 3), ContractError);
}

TEST(DynamicTree, AliveNodesIsBfsFromRoot) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(t.root());
  const NodeId c = t.add_leaf(a);
  const auto nodes = t.alive_nodes();
  ASSERT_EQ(nodes.size(), 4u);
  EXPECT_EQ(nodes[0], t.root());
  EXPECT_EQ(nodes[1], a);
  EXPECT_EQ(nodes[2], b);
  EXPECT_EQ(nodes[3], c);
}

TEST(DynamicTree, PortsUniqueAndSymmetric) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  EXPECT_TRUE(t.ports().has_port(a, t.root()));
  EXPECT_TRUE(t.ports().has_port(a, b));
  const PortId p = t.ports().port_to(a, b);
  EXPECT_EQ(t.ports().neighbor_at(a, p), b);
  EXPECT_EQ(t.ports().degree(a), 2u);
}

TEST(DynamicTree, PortsFollowTopologyChanges) {
  DynamicTree t;
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  EXPECT_FALSE(t.ports().has_port(a, b));
  EXPECT_TRUE(t.ports().has_port(a, m));
  EXPECT_TRUE(t.ports().has_port(m, b));
  t.remove_internal(m);
  EXPECT_TRUE(t.ports().has_port(a, b));
  EXPECT_EQ(t.ports().degree(b), 1u);
  EXPECT_TRUE(validate(t).ok());
}

class RecordingObserver final : public TreeObserver {
 public:
  int adds = 0, removes = 0, internal_adds = 0, internal_removes = 0;
  void on_add_leaf(NodeId, NodeId) override { ++adds; }
  void on_remove_leaf(NodeId, NodeId) override { ++removes; }
  void on_add_internal(NodeId, NodeId, NodeId) override { ++internal_adds; }
  void on_remove_internal(NodeId, NodeId,
                          const std::vector<NodeId>&) override {
    ++internal_removes;
  }
};

TEST(DynamicTree, ObserversSeeEveryChange) {
  DynamicTree t;
  RecordingObserver obs;
  t.add_observer(&obs);
  const NodeId a = t.add_leaf(t.root());
  const NodeId b = t.add_leaf(a);
  const NodeId m = t.add_internal_above(b);
  t.remove_internal(m);
  t.remove_leaf(b);
  t.remove_observer(&obs);
  t.add_leaf(a);  // not observed
  EXPECT_EQ(obs.adds, 2);
  EXPECT_EQ(obs.internal_adds, 1);
  EXPECT_EQ(obs.internal_removes, 1);
  EXPECT_EQ(obs.removes, 1);
}

TEST(DynamicTree, RandomizedChurnKeepsStructureValid) {
  DynamicTree t;
  Rng rng(99);
  std::vector<NodeId> alive{t.root()};
  for (int step = 0; step < 2000; ++step) {
    const auto roll = rng.uniform(0, 3);
    alive = t.alive_nodes();
    if (roll == 0 || t.size() < 3) {
      t.add_leaf(alive[rng.index(alive.size())]);
    } else if (roll == 1) {
      const NodeId v = alive[rng.index(alive.size())];
      if (v != t.root()) t.add_internal_above(v);
    } else {
      const NodeId v = alive[rng.index(alive.size())];
      if (v != t.root()) t.remove_node(v);
    }
    const auto res = validate(t);
    ASSERT_TRUE(res.ok()) << "step " << step << ": " << res.detail;
  }
}

// A seeded ~64-node tree after every kind of churn.  The port values in
// PortValuesPinnedUnderChurn were recorded from an independent (hash-map)
// port store, so they pin the adversary's draw order and per-node
// collision retry against any change of storage.
DynamicTree churned_tree() {
  DynamicTree t(PortAssigner(0x5eed5eedULL));
  Rng rng(2024);
  for (std::uint64_t i = 1; i < 64; ++i) {
    t.add_leaf(static_cast<NodeId>(rng.index(static_cast<std::size_t>(i))));
  }
  for (int step = 0; step < 64; ++step) {
    const auto alive = t.alive_nodes();
    const NodeId v = alive[rng.index(alive.size())];
    if (step % 4 == 0) {
      t.add_leaf(v);
    } else if (v == t.root()) {
      continue;
    } else if (step % 4 == 1) {
      t.add_internal_above(v);
    } else if (step % 4 == 2) {
      if (t.is_leaf(v)) t.remove_leaf(v);
    } else if (!t.is_leaf(v)) {
      t.remove_internal(v);
    }
  }
  return t;
}

TEST(DynamicTree, PortValuesPinnedUnderChurn) {
  struct Edge {
    NodeId parent, child;
    PortId down, up;  // port_to(parent, child), port_to(child, parent)
  };
  // Every tree edge, in BFS order of the child.
  static constexpr Edge kPinned[] = {
      {0, 18, 0xb2e28b2b5416889fULL, 0xb5d1fd838d192a4eULL},
      {0, 28, 0xcff0df8646187345ULL, 0xf4e63421505f5c77ULL},
      {0, 78, 0xac712c1672d2ea97ULL, 0x63c99dee70c27f6bULL},
      {0, 71, 0xd8668f0880b1926eULL, 0xb6cd8023433ca9cdULL},
      {0, 90, 0xc4f4434ad82c7452ULL, 0x43154d1967ad5200ULL},
      {18, 33, 0x2704a20d28ec747cULL, 0xf7558f85a9d9726bULL},
      {18, 72, 0x26a1d3d2aec429f3ULL, 0x9cd8a87310bdc0e3ULL},
      {71, 1, 0x875ffe572454dd9dULL, 0xa68f6ce7363170a8ULL},
      {1, 2, 0xf01bc0089171b2d2ULL, 0xfd52c2965d47aaefULL},
      {1, 26, 0x8d72bf46c25c489eULL, 0xfc63f99884435eb6ULL},
      {1, 6, 0x2c1b0bd9a3e2a36bULL, 0xaa48216bc6fda289ULL},
      {1, 27, 0x25fce2074689d79cULL, 0x1c39ae1cf2c7031aULL},
      {1, 42, 0xdc4f5411ff68b6ccULL, 0x41757b8905999a4aULL},
      {1, 94, 0xa50e9766b803c479ULL, 0xab94544bc40a0d38ULL},
      {2, 3, 0x09580bc24571547dULL, 0xccbef38aa6b834b8ULL},
      {2, 11, 0x3307ae3f322d85f0ULL, 0x25376d520eacc7a7ULL},
      {2, 23, 0xca4c3c6f4f6ad42cULL, 0x0d917a4ea5d9b229ULL},
      {26, 65, 0xda69237f645f13b5ULL, 0xb6ff339e64274cd2ULL},
      {26, 37, 0x6132a537487cf683ULL, 0x5ce7a8fa038f160fULL},
      {6, 24, 0x0ee2ed2dc51c0134ULL, 0x7d8d2b05caee882bULL},
      {27, 31, 0x9410e835f18c26c8ULL, 0xad2cea527c841df0ULL},
      {3, 4, 0x47e04cbe29cf29edULL, 0xc618db45cecf5fb5ULL},
      {3, 69, 0x2e742fb974207378ULL, 0xa5b563a053534473ULL},
      {3, 12, 0xd81c2592802837daULL, 0x453a1fe51656881eULL},
      {3, 14, 0xb3915c648011110dULL, 0x31b72da939365c96ULL},
      {3, 91, 0xa8627b0b2b73525dULL, 0x16406601b6fa2592ULL},
      {11, 20, 0xa8da0daaee37d835ULL, 0x46d0afe8f96c7d39ULL},
      {11, 21, 0xfd76e9383701ac5dULL, 0x6ec67843f57fd22cULL},
      {11, 22, 0x81f87f13153c3f13ULL, 0x7f7fe99e86dcde13ULL},
      {11, 51, 0x7a084028dcf7a67dULL, 0xaf59ea2fd3f018b8ULL},
      {65, 30, 0x474e30990b870e42ULL, 0x4606c68003dff00dULL},
      {4, 67, 0xa129f9ece17bcadeULL, 0xb4d6cec27e70c51fULL},
      {4, 10, 0x00f2ded4a7e9187dULL, 0x71fab206ff86d2dbULL},
      {4, 19, 0x479e08bf905b1307ULL, 0x3d889a8f52b2c5d1ULL},
      {69, 79, 0x421c56cc18f61ce8ULL, 0x57d51b0c4cbacfadULL},
      {12, 43, 0xb5f4a2bfcfb202f1ULL, 0x3f2f5206c0a277c6ULL},
      {12, 87, 0xaebfbf3f886b7191ULL, 0x994ad289d05ab8fdULL},
      {91, 85, 0xdba29f27a198e336ULL, 0x2e172602abcd3ce3ULL},
      {20, 41, 0x508fef84c35e2647ULL, 0x026969e056cc91bcULL},
      {20, 49, 0x632dce7de22f1f03ULL, 0x77f18992abef6189ULL},
      {20, 81, 0x9cc48106550f6a4cULL, 0x7d54533f0531dd70ULL},
      {22, 93, 0x9b3d0d4eba88aacfULL, 0x21fb54662342f728ULL},
      {22, 48, 0x41b13c4c7965077aULL, 0x878cff9bfc5b3ba3ULL},
      {22, 60, 0x3dbdcee15b95216eULL, 0x6b8b8bd77989e603ULL},
      {22, 80, 0x7f2a14b46da0d190ULL, 0xa8027fcb3c47a7f8ULL},
      {51, 66, 0x6340dc89527da287ULL, 0x8a5223687bd7857fULL},
      {67, 7, 0x1e2a16b944156fb0ULL, 0xd0dadd13e4742279ULL},
      {10, 95, 0x89c0ba275b7e48c9ULL, 0xd4eb28f5131098e5ULL},
      {10, 68, 0x2f4e56bdcee10c9cULL, 0xeb7adfc38eee2f69ULL},
      {79, 5, 0x1c41c364c7ad1805ULL, 0x6605db909d90eceeULL},
      {79, 86, 0x77a243c36b69c9b4ULL, 0xc418f4cc8203c817ULL},
      {79, 88, 0x6c499feba7a9ed42ULL, 0x9e9971b704e59781ULL},
      {43, 64, 0xd5f4df0a6a5eda41ULL, 0xcda6e2d20ebd0e8fULL},
      {87, 46, 0x74e249c682191208ULL, 0x1f6849fd51a50927ULL},
      {85, 83, 0x260463f46f36d884ULL, 0x4abd0eb96ee4e139ULL},
      {41, 62, 0xa3a13107b02e6a45ULL, 0xa75912dbbcf43434ULL},
      {49, 70, 0xa8fc08862135e2b8ULL, 0x4391bd3c2f686510ULL},
      {81, 54, 0xea2241346f05860dULL, 0x0ca87c610e00ecbeULL},
      {93, 35, 0x7b06322a1585d981ULL, 0x80bdc3296413c996ULL},
      {7, 9, 0xb66d89bcb24d8b5aULL, 0x5407c492d683dc48ULL},
      {7, 40, 0xd56bda959342826fULL, 0x95cebd51b6b31112ULL},
      {7, 53, 0xf5683637ba8badc3ULL, 0xf3fe0fda953782e0ULL},
      {95, 50, 0xa2016338aee79ec8ULL, 0x17a42e257c967931ULL},
      {5, 16, 0x4ae6b38c3ce4fe30ULL, 0x0581bf6c21a5035aULL},
      {86, 92, 0xe09a7145cad122e9ULL, 0x5743ee0926d567d0ULL},
      {83, 89, 0x843a8a7e892633a5ULL, 0xc318eb917489a9c6ULL},
      {35, 52, 0x8f07a28e2eae385eULL, 0xa15111a22a1a216dULL},
      {9, 25, 0x1d948218abe924edULL, 0x5117b656e44879bdULL},
      {16, 17, 0x734b2d6b27d05928ULL, 0x8bd912094d20b4d6ULL},
      {16, 56, 0x5757b77c7ee5bf51ULL, 0xf4945aa7194855b3ULL},
      {89, 77, 0x925555dbabec5f4cULL, 0x817f7178226115a0ULL},
      {25, 55, 0xf761a790d4552cefULL, 0xe4fbc81ac5fb1cfeULL},
      {17, 47, 0x9aa3e2d8bc22e45fULL, 0xc235d5207886cb15ULL},
      {17, 63, 0xada04c6e01f63ad1ULL, 0xad3bfe1882d340e8ULL},
      {77, 59, 0xa69ce07b05367f45ULL, 0x778a768bf97c5cc6ULL},
      {47, 74, 0x7f28e6ab53189774ULL, 0xff3ac1f888761b29ULL},
      {74, 76, 0xf41263c083900557ULL, 0x54febc7db6dfe2ccULL},
  };
  const DynamicTree t = churned_tree();
  ASSERT_TRUE(validate(t).ok());
  EXPECT_EQ(t.size(), 78u);
  EXPECT_EQ(t.total_ever(), 96u);
  const auto nodes = t.alive_nodes();
  ASSERT_EQ(nodes.size(), std::size(kPinned) + 1);
  for (std::size_t i = 0; i < std::size(kPinned); ++i) {
    const Edge& e = kPinned[i];
    ASSERT_EQ(nodes[i + 1], e.child) << "edge " << i;
    ASSERT_EQ(t.parent(e.child), e.parent) << "edge " << i;
    EXPECT_EQ(t.ports().port_to(e.parent, e.child), e.down) << "edge " << i;
    EXPECT_EQ(t.ports().port_to(e.child, e.parent), e.up) << "edge " << i;
    EXPECT_EQ(t.ports().neighbor_at(e.parent, e.down), e.child);
    EXPECT_EQ(t.ports().neighbor_at(e.child, e.up), e.parent);
  }
}

TEST(DynamicTree, ResetToRootRebuildsSamePorts) {
  // A recycled tree rewinds the adversary: rebuilding into the kept storage
  // draws the very ports a fresh tree draws, and the tables hold nothing
  // of the previous topology.
  DynamicTree t = churned_tree();
  const std::vector<NodeId> old_nodes = t.alive_nodes();
  t.reset_to_root();
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.total_ever(), 1u);
  EXPECT_TRUE(t.children(t.root()).empty());
  EXPECT_EQ(t.ports().degree(t.root()), 0u);
  for (NodeId v : old_nodes) {
    EXPECT_EQ(t.ports().degree(v), 0u) << v;
  }
  ASSERT_TRUE(validate(t).ok());

  DynamicTree fresh(PortAssigner(0x5eed5eedULL));
  Rng rng_a(7), rng_b(7);
  for (std::uint64_t i = 1; i < 40; ++i) {
    t.add_leaf(static_cast<NodeId>(rng_a.index(static_cast<std::size_t>(i))));
    fresh.add_leaf(
        static_cast<NodeId>(rng_b.index(static_cast<std::size_t>(i))));
  }
  t.add_internal_above(5);
  fresh.add_internal_above(5);
  t.remove_leaf(39);
  fresh.remove_leaf(39);
  const auto res = validate(t);
  ASSERT_TRUE(res.ok()) << res.detail;
  for (NodeId v : t.alive_nodes()) {
    std::vector<PortId> seen;
    const auto check_edge = [&](NodeId w) {
      ASSERT_TRUE(t.ports().has_port(v, w));
      const PortId p = t.ports().port_to(v, w);
      EXPECT_EQ(p, fresh.ports().port_to(v, w));
      EXPECT_EQ(t.ports().neighbor_at(v, p), w);
      seen.push_back(p);
    };
    if (v != t.root()) check_edge(t.parent(v));
    for (NodeId c : t.children(v)) check_edge(c);
    std::sort(seen.begin(), seen.end());
    EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
        << "duplicate port at " << v;
    EXPECT_EQ(t.ports().degree(v), seen.size());
  }
}
}  // namespace
}  // namespace dyncon::tree
