// Unit tests for the package table: creation, moves, splits, consumption,
// carry semantics, move-complexity accounting, serial payloads.

#include <gtest/gtest.h>

#include <vector>

#include "core/package.hpp"

namespace dyncon::core {
namespace {

TEST(PackageTable, CreateAndQuery) {
  PackageTable t;
  const PackageId m = t.create_mobile(3, 2, 8);
  const PackageId s = t.create_static(3, 2);
  const PackageId r = t.create_reject(4);
  EXPECT_TRUE(t.alive(m));
  EXPECT_EQ(t.get(m).level, 2u);
  EXPECT_EQ(t.at(3).size(), 2u);
  EXPECT_TRUE(t.has_reject(4));
  EXPECT_FALSE(t.has_reject(3));
  EXPECT_EQ(t.find_static(3), s);
  EXPECT_EQ(t.find_mobile_of_level(3, 2), m);
  EXPECT_EQ(t.find_mobile_of_level(3, 1), kNoPackage);
  EXPECT_EQ(t.get(r).kind, PackageKind::kReject);
}

TEST(PackageTable, MoveChargesHops) {
  PackageTable t;
  const PackageId m = t.create_mobile(1, 0, 1);
  t.move(m, 9, 5);
  EXPECT_EQ(t.get(m).host, 9u);
  EXPECT_EQ(t.move_complexity(), 5u);
  EXPECT_TRUE(t.at(1).empty());
  EXPECT_EQ(t.at(9).front(), m);
}

TEST(PackageTable, MoveAllIsOneMessage) {
  PackageTable t;
  t.create_mobile(2, 0, 1);
  t.create_static(2, 1);
  t.create_reject(2);
  EXPECT_EQ(t.move_all(2, 1), 3u);
  EXPECT_EQ(t.move_complexity(), 1u);
  EXPECT_EQ(t.at(1).size(), 3u);
  EXPECT_EQ(t.move_all(5, 1), 0u);  // nothing there
  EXPECT_EQ(t.move_complexity(), 1u);
}

TEST(PackageTable, SplitHalvesSizeAndLevel) {
  PackageTable t;
  const PackageId m = t.create_mobile(7, 3, 16);
  auto [a, b] = t.split_mobile(m);
  EXPECT_FALSE(t.alive(m));
  EXPECT_EQ(t.get(a).level, 2u);
  EXPECT_EQ(t.get(b).level, 2u);
  EXPECT_EQ(t.get(a).size + t.get(b).size, 16u);
  EXPECT_EQ(t.get(a).host, 7u);
}

TEST(PackageTable, SplitPropagatesSerials) {
  PackageTable t;
  const PackageId m = t.create_mobile(7, 1, 4, Interval(10, 13));
  auto [a, b] = t.split_mobile(m);
  EXPECT_EQ(t.get(a).serials, Interval(10, 11));
  EXPECT_EQ(t.get(b).serials, Interval(12, 13));
}

TEST(PackageTable, SplitRejectsLevelZeroAndNonMobile) {
  PackageTable t;
  const PackageId z = t.create_mobile(1, 0, 1);
  EXPECT_THROW(t.split_mobile(z), ContractError);
  const PackageId s = t.create_static(1, 1);
  EXPECT_THROW(t.split_mobile(s), ContractError);
}

TEST(PackageTable, MakeStaticAndConsume) {
  PackageTable t;
  const PackageId m = t.create_mobile(5, 0, 2, Interval(40, 41));
  t.make_static(m);
  EXPECT_EQ(t.get(m).kind, PackageKind::kStatic);
  EXPECT_EQ(t.consume_one(m), std::make_optional<std::uint64_t>(40));
  EXPECT_TRUE(t.alive(m));
  EXPECT_EQ(t.consume_one(m), std::make_optional<std::uint64_t>(41));
  EXPECT_FALSE(t.alive(m));  // canceled at size 0
  EXPECT_EQ(t.find_static(5), kNoPackage);
}

TEST(PackageTable, ConsumeWithoutSerials) {
  PackageTable t;
  const PackageId s = t.create_static(5, 3);
  EXPECT_EQ(t.consume_one(s), std::nullopt);
  EXPECT_EQ(t.get(s).size, 2u);
}

TEST(PackageTable, PickUpAndPutDown) {
  PackageTable t;
  const PackageId m = t.create_mobile(5, 1, 2);
  t.pick_up(m);
  EXPECT_TRUE(t.carried(m));
  EXPECT_TRUE(t.at(5).empty());
  EXPECT_EQ(t.find_mobile_of_level(5, 1), kNoPackage);
  t.put_down(m, 8);
  EXPECT_FALSE(t.carried(m));
  EXPECT_EQ(t.find_mobile_of_level(8, 1), m);
  EXPECT_EQ(t.move_complexity(), 0u);  // carried inside an agent: free
}

TEST(PackageTable, PermitAccounting) {
  PackageTable t;
  t.create_mobile(1, 2, 4);
  t.create_static(2, 3);
  t.create_reject(3);
  EXPECT_EQ(t.permits_in_packages(), 7u);
  EXPECT_EQ(t.all_alive().size(), 3u);
}

TEST(PackageTable, CancelRemovesFromIndex) {
  PackageTable t;
  const PackageId m = t.create_mobile(1, 0, 1);
  t.cancel(m);
  EXPECT_FALSE(t.alive(m));
  EXPECT_TRUE(t.at(1).empty());
  EXPECT_THROW(t.get(m), ContractError);
}

TEST(PackageTable, SerialSizeMismatchRejected) {
  PackageTable t;
  EXPECT_THROW(t.create_mobile(1, 1, 2, Interval(1, 5)), ContractError);
  EXPECT_THROW(t.create_static(1, 2, Interval(1, 5)), ContractError);
}

TEST(PackageTable, CancelledIdsAreRecycledLowestFirst) {
  PackageTable t;
  for (int i = 0; i < 6; ++i) t.create_static(1, 1);  // ids 0..5
  t.cancel(4);
  t.cancel(1);
  t.cancel(3);
  // The lowest dead id first, whatever order the cancels came in.
  EXPECT_EQ(t.create_reject(2), 1u);
  EXPECT_EQ(t.create_mobile(2, 0, 1), 3u);
  EXPECT_EQ(t.create_static(2, 1), 4u);
  EXPECT_EQ(t.create_static(2, 1), 6u);  // none dead: a fresh id
  EXPECT_EQ(t.get(1).kind, PackageKind::kReject);
  EXPECT_EQ(t.get(1).host, 2u);
  // A reused slot joins its host's whiteboard at the end, like any new one.
  const std::vector<PackageId> want{1, 3, 4, 6};
  EXPECT_EQ(t.at(2), want);
  EXPECT_EQ(t.all_alive().size(), 7u);
}

TEST(PackageTable, SplitNeverHandsOutTheParentId) {
  PackageTable t;
  t.create_static(5, 1);  // id 0
  t.cancel(0);            // 0 is free
  const PackageId m = t.create_mobile(7, 2, 8);
  EXPECT_EQ(m, 0u);
  auto [a, b] = t.split_mobile(m);
  // The halves take fresh ids; the parent's id is freed only afterwards.
  EXPECT_NE(a, m);
  EXPECT_NE(b, m);
  EXPECT_FALSE(t.alive(m));
  EXPECT_EQ(t.create_reject(7), m);
}

TEST(PackageTable, RestoredTableMintsTheSameIds) {
  // A table woken from its image holds the same free ids as the original,
  // so both mint the same ids from then on.
  PackageTable orig;
  for (int i = 0; i < 8; ++i) orig.create_static(static_cast<NodeId>(i % 3), 2);
  orig.cancel(6);
  orig.cancel(2);
  orig.cancel(5);
  PackageTable::Image img;
  orig.extract_image(img);
  EXPECT_EQ(img.next_id, 8u);
  PackageTable woken;
  woken.restore_image(img);
  for (int i = 0; i < 5; ++i) {
    const PackageId a = orig.create_mobile(1, 0, 1);
    EXPECT_EQ(woken.create_mobile(1, 0, 1), a) << i;
  }
  EXPECT_EQ(orig.all_alive(), woken.all_alive());
}

}  // namespace
}  // namespace dyncon::core
