#include "core/package.hpp"

#include <algorithm>
#include <functional>

#include "obs/events.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dyncon::core {

namespace {
const std::vector<PackageId> kEmpty;
}

PackageId PackageTable::create_mobile(NodeId host, std::uint32_t level,
                                      std::uint64_t size, Interval serials) {
  DYNCON_REQUIRE(serials.empty() || serials.size() == size,
                 "serial interval size must match package size");
  const PackageId id =
      mint(Package{kNoPackage, PackageKind::kMobile, host, size, level,
                   serials, true});
  static thread_local obs::CounterHandle created("package.created");
  created.add();
  return id;
}

PackageId PackageTable::create_static(NodeId host, std::uint64_t size,
                                      Interval serials) {
  DYNCON_REQUIRE(size >= 1, "static package must hold >= 1 permit");
  DYNCON_REQUIRE(serials.empty() || serials.size() == size,
                 "serial interval size must match package size");
  return mint(
      Package{kNoPackage, PackageKind::kStatic, host, size, 0, serials, true});
}

PackageId PackageTable::create_reject(NodeId host) {
  return mint(
      Package{kNoPackage, PackageKind::kReject, host, 0, 0, Interval{}, true});
}

void PackageTable::move(PackageId p, NodeId new_host, std::uint64_t hops) {
  Package& pkg = mut(p);
  detach(p);
  pkg.host = new_host;
  attach(p, new_host);
  moves_ += hops;
  // Same name as move_all()'s handle on purpose (both feed "moves.total");
  // each function-local static binds its own epoch, so neither can observe
  // the other's stale slot.  The old `moves_batch` name suggested a separate
  // counter and hid that this is the same registry row.
  static thread_local obs::CounterHandle moves("moves.total");
  moves.add(hops);
}

void PackageTable::pick_up(PackageId p) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile, "pick_up of non-mobile");
  DYNCON_REQUIRE(pkg.host != kNoNode, "package already carried");
  detach(p);
  pkg.host = kNoNode;
}

void PackageTable::put_down(PackageId p, NodeId node) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.host == kNoNode, "put_down of a hosted package");
  pkg.host = node;
  attach(p, node);
}

std::size_t PackageTable::move_all(NodeId node, NodeId parent) {
  auto it = by_host_.find(node);
  if (it == by_host_.end() || it->second.empty()) return 0;
  std::vector<PackageId> moving = it->second;  // copy; attach mutates the map
  for (PackageId p : moving) {
    detach(p);
    mut(p).host = parent;
    attach(p, parent);
  }
  moves_ += 1;  // one message carries the whole set (paper §2.2)
  static thread_local obs::CounterHandle moves("moves.total");
  moves.add();
  return moving.size();
}

std::pair<PackageId, PackageId> PackageTable::split_mobile(PackageId p) {
  const Package pkg = get(p);  // copy: minting may move the table
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile, "split of non-mobile");
  DYNCON_REQUIRE(pkg.level >= 1, "split of level-0 package");
  DYNCON_INVARIANT(pkg.size % 2 == 0, "mobile size not even");
  Interval lo, hi;
  if (!pkg.serials.empty()) std::tie(lo, hi) = pkg.serials.split_half();
  // Both halves are minted before the original dies, so neither reuses
  // its id: a caller still holding `p` sees it dead, not reborn.
  const PackageId a =
      create_mobile(pkg.host, pkg.level - 1, pkg.size / 2, lo);
  const PackageId b =
      create_mobile(pkg.host, pkg.level - 1, pkg.size / 2, hi);
  cancel(p);
  static thread_local obs::CounterHandle splits("package.splits");
  splits.add();
  obs::emit(obs::TraceEvent{obs::EventKind::kPackageSplit, 0, pkg.host,
                            pkg.level, pkg.size / 2});
  return {a, b};
}

void PackageTable::make_static(PackageId p) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.kind == PackageKind::kMobile && pkg.level == 0,
                 "only level-0 mobile packages become static");
  pkg.kind = PackageKind::kStatic;
}

std::optional<std::uint64_t> PackageTable::consume_one(PackageId p) {
  Package& pkg = mut(p);
  DYNCON_REQUIRE(pkg.kind == PackageKind::kStatic, "consume from non-static");
  DYNCON_INVARIANT(pkg.size >= 1, "empty static package still alive");
  std::optional<std::uint64_t> serial;
  if (!pkg.serials.empty()) serial = pkg.serials.take_one();
  pkg.size -= 1;
  if (pkg.size == 0) cancel(p);
  return serial;
}

void PackageTable::cancel(PackageId p) {
  Package& pkg = mut(p);
  detach(p);
  pkg.alive = false;
  free_ids_.push_back(p);
  std::push_heap(free_ids_.begin(), free_ids_.end(), std::greater<>{});
}

bool PackageTable::alive(PackageId p) const {
  return p < packages_.size() && packages_[static_cast<std::size_t>(p)].alive;
}

const Package& PackageTable::get(PackageId p) const {
  DYNCON_REQUIRE(p < packages_.size(), "unknown package id");
  const Package& pkg = packages_[static_cast<std::size_t>(p)];
  DYNCON_REQUIRE(pkg.alive, "access to dead package");
  return pkg;
}

Package& PackageTable::mut(PackageId p) {
  return const_cast<Package&>(get(p));
}

const std::vector<PackageId>& PackageTable::at(NodeId node) const {
  auto it = by_host_.find(node);
  return it == by_host_.end() ? kEmpty : it->second;
}

bool PackageTable::has_reject(NodeId node) const {
  for (PackageId p : at(node)) {
    if (get(p).kind == PackageKind::kReject) return true;
  }
  return false;
}

PackageId PackageTable::find_static(NodeId node) const {
  for (PackageId p : at(node)) {
    if (get(p).kind == PackageKind::kStatic) return p;
  }
  return kNoPackage;
}

PackageId PackageTable::find_mobile_of_level(NodeId node,
                                             std::uint32_t level) const {
  for (PackageId p : at(node)) {
    const Package& pkg = get(p);
    if (pkg.kind == PackageKind::kMobile && pkg.level == level) return p;
  }
  return kNoPackage;
}

std::vector<PackageId> PackageTable::all_alive() const {
  std::vector<PackageId> out;
  for (const Package& pkg : packages_) {
    if (pkg.alive) out.push_back(pkg.id);
  }
  return out;
}

std::uint64_t PackageTable::permits_in_packages() const {
  std::uint64_t total = 0;
  for (const Package& pkg : packages_) {
    if (pkg.alive && pkg.kind != PackageKind::kReject) total += pkg.size;
  }
  return total;
}

void PackageTable::extract_image(Image& out) const {
  out.next_id = packages_.size();
  out.moves = moves_;
  out.alive.clear();
  std::vector<NodeId> hosts;
  hosts.reserve(by_host_.size());
  for (const auto& [host, pkgs] : by_host_) hosts.push_back(host);
  std::sort(hosts.begin(), hosts.end());
  for (NodeId host : hosts) {
    for (PackageId p : by_host_.at(host)) {
      const Package& pkg = get(p);
      DYNCON_REQUIRE(pkg.serials.empty(),
                     "extract_image: serial-tracking packages not supported");
      out.alive.push_back(Record{pkg.id, pkg.kind, pkg.host, pkg.size,
                                 pkg.level});
    }
  }
  // by_host_ indexes exactly the alive packages (carried ones would hide at
  // host kNoNode, which never appears as a tree node id).
  std::uint64_t alive_count = 0;
  for (const Package& pkg : packages_) {
    if (pkg.alive) {
      DYNCON_REQUIRE(pkg.host != kNoNode,
                     "extract_image: carried packages not supported");
      ++alive_count;
    }
  }
  DYNCON_INVARIANT(alive_count == out.alive.size(),
                   "extract_image: host index out of sync");
}

void PackageTable::restore_image(const Image& img) {
  DYNCON_REQUIRE(packages_.empty() && by_host_.empty() && moves_ == 0 &&
                     free_ids_.empty(),
                 "restore_image into a non-fresh table");
  packages_.assign(static_cast<std::size_t>(img.next_id), Package{});
  for (const Record& rec : img.alive) {
    DYNCON_REQUIRE(rec.id < img.next_id, "restore_image: id beyond next_id");
    Package& pkg = packages_[static_cast<std::size_t>(rec.id)];
    DYNCON_REQUIRE(!pkg.alive, "restore_image: duplicate package id");
    pkg = Package{rec.id, rec.kind, rec.host, rec.size, rec.level,
                  Interval{}, true};
    by_host_[rec.host].push_back(rec.id);
  }
  // The dead ids below the high-water mark, ascending: already a min-heap.
  for (PackageId id = 0; id < img.next_id; ++id) {
    if (!packages_[static_cast<std::size_t>(id)].alive) free_ids_.push_back(id);
  }
  moves_ = img.moves;
}

std::uint64_t PackageTable::approx_bytes() const {
  std::uint64_t bytes = packages_.capacity() * sizeof(Package) +
                        free_ids_.capacity() * sizeof(PackageId);
  bytes += by_host_.bucket_count() * sizeof(void*);
  for (const auto& [host, pkgs] : by_host_) {
    bytes += sizeof(NodeId) + sizeof(std::vector<PackageId>) + 16;
    bytes += pkgs.capacity() * sizeof(PackageId);
  }
  return bytes;
}

PackageId PackageTable::mint(Package pkg) {
  if (free_ids_.empty()) {
    pkg.id = packages_.size();
    packages_.push_back(pkg);
  } else {
    std::pop_heap(free_ids_.begin(), free_ids_.end(), std::greater<>{});
    pkg.id = free_ids_.back();
    free_ids_.pop_back();
    packages_[static_cast<std::size_t>(pkg.id)] = pkg;
  }
  attach(pkg.id, pkg.host);
  return pkg.id;
}

void PackageTable::attach(PackageId p, NodeId host) {
  by_host_[host].push_back(p);
}

void PackageTable::detach(PackageId p) {
  auto it = by_host_.find(get(p).host);
  DYNCON_INVARIANT(it != by_host_.end(), "package host index missing");
  auto& vec = it->second;
  auto pit = std::find(vec.begin(), vec.end(), p);
  DYNCON_INVARIANT(pit != vec.end(), "package missing from host index");
  vec.erase(pit);
  if (vec.empty()) by_host_.erase(it);
}

}  // namespace dyncon::core
