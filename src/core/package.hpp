#pragma once

// Permit/reject packages (paper §3.1).
//
// Packages are the only carriers of permits and rejects:
//
//   * a MOBILE package of level i holds exactly 2^i * phi permits and is
//     what the filler search looks for;
//   * a STATIC package holds 1..phi permits and can only grant requests at
//     its host node;
//   * a REJECT package stands for infinitely many rejects.
//
// Splitting a mobile package of level i >= 1 yields two level-(i-1)
// packages; a level-0 mobile package becomes static when delivered to the
// requesting node.  (The paper folds the latter into its description of the
// level-1 split; the two formulations produce identical states.)
//
// `PackageTable` owns every package of one controller instance and is the
// single point of truth for the paper's *move complexity*: every package
// move goes through it and is charged its hop distance; a graceful-deletion
// handoff (all packages of a node to its parent in one message) is charged
// one move, exactly as in Lemma 3.3's accounting.
//
// Packages optionally carry an Interval of permit serial numbers; the
// name-assignment protocol (§5.2) uses these, the plain controller leaves
// them empty.

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/params.hpp"
#include "obs/metrics.hpp"
#include "util/ids.hpp"
#include "util/interval.hpp"

namespace dyncon::core {

using PackageId = std::uint64_t;
inline constexpr PackageId kNoPackage = static_cast<PackageId>(-1);

enum class PackageKind : std::uint8_t { kMobile, kStatic, kReject };

struct Package {
  PackageId id = kNoPackage;
  PackageKind kind = PackageKind::kMobile;
  NodeId host = kNoNode;
  std::uint64_t size = 0;   ///< permits (0 for reject packages)
  std::uint32_t level = 0;  ///< meaningful for mobile packages only
  Interval serials;         ///< optional serial-number payload
  bool alive = false;
};

/// All packages of one controller instance, plus move-complexity accounting.
class PackageTable {
 public:
  PackageTable() = default;

  // ---- creation ------------------------------------------------------------

  PackageId create_mobile(NodeId host, std::uint32_t level, std::uint64_t size,
                          Interval serials = {});
  PackageId create_static(NodeId host, std::uint64_t size,
                          Interval serials = {});
  PackageId create_reject(NodeId host);

  // ---- mutation --------------------------------------------------------------

  /// Move a package `hops` edges to `new_host`; charges `hops` moves.
  void move(PackageId p, NodeId new_host, std::uint64_t hops);

  /// Erase a mobile package from its host's whiteboard into an agent's Bag
  /// (distributed §4.3: "Erase P from w's whiteboard and put k inside the
  /// variable Bag").  The package stays alive with host kNoNode.
  void pick_up(PackageId p);

  /// Write a carried package onto `node`'s whiteboard.
  void put_down(PackageId p, NodeId node);

  [[nodiscard]] bool carried(PackageId p) const {
    return get(p).host == kNoNode;
  }

  /// Move *all* packages at `node` to `parent` in one message (graceful
  /// deletion); charges one move if any package moved.  Returns how many.
  std::size_t move_all(NodeId node, NodeId parent);

  /// Split a mobile package of level >= 1 into two of level-1 lower, at the
  /// same host.  Serial intervals (if any) are halved.  The original dies.
  std::pair<PackageId, PackageId> split_mobile(PackageId p);

  /// Convert a level-0 mobile package into a static one (same host/size).
  void make_static(PackageId p);

  /// Consume one permit from a static package; cancels it at size 0.
  /// Returns the granted permit's serial number if the package tracks them.
  std::optional<std::uint64_t> consume_one(PackageId p);

  /// Remove a package from the table.
  void cancel(PackageId p);

  // ---- queries ----------------------------------------------------------------

  [[nodiscard]] bool alive(PackageId p) const;
  [[nodiscard]] const Package& get(PackageId p) const;
  [[nodiscard]] const std::vector<PackageId>& at(NodeId node) const;

  [[nodiscard]] bool has_reject(NodeId node) const;
  [[nodiscard]] PackageId find_static(NodeId node) const;
  [[nodiscard]] PackageId find_mobile_of_level(NodeId node,
                                               std::uint32_t level) const;

  /// All alive packages (for audits).
  [[nodiscard]] std::vector<PackageId> all_alive() const;

  /// Total permits currently held in alive (non-reject) packages.
  [[nodiscard]] std::uint64_t permits_in_packages() const;

  // ---- hibernation images --------------------------------------------------

  /// One alive package, as recorded in an `Image`.
  struct Record {
    PackageId id = kNoPackage;
    PackageKind kind = PackageKind::kMobile;
    NodeId host = kNoNode;
    std::uint64_t size = 0;
    std::uint32_t level = 0;
    bool operator==(const Record&) const = default;
  };

  /// A complete, order-preserving snapshot of the table: `alive` lists
  /// packages grouped by host in ascending host order, preserving each
  /// host's whiteboard order (which find_static / find_mobile_of_level scan
  /// positionally, so it is semantically load-bearing).  `next_id` is the
  /// id high-water mark: the ids below it that no alive record holds are
  /// the free ids, so a restored table mints the same ids as one that
  /// never hibernated.
  struct Image {
    std::uint64_t next_id = 0;
    std::uint64_t moves = 0;
    std::vector<Record> alive;
    bool operator==(const Image&) const = default;
  };

  /// Capture the table into `out` (cleared first).  Requires that no
  /// package is carried in a Bag and none tracks serial intervals — true of
  /// every forest controller; the distributed layers never hibernate.
  void extract_image(Image& out) const;

  /// Rebuild a *default-constructed* table from an image.  Replays no
  /// creation/move paths, so `package.created` / `package.splits` /
  /// `moves.total` counters do not re-fire.
  void restore_image(const Image& img);

  /// Rough heap footprint in bytes (package array plus host-index nodes);
  /// an accounting estimate for `perf.mem.*`, not an allocator truth.
  [[nodiscard]] std::uint64_t approx_bytes() const;

  // ---- accounting ----------------------------------------------------------------

  [[nodiscard]] std::uint64_t move_complexity() const { return moves_; }
  void charge_moves(std::uint64_t n) {
    moves_ += n;
    static thread_local obs::CounterHandle moves("moves.total");
    moves.add(n);
  }

 private:
  Package& mut(PackageId p);
  /// Store `pkg` under the lowest free id (or a new one) and host it.
  PackageId mint(Package pkg);
  void attach(PackageId p, NodeId host);
  void detach(PackageId p);

  /// Indexed by id.  A cancelled package's slot is reused: create_* mints
  /// the lowest dead id (free_ids_ is a min-heap of them), so the table is
  /// as large as the most packages ever alive at once, not the count ever
  /// created, and ids are a function of the live set and the high-water
  /// mark alone.
  std::vector<Package> packages_;
  std::vector<PackageId> free_ids_;
  std::unordered_map<NodeId, std::vector<PackageId>> by_host_;
  std::uint64_t moves_ = 0;
};

}  // namespace dyncon::core
