#pragma once

// Common vocabulary for every (M,W)-controller in this library.
//
// A controller receives online requests at arbitrary nodes.  Topological
// requests name the change they want (the controlled dynamic model, §2.1);
// the controller applies the change to the shared DynamicTree if and when
// it grants the permit, so a change can never happen without a permit.

#include <cstdint>
#include <functional>
#include <optional>
#include <ostream>
#include <utility>

#include "tree/dynamic_tree.hpp"
#include "util/error.hpp"
#include "util/ids.hpp"

namespace dyncon::core {

enum class Outcome : std::uint8_t {
  kGranted,     ///< permit delivered; the requested event happened
  kRejected,    ///< reject delivered
  kExhausted,   ///< (internal mode) root storage exhausted; wrapper decides
  kTerminated,  ///< terminating controller already terminated
  kMoot,        ///< the request lost its meaning (its subject was deleted
                ///< while the request waited; §4.2's "requests may lose
                ///< their meaning if the node is deleted")
};

[[nodiscard]] constexpr const char* outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kGranted:
      return "granted";
    case Outcome::kRejected:
      return "rejected";
    case Outcome::kExhausted:
      return "exhausted";
    case Outcome::kTerminated:
      return "terminated";
    case Outcome::kMoot:
      return "moot";
  }
  return "?";
}

/// gtest and iostream diagnostics print outcomes by name.
inline std::ostream& operator<<(std::ostream& os, Outcome o) {
  return os << outcome_name(o);
}

/// A request, as the environment hands it to a controller: what event it
/// wants and where it arrives (paper §2.1.2 arrival rules).
struct RequestSpec {
  enum class Type : std::uint8_t {
    kEvent,        ///< non-topological; arrives anywhere
    kAddLeaf,      ///< arrives at the parent-to-be (= subject)
    kAddInternal,  ///< subject = the child above which to insert; arrives
                   ///< at the subject's parent
    kRemove,       ///< subject = node to delete; arrives at the subject
  };
  Type type = Type::kEvent;
  NodeId subject = kNoNode;
};

[[nodiscard]] constexpr const char* request_type_name(RequestSpec::Type t) {
  switch (t) {
    case RequestSpec::Type::kEvent:
      return "event";
    case RequestSpec::Type::kAddLeaf:
      return "add-leaf";
    case RequestSpec::Type::kAddInternal:
      return "add-internal";
    case RequestSpec::Type::kRemove:
      return "remove";
  }
  return "?";
}

inline std::ostream& operator<<(std::ostream& os, RequestSpec::Type t) {
  return os << request_type_name(t);
}

inline std::ostream& operator<<(std::ostream& os, const RequestSpec& spec) {
  return os << request_type_name(spec.type) << "(" << spec.subject << ")";
}

/// The submission contract every controller enforces: the subject is alive,
/// nothing is inserted above the root, and the root is never deleted.
inline void require_valid_request(const tree::DynamicTree& tree,
                                  const RequestSpec& spec) {
  DYNCON_REQUIRE(tree.alive(spec.subject), "request subject not alive");
  DYNCON_REQUIRE(spec.type != RequestSpec::Type::kAddInternal ||
                     spec.subject != tree.root(),
                 "cannot insert above the root");
  DYNCON_REQUIRE(
      spec.type != RequestSpec::Type::kRemove || spec.subject != tree.root(),
      "the root is never deleted");
}

/// Where a request arrives (§2.1.2): an insertion above `subject` arrives at
/// its parent, everything else at the subject itself.
[[nodiscard]] inline NodeId arrival_node(const tree::DynamicTree& tree,
                                         const RequestSpec& spec) {
  return spec.type == RequestSpec::Type::kAddInternal
             ? tree.parent(spec.subject)
             : spec.subject;
}

/// Result of one request.
struct Result {
  Outcome outcome = Outcome::kRejected;
  /// The request's agent was killed by a node crash before any verdict
  /// (volatile whiteboards only).  Such results arrive as kRejected — the
  /// protocol made no promise — but wrappers configured with redrives
  /// resubmit them instead of surfacing the rejection.  (Packed beside the
  /// outcome so Result keeps fitting hot-path InlineFn captures.)
  bool crash_failed = false;
  /// For granted add-leaf / add-internal requests: the new node's id.
  NodeId new_node = kNoNode;
  /// Permit serial number, when the controller tracks serials (§5.2).
  std::optional<std::uint64_t> serial;

  [[nodiscard]] bool granted() const { return outcome == Outcome::kGranted; }
};

/// Completion callback of asynchronous submissions.  Deliberately
/// std::function, not the hot-path InlineFn: it is stored once per
/// *request* (not per event/send), and callers legitimately capture big
/// closures (test fixtures, latching lambdas) that must not be squeezed into
/// a 64-byte inline budget.
using Callback = std::function<void(const Result&)>;

/// The per-type submission shorthands of an asynchronous controller, each
/// forwarding to the controller's own `submit(spec, done)`.
template <typename Derived>
class SubmitShorthands {
 public:
  void submit_event(NodeId u, Callback done) {
    forward(RequestSpec{RequestSpec::Type::kEvent, u}, std::move(done));
  }
  void submit_add_leaf(NodeId parent, Callback done) {
    forward(RequestSpec{RequestSpec::Type::kAddLeaf, parent},
            std::move(done));
  }
  void submit_add_internal_above(NodeId child, Callback done) {
    forward(RequestSpec{RequestSpec::Type::kAddInternal, child},
            std::move(done));
  }
  void submit_remove(NodeId v, Callback done) {
    forward(RequestSpec{RequestSpec::Type::kRemove, v}, std::move(done));
  }

 private:
  void forward(const RequestSpec& spec, Callback done) {
    static_cast<Derived*>(this)->submit(spec, std::move(done));
  }
};

/// Synchronous controller interface (centralized controllers and the
/// synchronous facades of distributed ones used by benches).
class IController {
 public:
  virtual ~IController() = default;

  /// Non-topological event at node u (e.g., a "ticket sale").
  virtual Result request_event(NodeId u) = 0;

  /// Topological requests; the change is applied on grant.
  virtual Result request_add_leaf(NodeId parent) = 0;
  virtual Result request_add_internal_above(NodeId child) = 0;
  virtual Result request_remove(NodeId v) = 0;

  /// The request_* call that `spec` names.
  Result request(const RequestSpec& spec) {
    switch (spec.type) {
      case RequestSpec::Type::kEvent:
        return request_event(spec.subject);
      case RequestSpec::Type::kAddLeaf:
        return request_add_leaf(spec.subject);
      case RequestSpec::Type::kAddInternal:
        return request_add_internal_above(spec.subject);
      case RequestSpec::Type::kRemove:
        return request_remove(spec.subject);
    }
    return Result{};
  }

  /// The paper's cost measure so far: move complexity for centralized
  /// controllers, message count for distributed ones.
  [[nodiscard]] virtual std::uint64_t cost() const = 0;

  [[nodiscard]] virtual std::uint64_t permits_granted() const = 0;
};

}  // namespace dyncon::core
