#include "workload/script.hpp"

#include <sstream>

#include "util/error.hpp"

namespace dyncon::workload {

using core::Outcome;
using core::RequestSpec;

namespace {

const char* type_name(RequestSpec::Type t) {
  switch (t) {
    case RequestSpec::Type::kEvent:
      return "event";
    case RequestSpec::Type::kAddLeaf:
      return "addleaf";
    case RequestSpec::Type::kAddInternal:
      return "addinternal";
    case RequestSpec::Type::kRemove:
      return "remove";
  }
  return "?";
}

RequestSpec::Type parse_type(const std::string& word) {
  if (word == "event") return RequestSpec::Type::kEvent;
  if (word == "addleaf") return RequestSpec::Type::kAddLeaf;
  if (word == "addinternal") return RequestSpec::Type::kAddInternal;
  if (word == "remove") return RequestSpec::Type::kRemove;
  throw ContractError("unknown script verb: " + word);
}

}  // namespace

std::string Script::str() const {
  std::ostringstream os;
  for (const auto& e : entries_) {
    os << type_name(e.type) << ' ' << e.subject << '\n';
  }
  return os.str();
}

Script Script::parse(const std::string& text) {
  Script out;
  std::istringstream is(text);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string verb;
    std::uint64_t subject = 0;
    if (!(ls >> verb >> subject)) {
      throw ContractError("malformed script line " + std::to_string(lineno) +
                          ": " + line);
    }
    out.append(RequestSpec{parse_type(verb), subject});
  }
  return out;
}

Script Script::record(tree::DynamicTree& tree, ChurnGenerator& churn,
                      std::uint64_t steps) {
  Script out;
  for (std::uint64_t i = 0; i < steps; ++i) {
    const RequestSpec spec = churn.next(tree);
    out.append(spec);
    switch (spec.type) {
      case RequestSpec::Type::kAddLeaf:
        tree.add_leaf(spec.subject);
        break;
      case RequestSpec::Type::kAddInternal:
        tree.add_internal_above(spec.subject);
        break;
      case RequestSpec::Type::kRemove:
        tree.remove_node(spec.subject);
        break;
      case RequestSpec::Type::kEvent:
        break;
    }
  }
  return out;
}

bool operator==(const Script& a, const Script& b) {
  if (a.entries_.size() != b.entries_.size()) return false;
  for (std::size_t i = 0; i < a.entries_.size(); ++i) {
    if (a.entries_[i].type != b.entries_[i].type ||
        a.entries_[i].subject != b.entries_[i].subject) {
      return false;
    }
  }
  return true;
}

ReplayStats replay(const Script& script, core::IController& ctrl,
                   const tree::DynamicTree& tree) {
  ReplayStats stats;
  for (const auto& spec : script.entries()) {
    // Divergence tolerance: skip entries whose subject no longer exists or
    // that became structurally impossible.
    if (!tree.alive(spec.subject)) {
      ++stats.skipped;
      continue;
    }
    if ((spec.type == RequestSpec::Type::kRemove ||
         spec.type == RequestSpec::Type::kAddInternal) &&
        spec.subject == tree.root()) {
      ++stats.skipped;
      continue;
    }
    ++stats.submitted;
    const core::Result r = ctrl.request(spec);
    switch (r.outcome) {
      case Outcome::kGranted:
        ++stats.granted;
        break;
      case Outcome::kRejected:
        ++stats.rejected;
        break;
      default:
        ++stats.other;
    }
  }
  return stats;
}

}  // namespace dyncon::workload
