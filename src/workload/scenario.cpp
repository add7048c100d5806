#include "workload/scenario.hpp"

#include <sstream>
#include <vector>

#include "workload/shapes.hpp"

namespace dyncon::workload {

using core::Outcome;
using core::RequestSpec;
using core::Result;

void ScenarioStats::count(const Result& r) {
  ++requests;
  switch (r.outcome) {
    case Outcome::kGranted:
      ++granted;
      break;
    case Outcome::kRejected:
      ++rejected;
      break;
    case Outcome::kMoot:
      ++moot;
      break;
    case Outcome::kExhausted:
    case Outcome::kTerminated:
      ++other;
      break;
  }
}

std::string ScenarioStats::str() const {
  std::ostringstream os;
  os << "requests=" << requests << " granted=" << granted
     << " rejected=" << rejected << " moot=" << moot << " other=" << other;
  return os.str();
}

namespace {

RequestSpec propose(tree::DynamicTree& tree, ChurnGenerator& churn,
                    double event_fraction, Rng& rng) {
  if (rng.chance(event_fraction)) {
    return RequestSpec{RequestSpec::Type::kEvent, random_node(tree, rng)};
  }
  return churn.next(tree);
}

}  // namespace

ScenarioStats run_churn(core::IController& ctrl, tree::DynamicTree& tree,
                        ChurnGenerator& churn, std::uint64_t steps,
                        double event_fraction, Rng& rng) {
  ScenarioStats stats;
  for (std::uint64_t i = 0; i < steps; ++i) {
    stats.count(ctrl.request(propose(tree, churn, event_fraction, rng)));
  }
  return stats;
}

ScenarioStats run_churn_async(core::DistributedController& ctrl,
                              sim::EventQueue& queue,
                              tree::DynamicTree& tree, ChurnGenerator& churn,
                              std::uint64_t steps, std::uint64_t burst,
                              double event_fraction, Rng& rng) {
  ScenarioStats stats;
  std::uint64_t remaining = steps;
  while (remaining > 0) {
    const std::uint64_t k = std::min(burst, remaining);
    remaining -= k;
    for (std::uint64_t i = 0; i < k; ++i) {
      ctrl.submit(propose(tree, churn, event_fraction, rng),
                  [&stats](const Result& r) { stats.count(r); });
    }
    queue.run();  // drain the burst (and any reject flood it triggers)
  }
  return stats;
}

ScenarioStats run_churn_timed(core::DistributedController& ctrl,
                              sim::EventQueue& queue,
                              tree::DynamicTree& tree, ChurnGenerator& churn,
                              std::uint64_t steps, ArrivalProcess& arrivals,
                              double event_fraction, Rng& rng) {
  ScenarioStats stats;
  SimTime when = queue.now();
  for (std::uint64_t i = 0; i < steps; ++i) {
    when += arrivals.next_gap();
    queue.schedule_at(when, [&] {
      // Propose against the topology as it stands at the arrival instant.
      ctrl.submit(propose(tree, churn, event_fraction, rng),
                  [&stats](const Result& r) { stats.count(r); });
    });
  }
  queue.run();
  return stats;
}

}  // namespace dyncon::workload
