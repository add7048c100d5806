// perfbench: one process runs one workload for a fixed wall-clock time and
// prints its metrics as the last line of stdout, one JSON object:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
// ones (README.md lists both).  A failed correctness check prints the
// object with "correct": false and exits 1.

#include <cmath>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dist-scarce|forest-hot|forest-cold|crash-durable> "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               why);
  std::exit(2);
}

std::uint64_t parse_u64(const char* s, const char* flag) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (end == s || *end != '\0' || s[0] == '-') {
    usage((std::string("bad value for ") + flag).c_str());
  }
  return v;
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(v, "--seed");
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(v, "--seconds"));
    } else if (flag == "--trace") {
      const std::uint64_t t = parse_u64(v, "--trace");
      if (t > 1) usage("--trace takes 0 or 1");
      a.trace = t == 1;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Checks checks;
  Report rep;
  try {
    if (args.workload == "dist-scarce") {
      rep = run_dist_scarce(args, checks);
    } else if (args.workload == "crash-durable") {
      rep = run_crash_durable(args, checks);
    } else if (args.workload == "forest-hot") {
      rep = run_forest_hot(args, checks);
    } else if (args.workload == "forest-cold") {
      rep = run_forest_cold(args, checks);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(),
                 e.what());
    return 1;
  }

  std::string metrics;
  auto emit = [&](const MetricDef& m) {
    const auto it = rep.values.find(m.name);
    double v = it == rep.values.end() ? 0.0 : it->second;
    if (!std::isfinite(v)) {  // JSON has no NaN or infinity
      checks.require(false, std::string("metric not finite: ") + m.name);
      v = 0;
    }
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  metrics.empty() ? "" : ", ", m.name, v, m.unit);
    metrics += buf;
  };
  if (args.trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) {
      checks.require(rep.values.count(m.name) == 1,
                     std::string("end-to-end metric missing: ") + m.name);
      emit(m);
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(rep.attempted),
              static_cast<unsigned long long>(rep.failed), metrics.c_str());
  return checks.ok() ? 0 : 1;
}
