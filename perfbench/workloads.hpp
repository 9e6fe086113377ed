// The benchmark's workloads (see README.md for why each exists).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< measured time (closed and open loops)
  bool trace = false;     ///< per-layer run instead of end-to-end run
};

struct RunResult {
  bool correct = true;        ///< every checked output was bit-exact
  std::int64_t attempted = 0; ///< frames sent in the measured phases
  std::int64_t failed = 0;    ///< of those: threw or mismatched
  std::vector<Metric> metrics;
};

/// Workload names, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// Run one workload.  Human-readable accounting (set-up samples, per-phase
/// sent/ok/failed, host reference loop, the traced run's budget line) goes
/// to `report`.  Throws std::invalid_argument for an unknown name.
RunResult run_workload(const std::string& name, const RunOptions& options,
                       std::ostream& report);

}  // namespace perfbench
