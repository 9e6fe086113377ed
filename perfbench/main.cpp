// PICO end-to-end benchmark: one workload per invocation.
//
//   pico_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints human-readable accounting, then as its last stdout line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits
// non-zero, printing no result, on bad arguments or any run error.
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.hpp"

namespace {

std::string json_number(double value) {
  char buffer[64];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof(buffer), value);
  if (ec != std::errc{}) throw std::runtime_error("unprintable number");
  return std::string(buffer, end);
}

std::string to_json(const perfbench::RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const perfbench::Metric& m : result.metrics) {
    out << sep << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
        << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  out << "}}";
  return out.str();
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "pico_perfbench: " << why
            << "\nusage: pico_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  // The paper's devices are single-core: one compute thread per device.
  // Set before the kernel thread pool first reads it.  The other runtime
  // knobs keep their defaults whatever the caller's environment holds.
  setenv("PICO_THREADS", "1", 1);
  for (const char* knob : {"PICO_EVENTS", "PICO_HARVEST_MS",
                           "PICO_NET_TIMEOUT_MS", "PICO_TRACE"}) {
    unsetenv(knob);
  }

  std::string workload;
  perfbench::RunOptions options;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds >= 1.0 && options.seconds <= 600.0;
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (workload.empty() || !have_seed || !have_seconds || !have_trace) {
    usage("--workload, --seed, --seconds (1..600) and --trace are required");
  }

  try {
    const perfbench::RunResult result =
        perfbench::run_workload(workload, options, std::cout);
    std::cout << to_json(result) << std::endl;
  } catch (const std::invalid_argument& error) {
    usage(error.what());
  } catch (const std::exception& error) {
    std::cout.flush();
    std::cerr << "pico_perfbench: " << error.what() << "\n";
    return 1;
  }
  return 0;
}
