#include "cost/calibration.hpp"

#include <chrono>

#include "common/error.hpp"
#include "cost/flops.hpp"
#include "nn/executor.hpp"
#include "nn/graph.hpp"

namespace pico {

FlopsPerSec fit_capacity(std::span<const CalibrationSample> samples) {
  double ff = 0.0, ft = 0.0;
  for (const CalibrationSample& sample : samples) {
    PICO_CHECK(sample.flops >= 0.0 && sample.measured >= 0.0);
    ff += sample.flops * sample.flops;
    ft += sample.flops * sample.measured;
  }
  PICO_CHECK_MSG(ff > 0.0 && ft > 0.0,
                 "calibration needs samples with positive flops and time");
  return ff / ft;
}

double fit_alpha(std::span<const CalibrationSample> samples,
                 FlopsPerSec assumed_capacity) {
  PICO_CHECK(assumed_capacity > 0.0);
  // t = α · f / cap  ->  α = cap / fitted_capacity.
  return assumed_capacity / fit_capacity(samples);
}

double fit_r_squared(std::span<const CalibrationSample> samples,
                     FlopsPerSec capacity) {
  PICO_CHECK(capacity > 0.0 && !samples.empty());
  double mean = 0.0;
  for (const CalibrationSample& s : samples) mean += s.measured;
  mean /= static_cast<double>(samples.size());
  double ss_res = 0.0, ss_tot = 0.0;
  for (const CalibrationSample& s : samples) {
    const double predicted = s.flops / capacity;
    ss_res += (s.measured - predicted) * (s.measured - predicted);
    ss_tot += (s.measured - mean) * (s.measured - mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

std::vector<CalibrationSample> profile_host(const ProfileOptions& options) {
  PICO_CHECK(!options.sizes.empty() && options.repeats >= 1);
  Rng rng(options.seed);
  std::vector<CalibrationSample> samples;
  for (const int size : options.sizes) {
    PICO_CHECK(size >= 3);
    nn::Graph g;
    const int in = g.add_input({32, size, size});
    g.add_conv(in, 32, 3, 1, 1);
    g.finalize();
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const Flops flops = cost::model_flops(g);
    const nn::ExecOptions exec{.threads = options.threads};

    // Warm-up once (page faults, caches, pool threads), then timed repeats.
    // A repeat runs the conv back to back for at least kMinSampleSeconds
    // and records the mean: one run of these layers can take well under a
    // millisecond, below the scheduler's time slice, so a single preemption
    // would otherwise multiply a sample.
    constexpr Seconds kMinSampleSeconds = 0.02;
    (void)nn::execute(g, input, exec);
    for (int repeat = 0; repeat < options.repeats; ++repeat) {
      const auto start = std::chrono::steady_clock::now();
      Seconds elapsed = 0.0;
      int runs = 0;
      do {
        const Tensor out = nn::execute(g, input, exec);
        PICO_CHECK(out.size() > 0);
        ++runs;
        elapsed = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
      } while (elapsed < kMinSampleSeconds);
      samples.push_back({flops, elapsed / runs});
    }
  }
  return samples;
}

Device calibrated_host_device(const ProfileOptions& options) {
  const std::vector<CalibrationSample> samples = profile_host(options);
  Device device;
  device.name = "host";
  device.capacity = fit_capacity(samples);
  device.alpha = 1.0;
  return device;
}

}  // namespace pico
