// Device calibration — the regression behind Eq. 5.
//
// The paper estimates compute time as t = α_k · θ / ϑ(d_k) where α_k is "a
// coefficient computed by a regression model" (§III-B) but never specifies
// the regression.  This module implements it: run real convolution
// workloads of increasing FLOP counts, time them, and fit the
// through-the-origin least squares line
//
//     measured_seconds ≈ flops / capacity            (fit_capacity)
//     measured_seconds ≈ α · flops / assumed_capacity (fit_alpha)
//
// profile_host() produces the samples on the current machine, so a user can
// build a Device whose capacity matches their actual hardware and feed the
// simulator/planner calibrated numbers instead of the Pi defaults.
#pragma once

#include <span>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/rng.hpp"

namespace pico {

struct CalibrationSample {
  Flops flops = 0.0;
  Seconds measured = 0.0;
};

/// Least-squares through the origin: capacity = Σ f² / Σ (f · t).
/// Requires at least one sample with positive flops and time.
FlopsPerSec fit_capacity(std::span<const CalibrationSample> samples);

/// α such that t ≈ α · f / assumed_capacity (Eq. 5's correction factor for
/// a device whose nominal capacity is already known).
double fit_alpha(std::span<const CalibrationSample> samples,
                 FlopsPerSec assumed_capacity);

/// Coefficient of determination (R²) of the through-origin fit — how well
/// the linear cost model (Eq. 5) explains the measurements.
double fit_r_squared(std::span<const CalibrationSample> samples,
                     FlopsPerSec capacity);

struct ProfileOptions {
  /// Convolution sizes to time (spatial extent of a 3x3, 32->32 channel
  /// conv); each contributes one sample per repeat.
  std::vector<int> sizes{16, 24, 32, 48, 64};
  int repeats = 3;
  std::uint64_t seed = 1;
  /// Intra-device threads the profiled kernels use (0 = process default,
  /// i.e. PICO_THREADS or hardware concurrency).  Must match what the
  /// runtime will use, or the fitted capacity ϑ(d_k) feeding Eq. 5 won't
  /// describe the device: a quad-core Pi profiled single-threaded looks 3-4x
  /// slower than the device the planner actually schedules onto.
  int threads = 0;
};

/// Time real convolutions on this machine and return (flops, seconds)
/// samples, each the mean over back-to-back runs spanning at least 20 ms.
/// Wall-clock based: results vary with machine load.
std::vector<CalibrationSample> profile_host(
    const ProfileOptions& options = {});

/// A Device modeling the current machine: capacity from profile_host +
/// fit_capacity, alpha = 1.
Device calibrated_host_device(const ProfileOptions& options = {});

}  // namespace pico
