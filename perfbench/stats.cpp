#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) throw std::invalid_argument("quantile of no samples");
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) *
                     static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.size() < 2) {
    throw std::invalid_argument("quartiles need at least two samples");
  }
  std::sort(values.begin(), values.end());
  const auto m = static_cast<std::int64_t>(values.size()) + 1;
  std::array<double, 3> out{};
  for (std::int64_t i = 1; i <= 3; ++i) {
    const std::int64_t j = std::clamp<std::int64_t>(
        i * m / 4, 1, static_cast<std::int64_t>(values.size()) - 1);
    const std::int64_t delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) return 0;
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(n - 1);
  return n - 1 - static_cast<std::int64_t>(std::floor(pos));
}

namespace {

/// [begin, end) index ranges of the blocks.
std::vector<std::pair<std::size_t, std::size_t>> block_ranges(
    std::size_t total, const std::vector<std::size_t>& begin) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < begin.size(); ++i) {
    const std::size_t end = i + 1 < begin.size() ? begin[i + 1] : total;
    if (end > begin[i]) out.emplace_back(begin[i], end);
  }
  return out;
}

}  // namespace

double median_block_quantile(const std::vector<double>& values,
                             const std::vector<std::size_t>& begin,
                             double q) {
  std::vector<double> tails;
  for (const auto& [lo, hi] : block_ranges(values.size(), begin)) {
    tails.push_back(quantile({values.begin() + static_cast<std::ptrdiff_t>(lo),
                              values.begin() + static_cast<std::ptrdiff_t>(hi)},
                             q));
  }
  return median(std::move(tails));
}

std::int64_t block_samples_beyond(std::size_t total,
                                  const std::vector<std::size_t>& begin,
                                  double q) {
  std::int64_t beyond = 0;
  for (const auto& [lo, hi] : block_ranges(total, begin)) {
    beyond += samples_beyond(static_cast<std::int64_t>(hi - lo), q);
  }
  return beyond;
}

std::vector<Block> abab_blocks(double seconds, int pairs) {
  if (pairs < 1 || !(seconds > 0.0)) {
    throw std::invalid_argument("abab_blocks needs time and a pair");
  }
  const double each = seconds / (2.0 * pairs);
  std::vector<Block> out;
  for (int i = 0; i < pairs; ++i) {
    out.push_back({Phase::Solo, each});
    out.push_back({Phase::Loaded, each});
  }
  return out;
}

std::vector<std::vector<double>> burst_schedule(std::uint64_t seed,
                                                const Bursts& bursts,
                                                double block_s, int blocks) {
  pico::Rng rng(seed);
  const double burst_s = bursts.burst_share * block_s;
  const auto segment = [&rng](std::vector<double>& due, double rate,
                              double lo, double hi) {
    const double phase = rng.uniform();
    const auto frames = static_cast<int>(std::floor(rate * (hi - lo)));
    for (int i = 0; i < frames; ++i) due.push_back(lo + (phase + i) / rate);
  };
  std::vector<std::vector<double>> out(static_cast<std::size_t>(blocks));
  for (std::vector<double>& due : out) {
    segment(due, bursts.burst_rate, 0.0, burst_s);
    segment(due, bursts.calm_rate, burst_s, block_s);
  }
  return out;
}

}  // namespace perfbench
