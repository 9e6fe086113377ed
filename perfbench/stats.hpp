// Statistics and schedules shared by the benchmark's workloads.
//
// Kept free of runtime types so stats_test.cpp can check them in isolation.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Value at quantile q in [0, 1], interpolating linearly between the two
/// closest ranks (position q·(n−1) in the sorted sample).  Requires a
/// non-empty sample.
double quantile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// First, second and third quartile by the method Python's
/// statistics.quantiles(values, n=4) uses by default ("exclusive"), so the
/// spread the benchmark prints matches the one its acceptance check
/// computes.  Requires at least two values.
std::array<double, 3> quartiles(std::vector<double> values);

/// Samples of an n-sample lying strictly above its q-quantile (as
/// quantile() places it).  Each workload fixes its tail percentile so that
/// at least ten samples lie beyond it; the run warns when they do not.
std::int64_t samples_beyond(std::int64_t n, double q);

/// Tail of a phase measured in blocks: the median over blocks of each
/// block's q-quantile.  `values` holds the blocks back to back, block i
/// starting at index begin[i]; empty blocks are skipped.  A host
/// interference episode that hits one block moves one of the medianed
/// values, not the result.  Requires at least one non-empty block.
double median_block_quantile(const std::vector<double>& values,
                             const std::vector<std::size_t>& begin, double q);

/// Samples beyond each block's q-quantile, summed over the blocks.
std::int64_t block_samples_beyond(std::size_t total,
                                  const std::vector<std::size_t>& begin,
                                  double q);

/// The two phases every workload alternates: a closed loop with one frame
/// outstanding (Solo) and the workload's loaded phase (Loaded).
enum class Phase { Solo, Loaded };

struct Block {
  Phase phase = Phase::Solo;
  double seconds = 0.0;
};

/// ABAB interleaving of the measured time: `pairs` Solo/Loaded pairs of
/// equal length that together last `seconds`, starting with Solo, so slow
/// host drift lands on both phases alike.
std::vector<Block> abab_blocks(double seconds, int pairs);

/// Offered load of the open-loop workload.  Every loaded block opens with a
/// burst and ends calm, so each block asks the adaptive runtime for one
/// switch up and one back, whatever the seed.
struct Bursts {
  double burst_rate = 0.0;   ///< frames/s in the burst
  double calm_rate = 0.0;    ///< frames/s for the rest of the block
  double burst_share = 0.0;  ///< share of each block the burst lasts
};

/// Due times of the open-loop frames, one vector per loaded block, in
/// seconds from the block's start.  Frames come at a fixed rate within
/// each segment, as from cameras at a fixed frame rate: floor(rate ·
/// length) of them, offset by a seeded fraction of the period.  Seeds
/// differ in arrival phase, not in load or in the number of bursts.
std::vector<std::vector<double>> burst_schedule(std::uint64_t seed,
                                                const Bursts& bursts,
                                                double block_s, int blocks);

}  // namespace perfbench
