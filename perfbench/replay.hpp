// Per-layer replay for the traced run.
//
// Times calls into each module's public functions from the benchmark's own
// code — nothing inside src/ is instrumented.  One replay round re-runs a
// frame of the plan layer by layer on the calling thread, one compute
// thread, as a device would (each timed call is the median of three back
// to back, so caches are as warm as on a device running its segment frame
// after frame):
//   tensor  — extract() of every device's input piece (scatter) and
//             stitch() of every stage output (gather);
//   nn      — execute_segment() per device and stage (critical path, stage
//             period), compute_node() on each 3x3 conv at its per-device
//             region (GFLOP/s), execute() of the whole frame (local
//             reference);
//   runtime — serialize()/deserialize() of the largest piece and an echo of
//             it over an in-process and a TCP Connection pair.
// Every replayed piece is bit-compared against the single-device
// activations, so a replay that computes something else is caught.
#pragma once

#include <vector>

#include "cluster/cluster.hpp"
#include "nn/graph.hpp"
#include "partition/plan.hpp"
#include "tensor/tensor.hpp"

namespace perfbench {

struct ReplayRound {
  double local_frame_s = 0.0;    ///< nn::execute of the whole frame
  double critical_path_s = 0.0;  ///< Σ over stages of the slowest device
  double stage_period_s = 0.0;   ///< max over stages of the slowest device
  double scatter_s = 0.0;        ///< Σ over stages of extract() calls
  double gather_s = 0.0;         ///< Σ over stages of stitch() calls
  double conv3x3_flops = 0.0;    ///< Eq. 2 FLOPs of the replayed 3x3 convs
  double conv3x3_s = 0.0;
  double stage_imbalance = 0.0;  ///< max over stages of max/mean device time
  double eq5_ratio_cv = 0.0;     ///< spread of measured/predicted per device
  double serialize_gbps = 0.0;
  double deserialize_gbps = 0.0;
  double inproc_rtt_s = 0.0;
  double tcp_rtt_s = 0.0;
  bool bit_exact = true;         ///< every replayed piece matched
};

/// Bit-for-bit equality (shape and every byte): the benchmark's only
/// output check, stricter than comparing values.
bool same_bits(const pico::Tensor& a, const pico::Tensor& b);

/// Static per-frame counts of a plan.
struct PlanCounts {
  double bytes_per_frame = 0.0;    ///< input + output piece bytes, all stages
  double messages_per_frame = 0.0; ///< WorkRequest + WorkResult per slice
};

PlanCounts plan_counts(const pico::nn::Graph& graph,
                       const pico::partition::Plan& plan);

/// One replay round of `plan` on the frame whose single-device activations
/// (nn::execute_all, indexed by node id) are `acts`.  Spatial stages only
/// (the benchmark's chain models never produce branch stages).
ReplayRound replay_round(const pico::nn::Graph& graph,
                         const pico::Cluster& cluster,
                         const pico::partition::Plan& plan,
                         const std::vector<pico::Tensor>& acts);

}  // namespace perfbench
