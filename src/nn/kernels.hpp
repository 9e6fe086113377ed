// Region-aware operator kernels.
//
// Every kernel computes `out_region` (in full-output-map coordinates) of one
// node's output, reading from input pieces that each carry their own
// full-map region.  Zero padding is applied only at true map borders — a
// piece in the middle of the map never sees padding, which is exactly the
// subtlety that makes naive "pad every tile" distributed convolution wrong.
//
// The single-device executor is the special case out_region == full map, so
// distributed and local inference share one arithmetic path and their
// results agree bit-for-bit.
//
// Intra-device parallelism: conv, pool and the elementwise kernels split
// `out_region` into horizontal strips executed on the shared ThreadPool
// (common/thread_pool.hpp).  Every output scalar is produced by exactly one
// strip with the same fixed accumulation order the serial loop uses, so
// results are bit-identical for every thread count — parallelism changes
// wall time, never arithmetic.
//
// Convolution has one path: im2col + the register-blocked GEMM in
// nn/gemm.hpp, whose variants (one per instruction set, picked at run
// time) keep one arithmetic contract and so agree bit for bit on every
// host (DESIGN.md §9).
#pragma once

#include <span>

#include "nn/graph.hpp"
#include "tensor/slice.hpp"

namespace pico::nn {

/// Per-invocation execution knobs, threaded from the runtime worker /
/// executor down into the kernels.
struct ExecOptions {
  /// Upper bound on intra-device threads for one kernel invocation.
  /// 0 = process default (the PICO_THREADS environment variable when set,
  /// else hardware concurrency); 1 = fully serial.  Results are identical
  /// for every value.
  int threads = 0;
};

/// Compute `out_region` of node `node`'s output.  `inputs[k]` is the piece of
/// node.inputs[k]'s output map the caller holds; it must cover the region
/// input_region(graph, node.id, out_region, k).
/// Returns a tensor of shape {out_channels, out_region.height, width}.
Tensor compute_node(const Node& node, std::span<const Placed> inputs,
                    const Region& out_region,
                    const ExecOptions& options = {});

}  // namespace pico::nn
