// Register-blocked matrix product behind the im2col convolution, compiled
// once per instruction set and dispatched once per process (internal header:
// compute_node is the public entry point; tests reach every compiled variant
// through this header).
//
// Arithmetic contract (DESIGN.md §9), kept by every variant:
//   c[m][n] starts at +0.0f, adds a[m][k] * b[k][n] for k ascending with the
//   multiply and the add each rounded separately (no FMA: gemm.cpp is built
//   with -ffp-contract=off), then adds bias[m], then applies the fused ReLU
//   as `v > 0 ? v : +0.0f`.
// So every variant, tile shape and thread count produces the same bits.
#pragma once

#include <span>

#include "nn/kernels.hpp"

namespace pico::nn {

/// C = epilogue(A * B) for A (m x k, row stride lda), B (k x n, row stride
/// n) and C (m x n, row stride ldc).
struct GemmArgs {
  const float* a = nullptr;
  long long lda = 0;
  const float* b = nullptr;
  float* c = nullptr;
  long long ldc = 0;
  int m = 0;
  long long n = 0, k = 0;
  const float* bias = nullptr;  // m entries
  bool relu = false;
};

/// One compiled microkernel variant.  `run` walks B in panels of `nr`
/// columns; each panel is copied into `panel` (k * nr floats, caller-owned)
/// and reused by every row tile of A.
struct GemmKernel {
  const char* isa;
  int nr;
  bool (*host_supports)();
  void (*run)(const GemmArgs& args, float* panel);
};

/// Every variant compiled into this build; the portable baseline is first.
std::span<const GemmKernel> gemm_kernels();

/// The widest variant the host supports, chosen on first use.
const GemmKernel& gemm_dispatch();

/// compute_node's convolution with the GEMM variant pinned.
Tensor conv_im2col(const Node& node, const Placed& in,
                   const Region& out_region, const ExecOptions& options,
                   const GemmKernel& kernel);

}  // namespace pico::nn
