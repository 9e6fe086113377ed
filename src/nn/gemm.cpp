// Per-ISA register-blocked GEMM (see gemm.hpp for the arithmetic contract).
//
// This translation unit must be compiled with -ffp-contract=off (set in
// src/nn/CMakeLists.txt): under target("avx2,fma") or target("avx512f")
// GCC otherwise fuses `acc + a * b` into vfmadd, which rounds once instead
// of twice and breaks bit-equality with the baseline variant.
//
// The microkernel (gemm_tile.inc, written with GCC/Clang vector extensions)
// is included once per variant inside a target region, so each copy is
// compiled for its own instruction set.  The default build stays portable
// (no -march flag); the variant is chosen once at run time from cpuid.
#include "nn/gemm.hpp"

#include <algorithm>
#include <cstring>

// Open / close a region whose functions are compiled for instruction set
// `isa`, in the spelling each compiler understands.
#define PICO_PRAGMA(x) _Pragma(#x)
#if defined(__clang__)
#define PICO_TARGET_BEGIN(isa) \
  PICO_PRAGMA(clang attribute push(__attribute__((target(isa))), \
                                   apply_to = function))
#define PICO_TARGET_END PICO_PRAGMA(clang attribute pop)
#else
#define PICO_TARGET_BEGIN(isa) \
  PICO_PRAGMA(GCC push_options) PICO_PRAGMA(GCC target(isa))
#define PICO_TARGET_END PICO_PRAGMA(GCC pop_options)
#endif

namespace pico::nn {

namespace {

// Portable baseline: 4-float vectors (SSE2 on x86-64), 4 x 8 tiles.
namespace baseline {
constexpr int kW = 4, kNv = 2, kMr = 4;
#include "nn/gemm_tile.inc"
}  // namespace baseline

bool always() { return true; }

#if defined(__x86_64__) || defined(__i386__)
#define PICO_GEMM_X86 1

PICO_TARGET_BEGIN("avx2")
namespace avx2 {
constexpr int kW = 8, kNv = 2, kMr = 4;
#include "nn/gemm_tile.inc"
}  // namespace avx2
PICO_TARGET_END

PICO_TARGET_BEGIN("avx512f")
namespace avx512f {
constexpr int kW = 16, kNv = 2, kMr = 4;
#include "nn/gemm_tile.inc"
}  // namespace avx512f
PICO_TARGET_END

bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
bool has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
#endif

constexpr GemmKernel kKernels[] = {
    {"baseline", baseline::kNr, always, baseline::run},
#ifdef PICO_GEMM_X86
    {"avx2", avx2::kNr, has_avx2, avx2::run},
    {"avx512f", avx512f::kNr, has_avx512f, avx512f::run},
#endif
};

}  // namespace

std::span<const GemmKernel> gemm_kernels() { return kKernels; }

const GemmKernel& gemm_dispatch() {
  static const GemmKernel& chosen = []() -> const GemmKernel& {
    const GemmKernel* best = &kKernels[0];
    for (const GemmKernel& kernel : kKernels) {
      if (kernel.host_supports()) best = &kernel;
    }
    return *best;
  }();
  return chosen;
}

}  // namespace pico::nn
