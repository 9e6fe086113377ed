// Reference convolution for the conv tests: the plain direct loop over
// output pixels and taps, kept out of src/ so production has one conv path.
//
// It accumulates over (ic, ky, kx) in the same order as the im2col GEMM
// but skips padding taps instead of adding w * 0, so it agrees with
// compute_node up to the sign of zero: compare with
// Tensor::max_abs_diff(...) == 0.
#pragma once

#include <cstddef>
#include <span>

#include "nn/graph.hpp"
#include "nn/kernels.hpp"
#include "tensor/slice.hpp"

namespace pico::test {

inline Tensor direct_conv(const nn::Node& node, const Placed& in,
                          const Region& out_region) {
  const Shape in_shape = node.in_shape;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const int icpg = in_shape.channels / node.groups;
  const int ocpg = node.out_channels / node.groups;
  const long long kernel_plane = static_cast<long long>(kh) * kw;

  Tensor out({node.out_channels, out_region.height(), out_region.width()});
  for (int oc = 0; oc < node.out_channels; ++oc) {
    const int ic_base = (oc / ocpg) * icpg;
    const float* w_oc = node.weights.data() + oc * kernel_plane * icpg;
    const float b = node.bias[static_cast<std::size_t>(oc)];
    for (int oy = out_region.row_begin; oy < out_region.row_end; ++oy) {
      for (int ox = out_region.col_begin; ox < out_region.col_end; ++ox) {
        float acc = 0.0f;
        for (int local = 0; local < icpg; ++local) {
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = oy * sh - ph + ky;
            if (iy < 0 || iy >= in_shape.height) continue;  // zero padding
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ox * sw - pw + kx;
              if (ix < 0 || ix >= in_shape.width) continue;
              acc += w_oc[local * kernel_plane + ky * kw + kx] *
                     in.tensor.at(ic_base + local, iy - in.region.row_begin,
                                  ix - in.region.col_begin);
            }
          }
        }
        acc += b;
        if (node.fused_relu && acc < 0.0f) acc = 0.0f;
        out.at(oc, oy - out_region.row_begin, ox - out_region.col_begin) =
            acc;
      }
    }
  }
  return out;
}

/// The production conv path for a single input piece.
inline Tensor conv(const nn::Node& node, const Placed& in,
                   const Region& out_region,
                   const nn::ExecOptions& options = {}) {
  return nn::compute_node(node, std::span<const Placed>(&in, 1), out_region,
                          options);
}

}  // namespace pico::test
