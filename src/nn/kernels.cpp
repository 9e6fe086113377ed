#include "nn/kernels.hpp"

#include <algorithm>
#include <cstddef>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "nn/gemm.hpp"
#include "obs/trace.hpp"

namespace pico::nn {

namespace {

void check_piece_covers(const Node& node, const Placed& piece,
                        const Region& needed) {
  PICO_CHECK_MSG(piece.region.contains(needed),
                 "node " << node.name << ": input piece " << piece.region
                         << " does not cover needed region " << needed);
  PICO_CHECK(piece.tensor.shape().height == piece.region.height() &&
             piece.tensor.shape().width == piece.region.width());
}

int resolve_threads(const ExecOptions& options) {
  if (options.threads > 0) {
    return std::min(options.threads, ThreadPool::kMaxThreads);
  }
  return ThreadPool::global().parallelism();
}

/// Run `body` over `out_region` split into at most resolve_threads(options)
/// equal-height horizontal strips on the shared pool.  Each strip computes
/// disjoint output rows and every scalar keeps the serial accumulation
/// order, so the result is bit-identical for any strip count.  Each strip
/// is traced as one `span_name` span (category "kernel") when tracing is on.
void parallel_strips(const Region& out_region, const ExecOptions& options,
                     const char* span_name,
                     const std::function<void(const Region&)>& body) {
  const int rows = out_region.height();
  const int strips = std::max(1, std::min(resolve_threads(options), rows));
  if (strips <= 1) {
    obs::Span span(span_name, "kernel", obs::kernel_track(0));
    body(out_region);
    return;
  }
  const int base = rows / strips, extra = rows % strips;
  std::vector<Region> regions(static_cast<std::size_t>(strips));
  int row = out_region.row_begin;
  for (int s = 0; s < strips; ++s) {
    const int height = base + (s < extra ? 1 : 0);
    regions[static_cast<std::size_t>(s)] =
        Region{row, row + height, out_region.col_begin, out_region.col_end};
    row += height;
  }
  ThreadPool::global().parallel_for(strips, [&](int s) {
    obs::Span span(span_name, "kernel", obs::kernel_track(s));
    body(regions[static_cast<std::size_t>(s)]);
  });
}

/// Fill the patch matrix of one group for output rows [block_begin,
/// block_end) of `strip`: col[k][n] is the input value (0 in padding) that
/// tap k = (local ic, ky, kx) reads for output pixel n.  Every element is
/// written exactly once; a stride-1 row segment is one memcpy.
void im2col(const Node& node, const Placed& in, int group, const Region& strip,
            int block_begin, int block_end, float* col) {
  const Shape in_shape = node.in_shape;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;
  const int icpg = in_shape.channels / node.groups;
  const long long width = strip.width();
  const long long n = (block_end - block_begin) * width;
  for (int local = 0; local < icpg; ++local) {
    const int ic = group * icpg + local;
    for (int ky = 0; ky < kh; ++ky) {
      for (int kx = 0; kx < kw; ++kx) {
        // Output columns [lo, hi) read inside the map: ox * sw - pw + kx
        // lies in [0, in width).
        const int lo = std::clamp((std::max(0, pw - kx) + sw - 1) / sw,
                                  strip.col_begin, strip.col_end);
        const int hi = std::clamp(
            (in_shape.width + pw - kx + sw - 1) / sw, lo, strip.col_end);
        float* col_row = col;
        col += n;
        for (int oy = block_begin; oy < block_end; ++oy, col_row += width) {
          const int iy = oy * sh - ph + ky;
          if (iy < 0 || iy >= in_shape.height) {
            std::fill_n(col_row, width, 0.0f);
            continue;
          }
          std::fill(col_row, col_row + (lo - strip.col_begin), 0.0f);
          std::fill(col_row + (hi - strip.col_begin), col_row + width, 0.0f);
          if (hi == lo) continue;
          const float* src =
              &in.tensor.at(ic, iy - in.region.row_begin,
                            lo * sw - pw + kx - in.region.col_begin);
          float* dst = col_row + (lo - strip.col_begin);
          if (sw == 1) {
            std::copy_n(src, hi - lo, dst);
          } else {
            for (int i = 0; i < hi - lo; ++i, src += sw) dst[i] = *src;
          }
        }
      }
    }
  }
}

}  // namespace

/// im2col + register-blocked GEMM (nn/gemm.hpp).
///
/// Each parallel strip processes its rows in blocks small enough that the
/// patch matrix (K = icpg*kh*kw rows by N = block area columns) stays in
/// cache, then per group computes
///   out[oc][n] = relu(sum_k w[oc][k] * col[k][n] + b[oc])   (k ascending)
/// through `kernel`.  The col and panel buffers are sized once per strip
/// and all patch-matrix extents are 64-bit: a single-row region can legally
/// be wide enough that kernel_volume * n overflows int.
Tensor conv_im2col(const Node& node, const Placed& in,
                   const Region& out_region, const ExecOptions& options,
                   const GemmKernel& kernel) {
  const int oc_count = node.out_channels;
  const int icpg = node.in_shape.channels / node.groups;
  const int ocpg = oc_count / node.groups;
  const long long kernel_volume =
      static_cast<long long>(icpg) * node.win.kh * node.win.kw;
  const long long plane =
      static_cast<long long>(out_region.height()) * out_region.width();

  Tensor out({oc_count, out_region.height(), out_region.width()});

  parallel_strips(out_region, options, "conv_im2col", [&](
                                                          const Region& strip) {
    // Block rows so the col matrix stays near 1 MB: panel packing then
    // reads it from a per-core L2 instead of memory (an 8 MB budget ran the
    // 64->64 @112 layer ~25 % slower).
    constexpr long long kColBudget = 1 << 18;  // floats
    const long long width = strip.width();
    const long long per_row = kernel_volume * width;
    const int block_rows = static_cast<int>(std::max<long long>(
        1, kColBudget / std::max<long long>(1, per_row)));
    const long long max_n =
        std::min<long long>(block_rows, strip.height()) * width;
    // Both buffers are fully overwritten before every read.
    const auto col = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(kernel_volume * max_n));
    const auto panel = std::make_unique_for_overwrite<float[]>(
        static_cast<std::size_t>(kernel_volume * kernel.nr));

    for (int block_begin = strip.row_begin; block_begin < strip.row_end;
         block_begin += block_rows) {
      const int block_end = std::min(block_begin + block_rows, strip.row_end);
      for (int group = 0; group < node.groups; ++group) {
        im2col(node, in, group, strip, block_begin, block_end, col.get());
        const int oc0 = group * ocpg;
        kernel.run(
            GemmArgs{
                .a = node.weights.data() + oc0 * kernel_volume,
                .lda = kernel_volume,
                .b = col.get(),
                .c = &out.at(oc0, block_begin - out_region.row_begin, 0),
                .ldc = plane,
                .m = ocpg,
                .n = (block_end - block_begin) * width,
                .k = kernel_volume,
                .bias = node.bias.data() + oc0,
                .relu = node.fused_relu,
            },
            panel.get());
      }
    }
  });
  return out;
}

namespace {

Tensor pool(const Node& node, const Placed& in, const Region& out_region,
            const ExecOptions& options) {
  const Shape in_shape = node.in_shape;
  const bool is_max = node.kind == OpKind::MaxPool;
  const int kh = node.win.kh, kw = node.win.kw;
  const int sh = node.win.sh, sw = node.win.sw;
  const int ph = node.win.ph, pw = node.win.pw;

  Tensor out({in_shape.channels, out_region.height(), out_region.width()});
  parallel_strips(out_region, options, "pool", [&](const Region& strip) {
    for (int c = 0; c < in_shape.channels; ++c) {
      for (int oy = strip.row_begin; oy < strip.row_end; ++oy) {
        const int iy0 = oy * sh - ph;
        for (int ox = strip.col_begin; ox < strip.col_end; ++ox) {
          const int ix0 = ox * sw - pw;
          float best = -std::numeric_limits<float>::infinity();
          float sum = 0.0f;
          int taps = 0;
          for (int ky = 0; ky < kh; ++ky) {
            const int iy = iy0 + ky;
            if (iy < 0 || iy >= in_shape.height) continue;
            for (int kx = 0; kx < kw; ++kx) {
              const int ix = ix0 + kx;
              if (ix < 0 || ix >= in_shape.width) continue;
              const float v = in.tensor.at(c, iy - in.region.row_begin,
                                           ix - in.region.col_begin);
              best = std::max(best, v);
              sum += v;
              ++taps;
            }
          }
          PICO_CHECK_MSG(taps > 0, "pool window entirely in padding");
          out.at(c, oy - out_region.row_begin, ox - out_region.col_begin) =
              is_max ? best : sum / static_cast<float>(taps);
        }
      }
    }
  });
  return out;
}

Tensor elementwise_relu(const Placed& in, const Region& out_region,
                        const ExecOptions& options) {
  Tensor out({in.tensor.shape().channels, out_region.height(),
              out_region.width()});
  parallel_strips(out_region, options, "relu", [&](const Region& strip) {
    for (int c = 0; c < out.shape().channels; ++c) {
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          const float v = in.tensor.at(c, y - in.region.row_begin,
                                       x - in.region.col_begin);
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) =
              v > 0.0f ? v : 0.0f;
        }
      }
    }
  });
  return out;
}

Tensor batchnorm(const Node& node, const Placed& in, const Region& out_region,
                 const ExecOptions& options) {
  Tensor out({node.in_shape.channels, out_region.height(),
              out_region.width()});
  parallel_strips(out_region, options, "batchnorm", [&](const Region& strip) {
    for (int c = 0; c < out.shape().channels; ++c) {
      const float scale = node.bn_scale[static_cast<std::size_t>(c)];
      const float shift = node.bn_shift[static_cast<std::size_t>(c)];
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          float v = scale * in.tensor.at(c, y - in.region.row_begin,
                                         x - in.region.col_begin) +
                    shift;
          if (node.fused_relu && v < 0.0f) v = 0.0f;
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) = v;
        }
      }
    }
  });
  return out;
}

Tensor add(const Node& node, const Placed& lhs, const Placed& rhs,
           const Region& out_region, const ExecOptions& options) {
  Tensor out({node.in_shape.channels, out_region.height(),
              out_region.width()});
  parallel_strips(out_region, options, "add", [&](const Region& strip) {
    for (int c = 0; c < out.shape().channels; ++c) {
      for (int y = strip.row_begin; y < strip.row_end; ++y) {
        for (int x = strip.col_begin; x < strip.col_end; ++x) {
          float v = lhs.tensor.at(c, y - lhs.region.row_begin,
                                  x - lhs.region.col_begin) +
                    rhs.tensor.at(c, y - rhs.region.row_begin,
                                  x - rhs.region.col_begin);
          if (node.fused_relu && v < 0.0f) v = 0.0f;
          out.at(c, y - out_region.row_begin, x - out_region.col_begin) = v;
        }
      }
    }
  });
  return out;
}

Tensor concat(const Node& node, std::span<const Placed> inputs,
              const Region& out_region) {
  Tensor out({node.out_shape.channels, out_region.height(),
              out_region.width()});
  int c_base = 0;
  for (const Placed& piece : inputs) {
    for (int c = 0; c < piece.tensor.shape().channels; ++c) {
      for (int y = out_region.row_begin; y < out_region.row_end; ++y) {
        for (int x = out_region.col_begin; x < out_region.col_end; ++x) {
          out.at(c_base + c, y - out_region.row_begin,
                 x - out_region.col_begin) =
              piece.tensor.at(c, y - piece.region.row_begin,
                              x - piece.region.col_begin);
        }
      }
    }
    c_base += piece.tensor.shape().channels;
  }
  return out;
}

Tensor fully_connected(const Node& node, const Placed& in) {
  PICO_CHECK_MSG(in.region == Region::full(node.in_shape.height,
                                           node.in_shape.width),
                 "fully-connected layers need the whole input map");
  Tensor out({node.out_channels, 1, 1});
  const long long in_elems = node.in_shape.elements();
  for (int o = 0; o < node.out_channels; ++o) {
    const float* w = node.weights.data() + o * in_elems;
    float acc = 0.0f;
    const std::span<const float> flat = in.tensor.data();
    for (long long i = 0; i < in_elems; ++i) acc += w[i] * flat[i];
    out.at(o, 0, 0) = acc + node.bias[static_cast<std::size_t>(o)];
  }
  return out;
}

Tensor global_avgpool(const Node& node, const Placed& in) {
  PICO_CHECK_MSG(in.region == Region::full(node.in_shape.height,
                                           node.in_shape.width),
                 "global average pooling needs the whole input map");
  Tensor out({node.in_shape.channels, 1, 1});
  const float denom =
      static_cast<float>(node.in_shape.height) * node.in_shape.width;
  for (int c = 0; c < node.in_shape.channels; ++c) {
    float acc = 0.0f;
    for (int y = 0; y < node.in_shape.height; ++y)
      for (int x = 0; x < node.in_shape.width; ++x)
        acc += in.tensor.at(c, y, x);
    out.at(c, 0, 0) = acc / denom;
  }
  return out;
}

}  // namespace

Tensor compute_node(const Node& node, std::span<const Placed> inputs,
                    const Region& out_region, const ExecOptions& options) {
  PICO_CHECK_MSG(!out_region.empty(), "empty output region for node "
                                          << node.name);
  PICO_CHECK_MSG(inputs.size() == node.inputs.size(),
                 "node " << node.name << " expects " << node.inputs.size()
                         << " inputs, got " << inputs.size());
  PICO_CHECK(Region::full(node.out_shape.height, node.out_shape.width)
                 .contains(out_region));
  for (const Placed& piece : inputs) check_piece_covers(node, piece, {});

  switch (node.kind) {
    case OpKind::Conv:
      return conv_im2col(node, inputs[0], out_region, options,
                         gemm_dispatch());
    case OpKind::MaxPool:
    case OpKind::AvgPool:
      return pool(node, inputs[0], out_region, options);
    case OpKind::ReLU:
      return elementwise_relu(inputs[0], out_region, options);
    case OpKind::BatchNorm:
      return batchnorm(node, inputs[0], out_region, options);
    case OpKind::Add:
      return add(node, inputs[0], inputs[1], out_region, options);
    case OpKind::Concat:
      return concat(node, inputs, out_region);
    case OpKind::FullyConnected:
      return fully_connected(node, inputs[0]);
    case OpKind::GlobalAvgPool:
      return global_avgpool(node, inputs[0]);
    case OpKind::Input:
      break;
  }
  PICO_CHECK_MSG(false, "compute_node on input node");
  return {};
}

}  // namespace pico::nn
