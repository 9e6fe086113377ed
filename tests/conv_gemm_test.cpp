// Every compiled GEMM variant (nn/gemm.hpp) against the portable baseline:
// outputs must be byte-identical (memcmp) on every shape class the tile
// loops treat differently — N and output-channel tails, grouped and
// depthwise convs, strides, 1x1 and 1x7 kernels, border/interior regions,
// extreme aspect ratios — plus an FMA canary whose exact answer is 0 under
// the no-FMA contract and 2^-24 if a multiply-add is fused.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "nn/gemm.hpp"
#include "nn/receptive.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

std::vector<const nn::GemmKernel*> host_kernels() {
  std::vector<const nn::GemmKernel*> kernels;
  for (const nn::GemmKernel& kernel : nn::gemm_kernels()) {
    if (kernel.host_supports()) kernels.push_back(&kernel);
  }
  return kernels;
}

bool same_bytes(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(float)) == 0;
}

/// Border rows, bottom rows, an interior window and the full map.
std::vector<Region> regions_of(const Shape& out) {
  return {
      Region::full(out.height, out.width),
      Region::rows(0, std::max(1, out.height / 3), out.width),
      Region::rows(out.height - std::max(1, out.height / 3), out.height,
                   out.width),
      Region{out.height / 3, std::max(out.height / 3 + 1, 2 * out.height / 3),
             out.width / 4, std::max(out.width / 4 + 1, 3 * out.width / 4)},
  };
}

/// Run `regions` of graph node `conv` from their haloed input pieces through
/// every host-supported variant at 1 and 3 threads; each must equal the
/// baseline byte for byte.
void expect_variants_agree(nn::Graph& g, int conv, std::uint64_t seed,
                           const std::vector<Region>& regions) {
  if (!g.finalized()) g.finalize();
  Rng rng(seed);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const nn::Node& node = g.node(conv);
  const nn::GemmKernel& baseline = nn::gemm_kernels().front();
  for (const Region& region : regions) {
    const Region need = nn::input_region(g, conv, region);
    const Placed piece{need, extract(input, need)};
    for (const int threads : {1, 3}) {
      const nn::ExecOptions options{.threads = threads};
      const Tensor expected =
          nn::conv_im2col(node, piece, region, options, baseline);
      for (const nn::GemmKernel* kernel : host_kernels()) {
        EXPECT_TRUE(same_bytes(
            expected, nn::conv_im2col(node, piece, region, options, *kernel)))
            << kernel->isa << " differs from baseline on " << node.name
            << " region " << region << " threads " << threads;
      }
    }
  }
}

void expect_variants_agree(nn::Graph& g, int conv, std::uint64_t seed) {
  g.finalize();
  expect_variants_agree(g, conv, seed, regions_of(g.node(conv).out_shape));
}

TEST(ConvGemm, BaselineFirstAndDispatchIsHostSupported) {
  ASSERT_FALSE(nn::gemm_kernels().empty());
  EXPECT_STREQ(nn::gemm_kernels().front().isa, "baseline");
  EXPECT_TRUE(nn::gemm_kernels().front().host_supports());
  const nn::GemmKernel& chosen = nn::gemm_dispatch();
  EXPECT_TRUE(chosen.host_supports());
  // The widest supported variant wins.
  EXPECT_EQ(&chosen, host_kernels().back());
  std::string compiled;
  for (const nn::GemmKernel& kernel : nn::gemm_kernels()) {
    compiled += std::string(compiled.empty() ? "" : ",") + kernel.isa +
                (kernel.host_supports() ? "" : "(unsupported)");
  }
  RecordProperty("compiled_variants", compiled);
  RecordProperty("dispatched", chosen.isa);
}

TEST(ConvGemm, NAndOutputChannelTails) {
  // n = 9 * 13 = 117: 117 % 8, % 16 and % 32 are all nonzero; 7 output
  // channels leave a 3-row tile, 6 a 2-row tile, 1 a lone 1-row tile.
  for (const int oc : {7, 6, 1, 13}) {
    nn::Graph g;
    const int in = g.add_input({5, 9, 13});
    const int conv = g.add_conv(in, oc, 3, 1, 1, /*fused_relu=*/oc % 2 == 1);
    expect_variants_agree(g, conv, 600 + static_cast<std::uint64_t>(oc));
  }
}

TEST(ConvGemm, LongKAndSeveralPanels) {
  nn::Graph g;
  const int in = g.add_input({64, 20, 21});
  const int conv = g.add_conv(in, 36, 3, 1, 1);
  expect_variants_agree(g, conv, 610);
}

TEST(ConvGemm, GroupedAndDepthwise) {
  {
    nn::Graph g;
    const int in = g.add_input({8, 13, 13});
    const int conv = g.add_conv_grouped(in, 12, 3, 1, 1, /*groups=*/4);
    expect_variants_agree(g, conv, 620);
  }
  {
    nn::Graph g;
    const int in = g.add_input({6, 14, 14});
    const int conv = g.add_depthwise(in, 3, 1, 1);
    expect_variants_agree(g, conv, 621);
  }
}

TEST(ConvGemm, Stride2And1x1And1x7) {
  {
    nn::Graph g;
    const int in = g.add_input({4, 21, 21});
    const int conv = g.add_conv(in, 6, 3, 2, 1);
    expect_variants_agree(g, conv, 630);
  }
  {
    nn::Graph g;
    const int in = g.add_input({12, 15, 15});
    const int conv = g.add_conv(in, 5, 1, 1, 0, /*fused_relu=*/false);
    expect_variants_agree(g, conv, 631);
  }
  {
    nn::Graph g;
    const int in = g.add_input({4, 15, 15});
    const int conv = g.add_conv_window(in, 9, nn::Window{1, 7, 1, 1, 0, 3});
    expect_variants_agree(g, conv, 632);
  }
}

TEST(ConvGemm, ExtremeAspectRatioRegions) {
  {
    nn::Graph g;
    const int in = g.add_input({8, 3, 4096});
    const int conv = g.add_conv(in, 4, 3, 1, 1);
    expect_variants_agree(g, conv, 640,
                          {Region::rows(1, 2, 4096), Region::full(3, 4096)});
  }
  {
    nn::Graph g;
    const int in = g.add_input({2, 4096, 3});
    const int conv = g.add_conv(in, 3, 3, 1, 1);
    expect_variants_agree(g, conv, 641, {Region{0, 4096, 1, 2}});
  }
}

TEST(ConvGemm, FmaCanaryIsExactlyZeroOnEveryVariant) {
  // out = 1 * -(1 + 2^-11) + (1 + 2^-12) * (1 + 2^-12).  The product is
  // 1 + 2^-11 + 2^-24, which rounds (to even) to 1 + 2^-11, so the sum is
  // exactly +0.  A fused multiply-add keeps the 2^-24.
  const int width = 37;  // full vectors and a tail for every tile width
  nn::Graph g;
  const int in = g.add_input({2, 1, width});
  g.add_conv(in, 5, 1, 1, 0, /*fused_relu=*/false);
  g.finalize();
  nn::Node node = g.node(1);
  const float eps12 = std::ldexp(1.0f, -12), eps11 = std::ldexp(1.0f, -11);
  for (int oc = 0; oc < node.out_channels; ++oc) {
    node.weights[static_cast<std::size_t>(2 * oc)] = 1.0f;
    node.weights[static_cast<std::size_t>(2 * oc + 1)] = 1.0f + eps12;
    node.bias[static_cast<std::size_t>(oc)] = 0.0f;
  }
  Tensor x({2, 1, width});
  for (int col = 0; col < width; ++col) {
    x.at(0, 0, col) = -(1.0f + eps11);
    x.at(1, 0, col) = 1.0f + eps12;
  }
  const Region full = Region::full(1, width);
  const Tensor zeros({node.out_channels, 1, width});
  for (const nn::GemmKernel* kernel : host_kernels()) {
    const Tensor out =
        nn::conv_im2col(node, Placed{full, x}, full, {.threads = 1}, *kernel);
    EXPECT_TRUE(same_bytes(out, zeros))
        << kernel->isa << " fused a multiply-add: got " << out.at(0, 0, 0);
  }
}

}  // namespace
}  // namespace pico
