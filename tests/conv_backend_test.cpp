// Production conv (compute_node: im2col + GEMM) vs the direct oracle in
// tests/conv_oracle.hpp: they must agree exactly up to the sign of zero (the
// accumulation order is identical by construction) across kernel shapes,
// strides, paddings, border/interior regions and haloed input pieces.
#include <gtest/gtest.h>

#include <ostream>

#include "common/rng.hpp"
#include "conv_oracle.hpp"
#include "nn/executor.hpp"
#include "nn/kernels.hpp"
#include "nn/receptive.hpp"
#include "tensor/slice.hpp"

namespace pico {
namespace {

struct ConvCase {
  const char* name;
  int in_channels, in_size, out_channels;
  nn::Window window;
};

// gtest prints an unprintable parameter as its raw bytes, which include the
// address of `name` and so change from run to run; print the name instead so
// the discovered test names are stable.
void PrintTo(const ConvCase& c, std::ostream* os) { *os << c.name; }

class ConvBackends : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBackends, AgreeOnFullMapAndRegions) {
  const ConvCase param = GetParam();
  nn::Graph g;
  const int in =
      g.add_input({param.in_channels, param.in_size, param.in_size});
  const int conv =
      g.add_conv_window(in, param.out_channels, param.window,
                        /*fused_relu=*/param.in_size % 2 == 0);
  g.finalize();
  Rng rng(2718);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);

  const nn::Node& node = g.node(conv);
  const Shape out = node.out_shape;
  const Region full_in = Region::full(param.in_size, param.in_size);
  const Placed whole{full_in, input};

  // Full map.
  const Tensor direct =
      test::direct_conv(node, whole, Region::full(out.height, out.width));
  const Tensor fast =
      test::conv(node, whole, Region::full(out.height, out.width));
  ASSERT_FLOAT_EQ(Tensor::max_abs_diff(direct, fast), 0.0f);

  // A sweep of sub-regions, fed exactly the haloed piece they need.
  const std::vector<Region> regions{
      Region::rows(0, std::max(1, out.height / 3), out.width),
      Region::rows(out.height / 2, out.height, out.width),
      Region{out.height / 4, std::max(out.height / 4 + 1, 3 * out.height / 4),
             out.width / 4, std::max(out.width / 4 + 1, 3 * out.width / 4)},
  };
  for (const Region& region : regions) {
    if (region.empty()) continue;
    const Region need = nn::input_region(g, conv, region);
    const Placed piece{need, extract(input, need)};
    const Tensor d = test::direct_conv(node, piece, region);
    const Tensor f = test::conv(node, piece, region);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
        << param.name << " region " << region;
    // And against the sliced full-map result.
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(extract(fast, region), f), 0.0f);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBackends,
    ::testing::Values(
        ConvCase{"k3s1p1", 3, 17, 8, nn::Window::square(3, 1, 1)},
        ConvCase{"k1s1p0", 16, 14, 4, nn::Window::square(1, 1, 0)},
        ConvCase{"k3s2p1", 4, 23, 6, nn::Window::square(3, 2, 1)},
        ConvCase{"k5s1p2", 2, 19, 3, nn::Window::square(5, 1, 2)},
        ConvCase{"k7s2p3", 3, 32, 4, nn::Window::square(7, 2, 3)},
        ConvCase{"k2s2p0", 8, 16, 8, nn::Window::square(2, 2, 0)},
        ConvCase{"k1x7", 4, 15, 4, nn::Window{1, 7, 1, 1, 0, 3}},
        ConvCase{"k7x1", 4, 15, 4, nn::Window{7, 1, 1, 1, 3, 0}},
        ConvCase{"k3s1p0_valid", 5, 11, 5, nn::Window::square(3, 1, 0)}),
    [](const auto& info) { return info.param.name; });

TEST(ConvBackends, BlockedPathCoversMultipleRowBlocks) {
  // Big enough that im2col processes several row blocks (col budget is
  // 2^18 floats): 64ch * 9 taps * 128 cols = 73728 floats/row -> blocks of
  // 3 rows over 128 rows.
  nn::Graph g;
  const int in = g.add_input({64, 128, 128});
  g.add_conv(in, 4, 3, 1, 1);
  g.finalize();
  Rng rng(5);
  g.randomize_weights(rng);
  Tensor input(g.input_shape());
  input.randomize(rng);
  const Placed whole{Region::full(128, 128), input};
  const nn::Node& node = g.node(1);
  const Tensor d = test::direct_conv(node, whole, Region::full(128, 128));
  const Tensor f = test::conv(node, whole, Region::full(128, 128));
  EXPECT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f);
}

TEST(ConvBackends, ExtremeAspectRatioRegions) {
  // Degenerate block sizing: a single-row output region wide enough that
  // the patch matrix extent kernel_volume * n must be computed in 64 bits,
  // and a many-block tall-thin map.  Regression for the int-overflow /
  // per-group buffer-churn audit of conv_im2col.
  {
    nn::Graph g;
    const int in = g.add_input({8, 3, 4096});
    g.add_conv(in, 4, 3, 1, 1);
    g.finalize();
    Rng rng(91);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Placed whole{Region::full(3, 4096), input};
    for (const Region region :
         {Region::rows(1, 2, 4096), Region::full(3, 4096)}) {
      const Tensor d = test::direct_conv(node, whole, region);
      const Tensor f = test::conv(node, whole, region);
      ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
          << "wide region " << region;
    }
  }
  {
    // Tall and one column wide: per-row patch extent is tiny, so the block
    // loop covers thousands of rows per block.
    nn::Graph g;
    const int in = g.add_input({2, 4096, 3});
    g.add_conv(in, 3, 3, 1, 1);
    g.finalize();
    Rng rng(92);
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Placed whole{Region::full(4096, 3), input};
    const Region region{0, 4096, 1, 2};
    const Tensor d = test::direct_conv(node, whole, region);
    const Tensor f = test::conv(node, whole, region);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f);
  }
}

TEST(ConvBackends, RandomizedSweep) {
  Rng rng(31337);
  for (int trial = 0; trial < 12; ++trial) {
    const int k = rng.uniform_int(1, 5);
    const int s = rng.uniform_int(1, 2);
    const int p = rng.uniform_int(0, k / 2 + 1);
    const int size = rng.uniform_int(k + 2, 24);
    nn::Graph g;
    const int in = g.add_input({rng.uniform_int(1, 6), size, size});
    g.add_conv(in, rng.uniform_int(1, 6), k, s, p);
    g.finalize();
    g.randomize_weights(rng);
    Tensor input(g.input_shape());
    input.randomize(rng);
    const nn::Node& node = g.node(1);
    const Shape out = node.out_shape;
    const Placed whole{Region::full(size, size), input};
    const Region full_out = Region::full(out.height, out.width);
    const Tensor d = test::direct_conv(node, whole, full_out);
    const Tensor f = test::conv(node, whole, full_out);
    ASSERT_FLOAT_EQ(Tensor::max_abs_diff(d, f), 0.0f)
        << "k=" << k << " s=" << s << " p=" << p << " size=" << size;
  }
}

}  // namespace
}  // namespace pico
