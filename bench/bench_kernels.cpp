// Intra-device kernel scaling: wall time of a VGG-scale conv layer versus
// the ExecOptions thread count, against the single-threaded baseline.
//
// The paper's capacity term ϑ(d_k) (Eq. 5) describes a quad-core device
// running all cores; this bench records the speedup the thread-pooled
// kernels actually deliver, plus a bit-identity check that parallelism
// never changes arithmetic.  CI gates on speedup_t4 >= 2 in
// BENCH_kernels.json.  The record also carries the GEMM variant the host
// dispatched to (params.gemm_isa), the single-thread rate (gflops_t1) and
// the single-device, single-thread frame time of the toy model at 32x32
// (toy32_frame_s), the workload whose latency the kernels set.
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "cost/flops.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "nn/gemm.hpp"

namespace {

using namespace pico;

double time_execute(const nn::Graph& graph, const Tensor& input,
                    const nn::ExecOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  const Tensor out = nn::execute(graph, input, options);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  return out.size() > 0 ? elapsed : -1.0;
}

}  // namespace

int main() {
  using namespace pico;
  bench::BenchJson json("kernels");

  // VGG-16's conv2-block shape: 64 -> 64 channels, 3x3, on a 112x112 map.
  nn::Graph graph;
  const int in = graph.add_input({64, 112, 112});
  graph.add_conv(in, 64, 3, 1, 1);
  graph.finalize();
  Rng rng(7);
  graph.randomize_weights(rng);
  Tensor input(graph.input_shape());
  input.randomize(rng);

  const double gflop = cost::model_flops(graph) / 1e9;
  json.param("layer", "conv3x3_64to64_112");
  json.param("gflop", gflop);
  json.param("hardware_parallelism",
             static_cast<double>(ThreadPool::default_parallelism()));
  json.param("gemm_isa", nn::gemm_dispatch().isa);

  constexpr int kRepeats = 5;
  const std::vector<int> thread_counts{1, 2, 4};
  const Tensor reference = nn::execute(graph, input, {.threads = 1});

  bench::print_header("Kernel scaling — conv 64->64 3x3 @ 112x112 (" +
                      bench::fmt(gflop, 2) + " GFLOP)");
  bench::print_row({"threads", "best_s", "GFLOP/s", "speedup", "max|diff|"});

  std::vector<double> best(thread_counts.size(),
                           std::numeric_limits<double>::infinity());
  for (std::size_t t = 0; t < thread_counts.size(); ++t) {
    const nn::ExecOptions options{.threads = thread_counts[t]};
    const Tensor out = nn::execute(graph, input, options);  // warm-up
    const float diff = Tensor::max_abs_diff(out, reference);
    for (int repeat = 0; repeat < kRepeats; ++repeat) {
      const double elapsed = time_execute(graph, input, options);
      json.sample("conv_seconds_t" + std::to_string(thread_counts[t]),
                  elapsed);
      best[t] = std::min(best[t], elapsed);
    }
    const double speedup = best[0] / best[t];
    if (thread_counts[t] > 1) {
      json.sample("speedup_t" + std::to_string(thread_counts[t]), speedup);
    }
    if (thread_counts[t] == 1) json.sample("gflops_t1", gflop / best[t]);
    json.sample("bit_identical", diff == 0.0f ? 1.0 : 0.0);
    bench::print_row({std::to_string(thread_counts[t]),
                      bench::fmt(best[t], 4), bench::fmt(gflop / best[t], 2),
                      bench::fmt(speedup, 2), bench::fmt(diff, 1)});
  }
  std::printf("GEMM variant: %s\n", nn::gemm_dispatch().isa);

  // Single-device frame of the toy model at 32x32, one thread.
  nn::Graph toy = models::toy_mnist({.input_size = 32});
  toy.randomize_weights(rng);
  Tensor toy_input(toy.input_shape());
  toy_input.randomize(rng);
  const nn::ExecOptions one_thread{.threads = 1};
  time_execute(toy, toy_input, one_thread);  // warm-up
  constexpr int kToyRepeats = 50;
  std::vector<double> toy_seconds;
  for (int repeat = 0; repeat < kToyRepeats; ++repeat) {
    toy_seconds.push_back(time_execute(toy, toy_input, one_thread));
    json.sample("toy32_frame_s", toy_seconds.back());
  }
  std::printf("toy@32 single-device frame (1 thread): p50 %s ms\n",
              bench::fmt(percentile(toy_seconds, 0.5) * 1e3, 3).c_str());
  return 0;
}
