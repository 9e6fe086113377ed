#include "replay.hpp"

#include <chrono>
#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>

#include "cost/flops.hpp"
#include "nn/executor.hpp"
#include "nn/receptive.hpp"
#include "partition/plan_cost.hpp"
#include "runtime/message.hpp"
#include "runtime/transport.hpp"
#include "stats.hpp"
#include "tensor/slice.hpp"

namespace perfbench {

namespace {

using namespace pico;
using Clock = std::chrono::steady_clock;

constexpr nn::ExecOptions kOneThread{.threads = 1};
constexpr int kEchoTrips = 100;
/// Back-to-back calls per timed operation, so caches are as warm as on a
/// device that runs the same segment frame after frame.
constexpr int kRepeats = 3;

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double coefficient_of_variation(const std::vector<double>& values) {
  double mean = 0.0;
  for (const double v : values) mean += v;
  mean /= static_cast<double>(values.size());
  double var = 0.0;
  for (const double v : values) var += (v - mean) * (v - mean);
  var /= static_cast<double>(values.size());
  return mean > 0.0 ? std::sqrt(var) / mean : 0.0;
}

/// Median round trip of `message` from `near` to an echoing `far` endpoint
/// served by one helper thread.
double echo_rtt(runtime::Connection& near, runtime::Connection& far,
                const runtime::Message& message) {
  std::exception_ptr echo_error;
  std::thread echo([&far, &echo_error] {
    try {
      for (;;) {
        runtime::Message m = far.recv();
        if (m.type == runtime::MessageType::Shutdown) return;
        far.send(m);
      }
    } catch (...) {
      echo_error = std::current_exception();
    }
  });
  std::vector<double> rtt;
  try {
    for (int i = 0; i < kEchoTrips; ++i) {
      const auto start = Clock::now();
      near.send(message);
      (void)near.recv();
      rtt.push_back(since(start));
    }
    runtime::Message bye;
    bye.type = runtime::MessageType::Shutdown;
    near.send(bye);
  } catch (...) {
    near.close();
    echo.join();
    throw;
  }
  echo.join();
  if (echo_error) std::rethrow_exception(echo_error);
  return median(std::move(rtt));
}

/// Median seconds of kRepeats back-to-back calls of `fn`.
template <class Fn>
double warm_median(Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < kRepeats; ++i) {
    const auto start = Clock::now();
    fn();
    seconds.push_back(since(start));
  }
  return median(std::move(seconds));
}

/// Seconds per call of `fn`, repeated for at least 20 ms.
template <class Fn>
double per_call(Fn&& fn) {
  int calls = 0;
  const auto start = Clock::now();
  do {
    fn();
    ++calls;
  } while (since(start) < 0.02);
  return since(start) / calls;
}

}  // namespace

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size_bytes()) == 0;
}

PlanCounts plan_counts(const nn::Graph& graph,
                       const partition::Plan& plan) {
  PlanCounts counts;
  for (const partition::Stage& stage : plan.stages) {
    const int in_channels = graph.node(stage.first).in_shape.channels;
    const int out_channels = graph.node(stage.last).out_shape.channels;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      if (slice.out_region.empty()) continue;
      const Region in = nn::segment_input_region(graph, stage.first,
                                                 stage.last, slice.out_region);
      counts.bytes_per_frame += cost::region_bytes(in_channels, in) +
                                cost::region_bytes(out_channels,
                                                   slice.out_region);
      counts.messages_per_frame += 2.0;
    }
  }
  return counts;
}

ReplayRound replay_round(const nn::Graph& graph, const Cluster& cluster,
                         const partition::Plan& plan,
                         const std::vector<Tensor>& acts) {
  ReplayRound r;
  Tensor local;
  r.local_frame_s = warm_median(
      [&] { local = nn::execute(graph, acts.front(), kOneThread); });
  r.bit_exact = same_bits(local, acts.back());

  std::map<DeviceId, double> measured;
  std::map<DeviceId, double> predicted;
  runtime::Message largest;
  for (const partition::Stage& stage : plan.stages) {
    if (stage.kind != partition::StageKind::Spatial) {
      throw std::runtime_error("replay covers spatial stages only");
    }
    const Tensor& stage_in = acts[static_cast<std::size_t>(stage.first - 1)];
    const Tensor& stage_out = acts[static_cast<std::size_t>(stage.last)];
    std::vector<Placed> outputs;
    double slowest = 0.0;
    double total = 0.0;
    int devices = 0;
    for (const partition::DeviceSlice& slice : stage.assignments) {
      if (slice.out_region.empty()) continue;
      const Region in = nn::segment_input_region(graph, stage.first,
                                                 stage.last, slice.out_region);
      Tensor piece;
      r.scatter_s += warm_median([&] { piece = extract(stage_in, in); });
      if (piece.size() > largest.tensor.size()) {
        largest.type = runtime::MessageType::WorkRequest;
        largest.first_node = stage.first;
        largest.last_node = stage.last;
        largest.in_region = in;
        largest.out_region = slice.out_region;
        largest.tensor = piece;
      }

      const Placed input{in, std::move(piece)};
      Tensor out;
      const double seconds = warm_median([&] {
        out = nn::execute_segment(graph, stage.first, stage.last, input,
                                  slice.out_region, kOneThread);
      });
      r.bit_exact =
          r.bit_exact && same_bits(out, extract(stage_out, slice.out_region));
      slowest = std::max(slowest, seconds);
      total += seconds;
      ++devices;
      measured[slice.device] += seconds;
      predicted[slice.device] +=
          partition::device_compute_time(graph, cluster, stage, slice);

      const std::vector<Region> demand = nn::segment_demand(
          graph, stage.first, stage.last, slice.out_region);
      for (int id = stage.first; id <= stage.last; ++id) {
        const nn::Node& node = graph.node(id);
        const Region& need = demand[static_cast<std::size_t>(id - stage.first)];
        if (node.kind != nn::OpKind::Conv || node.win.kh != 3 ||
            node.win.kw != 3 || need.empty()) {
          continue;
        }
        const Region src = nn::input_region(graph, id, need);
        const Placed conv_in{
            src, extract(acts[static_cast<std::size_t>(node.inputs[0])], src)};
        Tensor conv_out;
        r.conv3x3_s += warm_median([&] {
          conv_out = nn::compute_node(
              node, std::span<const Placed>(&conv_in, 1), need, kOneThread);
        });
        r.conv3x3_flops += cost::node_flops(graph, id, need);
        r.bit_exact =
            r.bit_exact &&
            same_bits(conv_out,
                      extract(acts[static_cast<std::size_t>(id)], need));
      }
      outputs.push_back(Placed{slice.out_region, std::move(out)});
    }
    Tensor stitched;
    r.gather_s +=
        warm_median([&] { stitched = stitch(stage_out.shape(), outputs); });
    r.bit_exact = r.bit_exact && same_bits(stitched, stage_out);

    r.critical_path_s += slowest;
    r.stage_period_s = std::max(r.stage_period_s, slowest);
    if (devices > 1) {
      r.stage_imbalance =
          std::max(r.stage_imbalance, slowest / (total / devices));
    }
  }
  if (r.stage_imbalance == 0.0) r.stage_imbalance = 1.0;

  std::vector<double> ratios;
  for (const auto& [device, seconds] : measured) {
    ratios.push_back(seconds / predicted.at(device));
  }
  r.eq5_ratio_cv = coefficient_of_variation(ratios);

  std::vector<std::uint8_t> wire;
  const double serialize_s =
      per_call([&] { wire = runtime::serialize(largest); });
  const double deserialize_s = per_call(
      [&] { (void)runtime::deserialize(wire.data(), wire.size()); });
  const auto bytes = static_cast<double>(wire.size());
  r.serialize_gbps = bytes / serialize_s / 1e9;
  r.deserialize_gbps = bytes / deserialize_s / 1e9;

  auto [inproc_near, inproc_far] = runtime::make_inproc_pair();
  r.inproc_rtt_s = echo_rtt(*inproc_near, *inproc_far, largest);
  runtime::TcpListener listener;
  const std::unique_ptr<runtime::Connection> tcp_near =
      runtime::tcp_connect(listener.port());
  const std::unique_ptr<runtime::Connection> tcp_far = listener.accept();
  r.tcp_rtt_s = echo_rtt(*tcp_near, *tcp_far, largest);
  tcp_near->close();
  tcp_far->close();
  return r;
}

}  // namespace perfbench
