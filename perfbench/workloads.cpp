#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <dirent.h>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <ostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "adaptive/selector.hpp"
#include "core/planner.hpp"
#include "models/zoo.hpp"
#include "nn/executor.hpp"
#include "obs/metrics.hpp"
#include "replay.hpp"
#include "runtime/adaptive_runtime.hpp"
#include "runtime/pipeline.hpp"
#include "stats.hpp"

namespace perfbench {

namespace {

using namespace pico;
using Clock = std::chrono::steady_clock;

struct Spec {
  const char* name;
  models::ModelId model;
  int input_size;
  /// false: one PipelineRuntime on `scheme`, loaded phase = saturating
  /// closed loop.  true: AdaptiveRuntime over OFL and PICO, loaded phase =
  /// open-loop bursts (kBursty).
  bool adaptive;
  /// The closed-loop plan.  Adaptive: the light-load plan its paced solo
  /// phase runs on, which the traced run replays.
  Scheme scheme;
  runtime::TransportKind transport;
  int distinct_inputs;  ///< frames rotate through this many inputs
  int setup_rebuilds;   ///< setup_s is the median of this many
  double solo_tail_q;   ///< fixed tail quantiles: ≥ 10 samples beyond at
  double loaded_tail_q; ///< the frame counts README.md records
  double deadline_s;    ///< ontime_frac limit for loaded-phase frames
  /// Solo phase: least time between submits (0 = back to back).  The
  /// adaptive workload paces its solo camera at one frame per APICO
  /// window.  AdaptiveRuntime counts arrivals over whole windows, so λ̂
  /// then falls towards 2 frames/s, below the OFL/PICO crossover, and the
  /// solo phase runs mostly on the light-load plan.  (At 0.4 s it counted
  /// two frames in every other window, λ̂ settled at 4 and stayed on PICO.)
  double solo_pace_s;
};

constexpr Spec kSpecs[] = {
    {"toy-pico", models::ModelId::ToyMnist, 32, false, Scheme::Pico,
     runtime::TransportKind::InProcess, 4, 15, 0.98, 0.99, 0.25, 0.0},
    {"toy-lw-tcp", models::ModelId::ToyMnist, 16, false, Scheme::LayerWise,
     runtime::TransportKind::Tcp, 8, 21, 0.95, 0.95, 0.25, 0.0},
    {"toy-apico-bursty", models::ModelId::ToyMnist, 44, true,
     Scheme::OptimalFused,
     runtime::TransportKind::InProcess, 8, 9, 0.75, 0.9, 1.0, 0.5},
};

/// One device of each Table I class (single-core Raspberry-Pi 4B at the
/// listed frequency).
const std::vector<double> kFrequenciesGhz{1.2, 0.8, 0.6};

/// The bursty workload's offered load.  Every loaded block opens with a
/// 12 frames/s burst for 40 % of its length and runs at 2 frames/s for the
/// rest.  The model's OFL/PICO crossover at 44x44 is λ ≈ 3.75 frames/s, so
/// APICO moves to PICO in the burst and back to OFL in the calm part: two
/// switches per block for every seed.  Frames come at a fixed rate, so a
/// burst frame (one per 83 ms) does not queue behind OFL's ~40 ms service
/// even when the host runs slow.
constexpr Bursts kBursty{.burst_rate = 12.0,
                         .calm_rate = 2.0,
                         .burst_share = 0.4};
constexpr double kApicoWindowS = 0.5;
constexpr double kApicoBeta = 0.5;
constexpr int kHarvestMs = 200;

constexpr int kPairs = 6;            ///< ABAB pairs in the measured time
constexpr double kWarmupS = 0.5;     ///< per phase, before timing
constexpr double kTracedShare = 0.6; ///< traced run: phases vs replay

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double since(Clock::time_point start) {
  return seconds_between(start, Clock::now());
}

/// Everything derived from the seed: weights, input frames, and their
/// single-device reference outputs.
struct Model {
  nn::Graph graph;
  Cluster cluster = Cluster::raspberry_pi(kFrequenciesGhz);
  NetworkModel network;
  partition::Plan plan;  ///< the workload's (replayed) plan
  std::vector<Tensor> inputs;
  std::vector<Tensor> refs;

  const Tensor& input(std::size_t frame) const {
    return inputs[frame % inputs.size()];
  }
  bool matches(std::size_t frame, const Tensor& out) const {
    return same_bits(out, refs[frame % refs.size()]);
  }
};

void build_model(const Spec& spec, std::uint64_t seed, Model& m) {
  m.graph = models::build(spec.model, {.input_size = spec.input_size});
  Rng rng(seed);
  m.graph.randomize_weights(rng);
  for (int i = 0; i < spec.distinct_inputs; ++i) {
    Tensor input(m.graph.input_shape());
    input.randomize(rng);
    m.refs.push_back(nn::execute(m.graph, input, {.threads = 1}));
    m.inputs.push_back(std::move(input));
  }
  m.plan = pico::plan(m.graph, m.cluster, m.network, spec.scheme);
}

/// The runtime a workload drives: one PipelineRuntime, or an
/// AdaptiveRuntime switching between OFL and PICO.
struct Deployment {
  std::unique_ptr<runtime::PipelineRuntime> pipeline;
  std::unique_ptr<runtime::AdaptiveRuntime> adaptive;

  std::future<Tensor> submit(Tensor input) {
    return adaptive ? adaptive->submit(std::move(input))
                    : pipeline->submit(std::move(input));
  }
  int switches() const { return adaptive ? adaptive->switches() : 0; }
  bool harvest_now() {
    return adaptive ? adaptive->harvest_now() : pipeline->harvest_now();
  }
  void shutdown() {
    if (adaptive) adaptive->shutdown();
    if (pipeline) pipeline->shutdown();
  }
};

/// Plan(s) plus runtime construction — the set-up a user pays before the
/// first frame.
Deployment deploy(const Spec& spec, const Model& m, std::size_t window) {
  runtime::RuntimeOptions options;
  options.transport = spec.transport;
  // A closed loop keeps `window` frames outstanding; the entry queue holds
  // them all, so the benchmark thread never blocks inside submit().
  options.queue_capacity = std::max(options.queue_capacity, window);
  Deployment d;
  if (spec.adaptive) {
    options.harvest_ms = kHarvestMs;
    std::vector<adaptive::Candidate> candidates;
    for (const Scheme scheme : {Scheme::OptimalFused, Scheme::Pico}) {
      candidates.push_back(adaptive::make_candidate(
          m.graph, m.cluster, m.network,
          pico::plan(m.graph, m.cluster, m.network, scheme)));
    }
    runtime::AdaptiveRuntimeOptions adaptive_options;
    adaptive_options.beta = kApicoBeta;
    adaptive_options.window = kApicoWindowS;
    adaptive_options.runtime = options;
    d.adaptive = std::make_unique<runtime::AdaptiveRuntime>(
        m.graph, std::move(candidates), adaptive_options);
  } else {
    d.pipeline = std::make_unique<runtime::PipelineRuntime>(
        m.graph, pico::plan(m.graph, m.cluster, m.network, spec.scheme),
        options);
  }
  return d;
}

/// One phase's accounting across its blocks.
struct PhaseLog {
  std::vector<double> latency;   ///< completed, bit-exact frames
  std::vector<std::size_t> block_begin;  ///< latency index of each block
  std::vector<double> gaps;      ///< inter-completion intervals, window full
  std::vector<double> submit_s;  ///< time inside submit() (traced)
  std::vector<double> switch_s;  ///< submit() calls that switched plan
  std::vector<double> lag;       ///< open loop: submit start − due time
  std::int64_t sent = 0;
  std::int64_t ok = 0;
  std::int64_t failed = 0;
  std::int64_t mismatched = 0;
  std::int64_t timed = 0;    ///< frames eligible for ontime_frac
  std::int64_t on_time = 0;  ///< of those: bit-exact within the deadline
  /// Open loop: scheduled block time, stretched when the last frame
  /// completes after the block's end.
  double busy_s = 0.0;

  void count(bool threw, bool exact) {
    if (!threw && exact) {
      ++ok;
    } else {
      ++failed;
      if (!threw) ++mismatched;
    }
  }
};

/// Closed loop keeping `window` frames outstanding for `seconds`, then
/// draining.  With window > 1, frames submitted before the block's first
/// completion fill the pipeline and are left out of latency and ontime;
/// inter-completion gaps are kept up to the block's end.
void closed_loop(Deployment& d, const Model& m, std::size_t& next,
                 std::size_t window, double seconds, double deadline,
                 bool traced, PhaseLog& log, double pace_s = 0.0) {
  struct Pending {
    std::future<Tensor> result;
    Clock::time_point submitted;
    std::size_t frame = 0;
    bool steady = false;
  };
  std::deque<Pending> outstanding;
  const auto end = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(seconds));
  const auto pace = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(pace_s));
  std::int64_t completions = 0;
  Clock::time_point last_done{};
  Clock::time_point last_submit{};
  for (;;) {
    while (outstanding.size() < window && Clock::now() < end) {
      if (pace_s > 0.0) std::this_thread::sleep_until(last_submit + pace);
      Pending p;
      p.frame = next++;
      p.steady = window == 1 || completions > 0;
      const int switches_before = traced ? d.switches() : 0;
      p.submitted = Clock::now();
      last_submit = p.submitted;
      ++log.sent;
      if (p.steady) ++log.timed;
      try {
        p.result = d.submit(Tensor(m.input(p.frame)));
      } catch (const std::exception&) {
        log.count(true, false);
        continue;
      }
      if (traced) {
        const double in_submit = since(p.submitted);
        log.submit_s.push_back(in_submit);
        if (d.switches() != switches_before) log.switch_s.push_back(in_submit);
      }
      outstanding.push_back(std::move(p));
    }
    if (outstanding.empty()) break;
    Pending p = std::move(outstanding.front());
    outstanding.pop_front();
    bool threw = false;
    bool exact = false;
    try {
      exact = m.matches(p.frame, p.result.get());
    } catch (const std::exception&) {
      threw = true;
    }
    const auto done = Clock::now();
    log.count(threw, exact);
    ++completions;
    if (window > 1 && completions >= 2 && done <= end) {
      log.gaps.push_back(seconds_between(last_done, done));
    }
    last_done = done;
    if (!p.steady || threw || !exact) continue;
    const double latency = seconds_between(p.submitted, done);
    log.latency.push_back(latency);
    if (latency <= deadline) ++log.on_time;
  }
}

/// Open loop: the calling thread submits each frame at its due time (an
/// offset from the block start), one collector thread waits for the
/// results in order.  Latency runs from the due time, so a stalled submit
/// charges its wait to every frame behind it.
void open_loop(Deployment& d, const Model& m, std::size_t& next,
               const std::vector<double>& due, double block_s, double deadline,
               bool traced, PhaseLog& log) {
  struct Pending {
    std::future<Tensor> result;
    Clock::time_point due;
    std::size_t frame = 0;
    bool submitted = false;
  };
  std::mutex mutex;
  std::condition_variable ready;
  std::deque<Pending> queue;  // guarded by mutex
  bool finished = false;      // guarded by mutex
  const auto start = Clock::now();
  Clock::time_point last_done = start;

  // The collector owns latency/ok/failed/on_time; the generator owns
  // sent/lag/submit_s/switch_s — disjoint fields, joined before use.
  std::thread collector([&] {
    for (;;) {
      Pending p;
      {
        std::unique_lock lock(mutex);
        ready.wait(lock, [&] { return !queue.empty() || finished; });
        if (queue.empty()) return;
        p = std::move(queue.front());
        queue.pop_front();
      }
      bool threw = !p.submitted;
      bool exact = false;
      if (p.submitted) {
        try {
          exact = m.matches(p.frame, p.result.get());
        } catch (const std::exception&) {
          threw = true;
        }
      }
      const auto done = Clock::now();
      log.count(threw, exact);
      last_done = done;
      if (threw || !exact) continue;
      const double latency = seconds_between(p.due, done);
      log.latency.push_back(latency);
      if (latency <= deadline) ++log.on_time;
    }
  });
  const auto stop_collector = [&] {
    {
      std::lock_guard lock(mutex);
      finished = true;
    }
    ready.notify_one();
    collector.join();
  };
  try {
    for (const double offset : due) {
      Pending p;
      p.frame = next++;
      p.due = start + std::chrono::duration_cast<Clock::duration>(
                          std::chrono::duration<double>(offset));
      std::this_thread::sleep_until(p.due);
      const int switches_before = d.switches();
      const auto submit_start = Clock::now();
      log.lag.push_back(seconds_between(p.due, submit_start));
      ++log.sent;
      ++log.timed;
      try {
        p.result = d.submit(Tensor(m.input(p.frame)));
        p.submitted = true;
      } catch (const std::exception&) {
      }
      if (traced) {
        const double in_submit = since(submit_start);
        log.submit_s.push_back(in_submit);
        if (d.switches() != switches_before) log.switch_s.push_back(in_submit);
      }
      {
        std::lock_guard lock(mutex);
        queue.push_back(std::move(p));
      }
      ready.notify_one();
    }
  } catch (...) {
    stop_collector();
    throw;
  }
  stop_collector();
  log.busy_s += std::max(block_s, seconds_between(start, last_done));
}

/// A fixed benchmark-owned integer loop, timed between blocks.  A
/// diagnostic of host speed only: it does not track the program's own
/// slowdowns closely enough to normalise by.
volatile std::uint64_t host_ref_sink = 0;

double host_ref_seconds() {
  const auto start = Clock::now();
  std::uint64_t x = 88172645463325252ull;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  host_ref_sink = x;
  return since(start);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Threads of this process whose name starts with `prefix`.
int threads_named(const std::string& prefix) {
  int count = 0;
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] == '.') continue;
    std::ifstream comm(std::string("/proc/self/task/") + entry->d_name +
                       "/comm");
    std::string name;
    if (std::getline(comm, name) && name.rfind(prefix, 0) == 0) ++count;
  }
  closedir(dir);
  return count;
}

std::int64_t harvest_rounds_total() {
  return obs::Registry::global().counter("pico_harvest_rounds_total").value();
}

void report_phase(std::ostream& out, const char* name, const PhaseLog& log,
                  double tail_q) {
  out << "phase " << name << ": sent " << log.sent << " ok " << log.ok
      << " failed " << log.failed;
  if (log.latency.size() >= 2) {
    const auto q = quartiles(log.latency);
    const std::int64_t beyond =
        block_samples_beyond(log.latency.size(), log.block_begin, tail_q);
    out << "; latency n=" << log.latency.size() << " q1/q2/q3 " << q[0]
        << "/" << q[1] << "/" << q[2] << " s; block-median p90/p95/p99 "
        << median_block_quantile(log.latency, log.block_begin, 0.9) << "/"
        << median_block_quantile(log.latency, log.block_begin, 0.95) << "/"
        << median_block_quantile(log.latency, log.block_begin, 0.99)
        << " s; tail p" << tail_q * 100 << " has " << beyond
        << " samples beyond its block cuts";
    if (beyond < 10) out << " (WARNING: fewer than 10)";
  }
  if (log.gaps.size() >= 2) {
    const auto g = quartiles(log.gaps);
    out << "; completion gap n=" << log.gaps.size() << " q1/q2/q3 " << g[0]
        << "/" << g[1] << "/" << g[2] << " s";
  }
  out << "\n";
}

}  // namespace

std::vector<std::string> workload_names() {
  std::vector<std::string> names;
  for (const Spec& spec : kSpecs) names.emplace_back(spec.name);
  return names;
}

RunResult run_workload(const std::string& name, const RunOptions& options,
                       std::ostream& report) {
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (name == s.name) spec = &s;
  }
  if (spec == nullptr) throw std::invalid_argument("unknown workload " + name);

  Model m;
  build_model(*spec, options.seed, m);
  const std::size_t window =
      spec->adaptive ? 1 : static_cast<std::size_t>(m.plan.stage_count()) + 1;
  report << "workload " << spec->name << " seed " << options.seed << ": plan "
         << m.plan.scheme << " with " << m.plan.stage_count()
         << " stage(s), loaded window " << window << "\n";

  RunResult result;
  // Set-up: plan(s), runtime construction and the cold first frame,
  // verified; the median of several rebuilds, the last one kept.
  std::vector<double> setup;
  Deployment d;
  Tensor first_out;
  for (int i = 0; i < spec->setup_rebuilds; ++i) {
    d = {};  // the previous runtime stops before the next one starts
    const auto start = Clock::now();
    d = deploy(*spec, m, window);
    first_out = d.submit(Tensor(m.input(0))).get();
    setup.push_back(since(start));
    result.correct = result.correct && m.matches(0, first_out);
  }
  report << "setup_s samples:";
  for (const double s : setup) report << " " << s;
  report << "\n";

  // Self-check: the comparison must reject a reference one value off.
  Tensor corrupted = m.refs[0];
  corrupted.data()[static_cast<std::size_t>(corrupted.size() / 2)] += 1.0f;
  const bool check_fires = !same_bits(first_out, corrupted);
  report << "self-check: corrupted reference "
         << (check_fires ? "rejected" : "ACCEPTED") << "\n";
  result.correct = result.correct && check_fires;

  // Warm-up, then the measured ABAB blocks.
  std::size_t next = 1;
  PhaseLog warm;
  closed_loop(d, m, next, 1, kWarmupS, spec->deadline_s, false, warm,
              spec->solo_pace_s);
  if (!spec->adaptive) {
    closed_loop(d, m, next, window, kWarmupS, spec->deadline_s, false, warm);
  }
  const int pool_threads = threads_named("pico-pool");
  const int worker_threads = threads_named("pico-wrk");
  report << "threads: " << worker_threads << " device worker(s), "
         << pool_threads << " kernel pool thread(s)\n";
  if (pool_threads > 0 || worker_threads > 3) {
    throw std::runtime_error("more compute threads than devices: is "
                             "PICO_THREADS=1 honoured?");
  }

  const double measured_s =
      options.trace ? kTracedShare * options.seconds : options.seconds;
  const std::vector<Block> blocks = abab_blocks(measured_s, kPairs);
  std::vector<std::vector<double>> schedule;
  if (spec->adaptive) {
    schedule =
        burst_schedule(options.seed, kBursty, blocks[1].seconds, kPairs);
  }
  PhaseLog solo;
  PhaseLog plain_solo;  // traced run: solo blocks without submit timing
  PhaseLog loaded;
  std::vector<double> host_ref;
  std::vector<double> harvest_round_s;
  const std::int64_t rounds_before = harvest_rounds_total();
  const int switches_before = d.switches();
  std::size_t loaded_blocks = 0;
  int solo_blocks = 0;
  for (const Block& block : blocks) {
    host_ref.push_back(host_ref_seconds());
    if (options.trace) {
      const auto start = Clock::now();
      if (d.harvest_now()) harvest_round_s.push_back(since(start));
    }
    if (block.phase == Phase::Solo) {
      // The traced run alternates plain and timed solo blocks; the
      // difference is the tracing overhead.
      const bool timed = options.trace && solo_blocks++ % 2 == 1;
      PhaseLog& log = options.trace && !timed ? plain_solo : solo;
      log.block_begin.push_back(log.latency.size());
      closed_loop(d, m, next, 1, block.seconds, spec->deadline_s, timed, log,
                  spec->solo_pace_s);
    } else if (spec->adaptive) {
      loaded.block_begin.push_back(loaded.latency.size());
      open_loop(d, m, next, schedule[loaded_blocks++], block.seconds,
                spec->deadline_s, options.trace, loaded);
    } else {
      loaded.block_begin.push_back(loaded.latency.size());
      closed_loop(d, m, next, window, block.seconds, spec->deadline_s,
                  options.trace, loaded);
    }
  }
  const int switches = d.switches() - switches_before;
  if (d.adaptive) {
    report << "scheme history:";
    for (const auto& h : d.adaptive->scheme_history()) report << " " << h;
    report << " lambda_hat " << d.adaptive->estimated_rate() << "\n";
  }
  d.shutdown();
  const auto harvest_rounds = harvest_rounds_total() - rounds_before;

  report_phase(report, "solo", solo, spec->solo_tail_q);
  if (options.trace) report_phase(report, "solo-plain", plain_solo, 0.5);
  report_phase(report, "loaded", loaded, spec->loaded_tail_q);
  report << "plan switches " << switches << "; host_ref_s per block:";
  for (const double s : host_ref) report << " " << s;
  report << "\n";

  for (const PhaseLog* log : {&solo, &plain_solo, &loaded}) {
    result.attempted += log->sent;
    result.failed += log->failed;
    result.correct = result.correct && log->mismatched == 0;
  }
  if (solo.latency.empty() || loaded.latency.empty() ||
      (options.trace && plain_solo.latency.empty())) {
    throw std::runtime_error("a phase completed no frame");
  }
  const double solo_p50 = median(solo.latency);
  const double loaded_p50 = median(loaded.latency);
  auto& out = result.metrics;

  if (!options.trace) {
    // Closed loop: frames per second while the window is full, as a mean
    // over the gaps (count / time).  The host has fast and slow regimes of
    // a second or more in which the gaps differ by up to 1.6x; a median
    // jumps between the two, a mean moves with their mix.
    double gap_sum = 0.0;
    for (const double g : loaded.gaps) gap_sum += g;
    const double throughput =
        spec->adaptive ? static_cast<double>(loaded.latency.size()) /
                             loaded.busy_s
                       : static_cast<double>(loaded.gaps.size()) / gap_sum;
    out.push_back({"solo_latency_p50_s", solo_p50, "s"});
    out.push_back({"solo_latency_tail_s",
                   median_block_quantile(solo.latency, solo.block_begin,
                                         spec->solo_tail_q),
                   "s"});
    out.push_back({"throughput_fps", throughput, "1/s"});
    out.push_back({"latency_p50_s", loaded_p50, "s"});
    out.push_back({"latency_tail_s",
                   median_block_quantile(loaded.latency, loaded.block_begin,
                                         spec->loaded_tail_q),
                   "s"});
    out.push_back({"ontime_frac",
                   static_cast<double>(loaded.on_time) /
                       static_cast<double>(std::max<std::int64_t>(1, loaded.timed)),
                   "ratio"});
    out.push_back({"setup_s", median(setup), "s"});
    out.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    return result;
  }

  // Traced run: replay the plan layer by layer for the remaining time.
  const std::vector<Tensor> acts =
      nn::execute_all(m.graph, m.inputs[0], {.threads = 1});
  std::vector<ReplayRound> rounds;
  std::vector<double> plan_s;
  const auto replay_start = Clock::now();
  const double replay_budget = options.seconds - measured_s;
  do {
    for (int i = 0; i < 3; ++i) {
      const auto start = Clock::now();
      (void)pico::plan(m.graph, m.cluster, m.network, spec->scheme);
      plan_s.push_back(since(start));
    }
    rounds.push_back(replay_round(m.graph, m.cluster, m.plan, acts));
    result.correct = result.correct && rounds.back().bit_exact;
  } while (since(replay_start) < replay_budget);
  const auto med = [&rounds](double ReplayRound::*field) {
    std::vector<double> values;
    for (const ReplayRound& r : rounds) values.push_back(r.*field);
    return median(std::move(values));
  };
  const double scatter = med(&ReplayRound::scatter_s);
  const double gather = med(&ReplayRound::gather_s);
  const double critical = med(&ReplayRound::critical_path_s);
  const double overhead = solo_p50 - (scatter + critical + gather);
  report << "budget " << spec->name << ": scatter " << scatter
         << " s + critical-path compute " << critical << " s + gather "
         << gather << " s + residual (runtime.overhead_s) " << overhead
         << " s = solo_latency_p50_s " << solo_p50 << " s (traced run)\n";

  std::vector<double> conv_rates;
  for (const ReplayRound& r : rounds) {
    conv_rates.push_back(r.conv3x3_flops / r.conv3x3_s / 1e9);
  }
  const PlanCounts counts = plan_counts(m.graph, m.plan);
  out.push_back({"nn.conv3x3.gflops", median(conv_rates), "GFLOP/s"});
  out.push_back({"nn.critical_path_s", critical, "s"});
  out.push_back({"nn.stage_period_s", med(&ReplayRound::stage_period_s), "s"});
  out.push_back({"nn.local_frame_s", med(&ReplayRound::local_frame_s), "s"});
  out.push_back({"tensor.scatter_s", scatter, "s"});
  out.push_back({"tensor.gather_s", gather, "s"});
  out.push_back({"tensor.bytes_per_frame", counts.bytes_per_frame, "bytes"});
  out.push_back({"partition.plan_s", median(plan_s), "s"});
  out.push_back({"partition.redundancy",
                 partition::plan_redundancy_ratio(m.graph, m.plan), "ratio"});
  out.push_back({"partition.stage_imbalance",
                 med(&ReplayRound::stage_imbalance), "ratio"});
  out.push_back({"cost.eq5_ratio_cv", med(&ReplayRound::eq5_ratio_cv),
                 "ratio"});
  out.push_back({"runtime.message.serialize_gbps",
                 med(&ReplayRound::serialize_gbps), "GB/s"});
  out.push_back({"runtime.message.deserialize_gbps",
                 med(&ReplayRound::deserialize_gbps), "GB/s"});
  out.push_back({"runtime.transport.tcp_rtt_s", med(&ReplayRound::tcp_rtt_s),
                 "s"});
  out.push_back({"runtime.transport.inproc_rtt_s",
                 med(&ReplayRound::inproc_rtt_s), "s"});
  out.push_back({"runtime.messages_per_frame", counts.messages_per_frame,
                 "count"});
  out.push_back({"runtime.overhead_s", overhead, "s"});
  std::vector<double> submits = solo.submit_s;
  submits.insert(submits.end(), loaded.submit_s.begin(),
                 loaded.submit_s.end());
  out.push_back({"runtime.submit_s", median(submits), "s"});
  out.push_back({"runtime.queue_wait_s", loaded_p50 - solo_p50, "s"});
  out.push_back({"runtime.adaptive.switches", static_cast<double>(switches),
                 "count"});
  std::vector<double> switch_s = loaded.switch_s;
  switch_s.insert(switch_s.end(), solo.switch_s.begin(), solo.switch_s.end());
  out.push_back({"runtime.adaptive.switch_s",
                 switch_s.empty() ? 0.0 : median(switch_s), "s"});
  out.push_back({"obs.harvest_round_s",
                 harvest_round_s.empty() ? 0.0 : median(harvest_round_s),
                 "s"});
  out.push_back({"obs.harvest_rounds", static_cast<double>(harvest_rounds),
                 "count"});
  out.push_back({"bench.trace_overhead",
                 solo_p50 / median(plain_solo.latency) - 1.0, "ratio"});
  out.push_back({"bench.gen_lag_p99_s",
                 loaded.lag.empty() ? 0.0 : quantile(loaded.lag, 0.99), "s"});
  out.push_back({"bench.host_ref_s", median(host_ref), "s"});
  out.push_back({"bench.sent", static_cast<double>(result.attempted),
                 "count"});
  out.push_back({"bench.ok",
                 static_cast<double>(solo.ok + plain_solo.ok + loaded.ok),
                 "count"});
  out.push_back({"bench.failed", static_cast<double>(result.failed),
                 "count"});
  return result;
}

}  // namespace perfbench
