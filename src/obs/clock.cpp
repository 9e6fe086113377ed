#include "obs/clock.hpp"

#include <atomic>

#include "obs/trace.hpp"

namespace pico::obs {

void ClockOffsetEstimator::update(const ClockSample& sample) {
  if (!sample.plausible()) {
    MutexLock lock(mutex_);
    ++samples_;
    return;
  }
  const std::int64_t rtt = sample.rtt_ns();
  const auto offset = static_cast<double>(sample.offset_ns());
  MutexLock lock(mutex_);
  ++samples_;
  if (accepted_ == 0 ||
      static_cast<double>(rtt) * options_.rtt_gate <
          static_cast<double>(min_rtt_ns_)) {
    // The first plausible sample seeds everything.  So does one whose RTT
    // is more than the gate below every earlier sample: by the gate's own
    // rule all of those are untrusted next to it, and an offset seeded
    // from a congested, asymmetric round trip would otherwise decay only
    // by (1 - alpha) per later sample.
    ++accepted_;
    offset_ns_ = offset;
    rtt_ns_ = static_cast<double>(rtt);
    min_rtt_ns_ = rtt;
    return;
  }
  if (rtt < min_rtt_ns_) min_rtt_ns_ = rtt;
  const auto gate = static_cast<double>(min_rtt_ns_) * options_.rtt_gate;
  if (static_cast<double>(rtt) > gate) return;  // jittery: offset untrusted
  ++accepted_;
  offset_ns_ += options_.alpha * (offset - offset_ns_);
  rtt_ns_ += options_.alpha * (static_cast<double>(rtt) - rtt_ns_);
}

bool ClockOffsetEstimator::valid() const {
  MutexLock lock(mutex_);
  return accepted_ > 0;
}

std::int64_t ClockOffsetEstimator::offset_ns() const {
  MutexLock lock(mutex_);
  return static_cast<std::int64_t>(offset_ns_);
}

std::int64_t ClockOffsetEstimator::rtt_ns() const {
  MutexLock lock(mutex_);
  return static_cast<std::int64_t>(rtt_ns_);
}

std::int64_t ClockOffsetEstimator::min_rtt_ns() const {
  MutexLock lock(mutex_);
  return min_rtt_ns_;
}

std::int64_t ClockOffsetEstimator::error_bound_ns() const {
  MutexLock lock(mutex_);
  return min_rtt_ns_ / 2;
}

int ClockOffsetEstimator::samples() const {
  MutexLock lock(mutex_);
  return samples_;
}

int ClockOffsetEstimator::accepted() const {
  MutexLock lock(mutex_);
  return accepted_;
}

namespace {
std::atomic<std::int64_t> g_debug_skew_ns{0};
}  // namespace

void set_debug_clock_skew_ns(std::int64_t skew_ns) {
  g_debug_skew_ns.store(skew_ns, std::memory_order_relaxed);
}

std::int64_t debug_clock_skew_ns() {
  return g_debug_skew_ns.load(std::memory_order_relaxed);
}

std::int64_t worker_now_ns() {
  return Tracer::now_ns() + debug_clock_skew_ns();
}

}  // namespace pico::obs
