// Unit tests of the benchmark's statistics and schedules.  Self-contained
// (no test framework), so the benchmark builds wherever the library does:
//
//   python3 perfbench/run.py --tests
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <initializer_list>
#include <vector>

#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    std::printf("FAIL line %d: %s\n", line, what);
    ++failures;
  }
}

#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using namespace perfbench;

void test_quantile() {
  const std::vector<double> v{5, 1, 4, 2, 3};
  CHECK(near(quantile(v, 0.0), 1.0));
  CHECK(near(quantile(v, 0.25), 2.0));
  CHECK(near(quantile(v, 0.5), 3.0));
  CHECK(near(quantile(v, 0.9), 4.6));
  CHECK(near(quantile(v, 1.0), 5.0));
  CHECK(near(median({1, 2, 3, 4}), 2.5));
  CHECK(near(median({7}), 7.0));
}

void test_quartiles_match_python() {
  // Expected values from Python's statistics.quantiles(values, n=4).
  std::vector<double> ten;
  for (int i = 1; i <= 10; ++i) ten.push_back(i);
  auto q = quartiles(ten);
  CHECK(near(q[0], 2.75) && near(q[1], 5.5) && near(q[2], 8.25));
  q = quartiles({3, 1, 2});
  CHECK(near(q[0], 1.0) && near(q[1], 2.0) && near(q[2], 3.0));
  q = quartiles({0.5, 0.25, 4.0, 1.0, 9.0, 2.0, 7.5});
  CHECK(near(q[0], 0.5) && near(q[1], 2.0) && near(q[2], 7.5));
  q = quartiles({5, 1});
  CHECK(near(q[0], 0.0) && near(q[1], 3.0) && near(q[2], 6.0));
}

void test_samples_beyond_counts_real_samples() {
  for (const int n : {1, 2, 10, 39, 40, 99, 100, 101, 1000, 1234}) {
    std::vector<double> v;
    for (int i = 0; i < n; ++i) v.push_back(i);
    for (const double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
      const double cut = quantile(v, q);
      std::int64_t above = 0;
      for (const double x : v) above += x > cut ? 1 : 0;
      CHECK(above == samples_beyond(n, q));
    }
  }
  CHECK(samples_beyond(100, 0.9) == 10);
  CHECK(samples_beyond(90, 0.9) == 9);
  CHECK(samples_beyond(0, 0.5) == 0);
}

void test_block_tail() {
  // Three blocks of five; the middle one is an interference episode.
  const std::vector<double> v{1, 2, 3, 4, 5, 100, 200, 300, 400, 500,
                              2, 3, 4, 5, 6};
  const std::vector<std::size_t> begin{0, 5, 10};
  CHECK(near(median_block_quantile(v, begin, 0.75), 5.0));
  CHECK(near(median_block_quantile(v, begin, 0.5), 4.0));
  CHECK(block_samples_beyond(v.size(), begin, 0.75) == 3);
  // Empty blocks are skipped.
  CHECK(near(median_block_quantile(v, {0, 0, 5, 10, 15}, 0.5), 4.0));
  CHECK(block_samples_beyond(v.size(), {0, 0, 5, 10, 15}, 0.5) == 6);
}

void test_abab_order() {
  const std::vector<Block> blocks = abab_blocks(20.0, 4);
  CHECK(blocks.size() == 8);
  double total = 0.0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    CHECK(blocks[i].phase == (i % 2 == 0 ? Phase::Solo : Phase::Loaded));
    CHECK(near(blocks[i].seconds, 2.5));
    total += blocks[i].seconds;
  }
  CHECK(near(total, 20.0));
}

void test_schedule_is_deterministic() {
  const Bursts bursts{.burst_rate = 10.0, .calm_rate = 2.0, .burst_share = 0.4};
  const auto a = burst_schedule(7, bursts, 2.5, 6);
  const auto b = burst_schedule(7, bursts, 2.5, 6);
  const auto c = burst_schedule(8, bursts, 2.5, 6);
  CHECK(a == b);
  CHECK(a != c);
  for (const auto* s : {&a, &c}) {
    CHECK(s->size() == 6);
    for (const std::vector<double>& due : *s) {
      // 10/s over the first 1.0 s, 2/s over the remaining 1.5 s.
      CHECK(due.size() == 13);
      const auto in_burst = std::count_if(due.begin(), due.end(),
                                          [](double t) { return t < 1.0; });
      CHECK(in_burst == 10);
      for (std::size_t i = 0; i < due.size(); ++i) {
        CHECK(due[i] >= 0.0 && due[i] < 2.5);
        if (i > 0) CHECK(due[i] >= due[i - 1]);
      }
    }
  }
}

}  // namespace

int main() {
  test_quantile();
  test_quartiles_match_python();
  test_samples_beyond_counts_real_samples();
  test_block_tail();
  test_abab_order();
  test_schedule_is_deterministic();
  if (failures > 0) {
    std::printf("%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
