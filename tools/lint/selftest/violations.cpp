// Planted lint violations for `ace_lint.py --self-test`. Every marked
// line must be flagged with exactly the rule named in its marker;
// anything else flagged is a false positive. This file is a fixture — it
// is never compiled.
#include <chrono>
#include <cstdio>
#include <iostream>
#include <mutex>
#include <random>

namespace fixture {

std::mutex g_mutex;  // expect(raw-mutex)

void locks() {
  const std::lock_guard<std::mutex> lock(g_mutex);  // expect(raw-mutex)
  std::unique_lock<std::mutex> relock(g_mutex);     // expect(raw-mutex)
}

bool float_compares(double x, float y) {
  if (x == 0.0) return true;        // expect(float-equality)
  if (y != 1.5f) return false;      // expect(float-equality)
  if (0.25 == x) return true;       // expect(float-equality)
  return x == 1e-9;                 // expect(float-equality)
}

void rngs() {
  std::random_device rd;            // expect(unseeded-rng)
  std::mt19937 gen;                 // expect(unseeded-rng)
  std::mt19937_64 gen64;            // expect(unseeded-rng)
  std::default_random_engine eng;   // expect(unseeded-rng)
  srand(42);                        // expect(unseeded-rng)
  const int r = rand();             // expect(unseeded-rng)
  (void)rd; (void)gen; (void)gen64; (void)eng; (void)r;
}

void logging(int value) {
  std::cout << "value = " << value << '\n';  // expect(iostream-logging)
  std::cerr << "oops\n";                     // expect(iostream-logging)
  printf("%d\n", value);                     // expect(iostream-logging)
}

void clocks() {
  const auto now = std::chrono::system_clock::now();  // expect(wallclock-time)
  const auto stamp = std::time(nullptr);              // expect(wallclock-time)
  (void)now; (void)stamp;
}

double raw_distance_loops(const double* a, const double* b, int n) {
  double acc = 0.0;
  for (int i = 0; i < n; ++i)
    acc += std::abs(a[i] - b[i]);    // expect(raw-distance-loop)
  for (int i = 0; i < n; ++i)
    acc += fabs(b[i] - a[i]);        // expect(raw-distance-loop)
  // Accumulating a plain magnitude (no subtraction inside the abs) is not
  // a distance loop and must stay unflagged.
  for (int i = 0; i < n; ++i) acc += std::abs(a[i]);
  return acc;
}

}  // namespace fixture
