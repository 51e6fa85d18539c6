// BorderedLdlt: the incremental bordered factorization under
// kriging::KrigingSystem. The load-bearing properties are (a) base-only
// solves are bit-identical to a plain pivoted LU and (b) any sequence of
// append/remove edits reproduces the from-scratch solution of the
// assembled matrix to tight tolerance. The argument and singular-base
// checks and an SPD residual sweep over sizes round it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "linalg/ldlt.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"
#include "util/rng.hpp"

namespace {

namespace la = ace::linalg;

/// Random symmetric, strictly diagonally dominant matrix (so every
/// leading block and every Schur complement stays comfortably regular).
la::Matrix random_spd(std::size_t n, ace::util::Rng& rng) {
  la::Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j <= i; ++j) {
      const double v = rng.uniform(-1.0, 1.0);
      a(i, j) = v;
      a(j, i) = v;
    }
  for (std::size_t i = 0; i < n; ++i)
    a(i, i) = static_cast<double>(n) + 1.0 + rng.uniform(0.0, 1.0);
  return a;
}

la::Vector random_rhs(std::size_t n, ace::util::Rng& rng) {
  la::Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  return b;
}

/// Leading m×m block of a.
la::Matrix leading_block(const la::Matrix& a, std::size_t m) {
  la::Matrix b(m, m);
  for (std::size_t i = 0; i < m; ++i)
    for (std::size_t j = 0; j < m; ++j) b(i, j) = a(i, j);
  return b;
}

void expect_matches_scratch(const la::BorderedLdlt& f, const la::Vector& b,
                            double tol) {
  ASSERT_TRUE(f.ok());
  const la::LuDecomposition scratch(f.assembled());
  ASSERT_FALSE(scratch.singular());
  const la::Vector expect = scratch.solve(b);
  const la::Vector got = f.solve(b);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], expect[i], tol) << "component " << i;
}

TEST(BorderedLdlt, BaseOnlySolveIsBitIdenticalToLu) {
  ace::util::Rng rng(17);
  const la::Matrix a = random_spd(6, rng);
  const la::Vector b = random_rhs(6, rng);
  const la::BorderedLdlt f(a);
  ASSERT_TRUE(f.ok());
  const la::Vector expect = la::LuDecomposition(a).solve(b);
  const la::Vector got = f.solve(b);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(got[i], expect[i]);
  EXPECT_EQ(f.rcond_estimate(), la::LuDecomposition(a).rcond_estimate());
}

TEST(BorderedLdlt, AppendReproducesFromScratchSolve) {
  ace::util::Rng rng(23);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 3 + static_cast<std::size_t>(trial % 5);
    const std::size_t base = 1 + static_cast<std::size_t>(trial % 3);
    const la::Matrix full = random_spd(n + base, rng);
    la::BorderedLdlt f(leading_block(full, base));
    ASSERT_TRUE(f.ok());
    for (std::size_t k = base; k < base + n; ++k) {
      std::vector<double> coupling(k);
      for (std::size_t i = 0; i < k; ++i) coupling[i] = full(k, i);
      ASSERT_TRUE(f.append_point(coupling, full(k, k)));
    }
    EXPECT_EQ(f.size(), base + n);
    EXPECT_EQ(f.appended(), n);
    expect_matches_scratch(f, random_rhs(base + n, rng), 1e-10);
  }
}

TEST(BorderedLdlt, RemoveReproducesFromScratchSolve) {
  ace::util::Rng rng(31);
  const std::size_t base = 2, extra = 5;
  const la::Matrix full = random_spd(base + extra, rng);
  la::BorderedLdlt f(leading_block(full, base));
  for (std::size_t k = base; k < base + extra; ++k) {
    std::vector<double> coupling(k);
    for (std::size_t i = 0; i < k; ++i) coupling[i] = full(k, i);
    ASSERT_TRUE(f.append_point(coupling, full(k, k)));
  }
  // Drop the middle appended point, then the (new) first one.
  ASSERT_TRUE(f.remove_point(2));
  EXPECT_EQ(f.appended(), extra - 1);
  expect_matches_scratch(f, random_rhs(f.size(), rng), 1e-10);
  ASSERT_TRUE(f.remove_point(0));
  EXPECT_EQ(f.appended(), extra - 2);
  expect_matches_scratch(f, random_rhs(f.size(), rng), 1e-10);
}

TEST(BorderedLdlt, RandomEditSequencesMatchScratch) {
  ace::util::Rng rng(47);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t pool = 8;
    const la::Matrix full = random_spd(pool, rng);
    la::BorderedLdlt f(leading_block(full, 2));
    ASSERT_TRUE(f.ok());
    // Track which pool rows the appended slots currently hold so couplings
    // can be regenerated after removals shuffle positions.
    std::vector<std::size_t> held = {0, 1};
    std::vector<std::size_t> appended_rows;
    for (int edit = 0; edit < 24; ++edit) {
      const bool can_remove = !appended_rows.empty();
      const bool do_remove = can_remove && rng.uniform(0.0, 1.0) < 0.4;
      if (do_remove) {
        const std::size_t slot = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(appended_rows.size()) - 1));
        ASSERT_TRUE(f.remove_point(slot));
        held.erase(held.begin() + static_cast<std::ptrdiff_t>(2 + slot));
        appended_rows.erase(appended_rows.begin() +
                            static_cast<std::ptrdiff_t>(slot));
      } else if (held.size() < pool) {
        std::size_t row = 0;
        do {
          row = static_cast<std::size_t>(
              rng.uniform_int(0, static_cast<int>(pool) - 1));
        } while (std::find(held.begin(), held.end(), row) != held.end());
        std::vector<double> coupling(f.size());
        for (std::size_t i = 0; i < held.size(); ++i)
          coupling[i] = full(row, held[i]);
        ASSERT_TRUE(f.append_point(coupling, full(row, row)));
        held.push_back(row);
        appended_rows.push_back(row);
      }
      expect_matches_scratch(f, random_rhs(f.size(), rng), 1e-9);
    }
  }
}

TEST(BorderedLdlt, AppendShiftLandsOnAppendedDiagonalsOnly) {
  ace::util::Rng rng(5);
  const la::Matrix full = random_spd(4, rng);
  const double shift = 0.25;
  la::BorderedLdlt f(leading_block(full, 2), shift);
  std::vector<double> c2 = {full(2, 0), full(2, 1)};
  ASSERT_TRUE(f.append_point(c2, full(2, 2)));
  const la::Matrix& a = f.assembled();
  EXPECT_EQ(a(0, 0), full(0, 0));          // base diagonal untouched
  EXPECT_EQ(a(2, 2), full(2, 2) + shift);  // appended diagonal shifted
  expect_matches_scratch(f, random_rhs(3, rng), 1e-10);
}

TEST(BorderedLdlt, DegenerateAppendIsRejectedAndFactorSurvives) {
  ace::util::Rng rng(9);
  const la::Matrix full = random_spd(3, rng);
  la::BorderedLdlt f(full);
  ASSERT_TRUE(f.ok());
  // A row identical to an existing one has a zero Schur pivot.
  std::vector<double> dup = {full(0, 0), full(0, 1), full(0, 2)};
  EXPECT_FALSE(f.append_point(dup, full(0, 0)));
  EXPECT_EQ(f.appended(), 0u);
  expect_matches_scratch(f, random_rhs(3, rng), 1e-12);
}

TEST(BorderedLdlt, InverseDiagonalMatchesLuAcrossEdits) {
  // At zero appends the diagonal-of-inverse walks the same refined solve
  // path as the LU version, entry for entry; after appends/removals it
  // must still match a from-scratch LU inverse of the assembled matrix.
  ace::util::Rng rng(61);
  const std::size_t base = 4;
  const std::size_t extra = 3;
  const la::Matrix full = random_spd(base + extra, rng);
  la::BorderedLdlt f(leading_block(full, base));
  ASSERT_TRUE(f.ok());
  {
    const la::Vector got = f.inverse_diagonal();
    const la::Vector expect =
        la::LuDecomposition(leading_block(full, base)).inverse_diagonal();
    for (std::size_t i = 0; i < base; ++i) EXPECT_EQ(got[i], expect[i]);
  }
  for (std::size_t k = 0; k < extra; ++k) {
    std::vector<double> coupling(base + k);
    for (std::size_t i = 0; i < base + k; ++i)
      coupling[i] = full(base + k, i);
    ASSERT_TRUE(f.append_point(coupling, full(base + k, base + k)));
  }
  ASSERT_TRUE(f.remove_point(1));  // Down-date the middle appended row.
  const la::Vector got = f.inverse_diagonal();
  const la::Matrix inv = la::LuDecomposition(f.assembled()).inverse();
  ASSERT_EQ(got.size(), f.size());
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_NEAR(got[i], inv(i, i), 1e-10) << "entry " << i;
}

TEST(BorderedLdlt, InverseDiagonalThrowsOnSingularBase) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const la::BorderedLdlt f(a);
  ASSERT_FALSE(f.ok());
  EXPECT_THROW((void)f.inverse_diagonal(), std::runtime_error);
}

TEST(BorderedLdlt, SingularBaseReportsNotOk) {
  la::Matrix a(2, 2);
  a(0, 0) = 1.0;
  a(0, 1) = 2.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  const la::BorderedLdlt f(a);
  EXPECT_FALSE(f.ok());
}

TEST(BorderedLdlt, RemoveRejectsOutOfRange) {
  ace::util::Rng rng(3);
  la::BorderedLdlt f(random_spd(3, rng));
  EXPECT_FALSE(f.remove_point(0));  // nothing appended yet
}

TEST(BorderedLdlt, RejectsNonSquareBase) {
  EXPECT_THROW(la::BorderedLdlt(la::Matrix(2, 3)), std::invalid_argument);
}

TEST(BorderedLdlt, SolveSizeMismatchThrows) {
  ace::util::Rng rng(5);
  la::BorderedLdlt f(random_spd(3, rng));
  EXPECT_THROW((void)f.solve(la::Vector{1.0}), std::invalid_argument);
  ASSERT_TRUE(f.append_point({0.1, 0.2, 0.3}, 5.0));
  EXPECT_THROW((void)f.solve(random_rhs(3, rng)), std::invalid_argument);
}

TEST(BorderedLdlt, AppendSizeMismatchThrows) {
  ace::util::Rng rng(6);
  la::BorderedLdlt f(random_spd(3, rng));
  EXPECT_THROW((void)f.append_point({0.1, 0.2}, 5.0), std::invalid_argument);
  EXPECT_EQ(f.size(), 3u);
}

TEST(BorderedLdlt, SolveOnSingularBaseThrows) {
  const la::BorderedLdlt f(la::Matrix(2, 2, 0.0));
  ASSERT_FALSE(f.ok());
  EXPECT_THROW((void)f.solve(la::Vector{1.0, 1.0}), std::runtime_error);
}

TEST(BorderedLdlt, AppendOnSingularBaseThrows) {
  la::BorderedLdlt f(la::Matrix(2, 2, 0.0));
  ASSERT_FALSE(f.ok());
  EXPECT_THROW((void)f.append_point({0.0, 0.0}, 1.0), std::runtime_error);
}

/// Random SPD matrix Bᵀ·B + I (not diagonally dominant, unlike
/// random_spd above).
la::Matrix random_gram(std::size_t n, ace::util::Rng& rng) {
  la::Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  la::Matrix spd = b.transposed() * b;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

class BorderedLdltResidualTest : public ::testing::TestWithParam<std::size_t> {
};

// Everything past the 1×1 base enters through append_point, so all but
// one pivot of the solve runs through the Schur-complement LDLT.
TEST_P(BorderedLdltResidualTest, SolvesRandomSpdSystems) {
  const std::size_t n = GetParam();
  ace::util::Rng rng(n * 7919 + 1);
  const la::Matrix a = random_gram(n, rng);
  la::BorderedLdlt f(leading_block(a, 1));
  ASSERT_TRUE(f.ok());
  for (std::size_t m = 1; m < n; ++m) {
    std::vector<double> coupling(m);
    for (std::size_t i = 0; i < m; ++i) coupling[i] = a(m, i);
    ASSERT_TRUE(f.append_point(coupling, a(m, m))) << "append " << m;
  }
  ASSERT_EQ(f.size(), n);
  const la::Vector b = random_rhs(n, rng);
  const la::Vector x = f.solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BorderedLdltResidualTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 7, 12, 20));

}  // namespace
