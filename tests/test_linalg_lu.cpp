#include "linalg/lu.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"

namespace {

using ace::linalg::LuDecomposition;
using ace::linalg::Matrix;
using ace::linalg::Vector;

Matrix random_matrix(ace::util::Rng& rng, std::size_t n) {
  Matrix m(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) m(r, c) = rng.uniform(-2.0, 2.0);
  // Diagonal boost keeps the random systems comfortably non-singular.
  for (std::size_t i = 0; i < n; ++i) m(i, i) += 3.0;
  return m;
}

TEST(Lu, RejectsNonSquare) {
  EXPECT_THROW(LuDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Lu, SolvesKnownSystem) {
  // 2x + y = 5 ; x + 3y = 10  =>  x = 1, y = 3.
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Lu, PivotingHandlesZeroLeadingDiagonal) {
  Matrix a{{0.0, 1.0}, {1.0, 0.0}};  // Permutation matrix.
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(Vector{2.0, 7.0});
  EXPECT_NEAR(x[0], 7.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
  EXPECT_NEAR(lu.determinant(), -1.0, 1e-12);
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition lu(a);
  EXPECT_TRUE(lu.singular());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_DOUBLE_EQ(lu.rcond_estimate(), 0.0);
  EXPECT_THROW((void)lu.solve(Vector{1.0, 1.0}), std::runtime_error);
}

TEST(Lu, DeterminantOfDiagonal) {
  Matrix a{{2.0, 0.0, 0.0}, {0.0, 3.0, 0.0}, {0.0, 0.0, 4.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), 24.0, 1e-12);
}

TEST(Lu, SolveSizeMismatchThrows) {
  LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW((void)lu.solve(Vector{1.0, 2.0}), std::invalid_argument);
}

TEST(Lu, InverseTimesOriginalIsIdentity) {
  ace::util::Rng rng(17);
  const Matrix a = random_matrix(rng, 5);
  const Matrix inv = LuDecomposition(a).inverse();
  const Matrix prod = a * inv;
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 5; ++c)
      EXPECT_NEAR(prod(r, c), r == c ? 1.0 : 0.0, 1e-9);
}

TEST(Lu, MultipleRightHandSides) {
  Matrix a{{2.0, 0.0}, {0.0, 4.0}};
  Matrix b{{2.0, 4.0}, {4.0, 8.0}};
  const Matrix x = LuDecomposition(a).solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(0, 1), 2.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 1), 2.0, 1e-12);
}

TEST(MultiRhs, LuMatrixSolveMatchesColumnSolvesBitExactly) {
  ace::util::Rng rng(42);
  constexpr std::size_t n = 7;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = (i == j ? 8.0 : 0.0) + rng.uniform(-1.0, 1.0);
  const LuDecomposition f(a);
  ASSERT_FALSE(f.singular());

  Matrix b(n, 4);
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t c = 0; c < 4; ++c) b(i, c) = rng.uniform(-5.0, 5.0);

  const Matrix x = f.solve(b);
  for (std::size_t c = 0; c < 4; ++c) {
    const Vector xc = f.solve(b.col(c));
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(x(i, c), xc[i]);
  }
}

TEST(Lu, InverseDiagonalMatchesFullInverse) {
  ace::util::Rng rng(29);
  const Matrix a = random_matrix(rng, 6);
  const LuDecomposition lu(a);
  const Matrix inv = lu.inverse();
  const Vector diag = lu.inverse_diagonal();
  ASSERT_EQ(diag.size(), 6u);
  // Both walk the same unit-vector solves, so the match is exact.
  for (std::size_t i = 0; i < 6; ++i) EXPECT_EQ(diag[i], inv(i, i));
}

TEST(Lu, InverseDiagonalMatchesSchurComplementOfDeletedSystems) {
  // The identity behind the kriging LOO-CV fast path: 1/[A⁻¹]_ii equals
  // the Schur complement A_ii − A_i,−i · A₋ᵢ⁻¹ · A₋ᵢ,i of the system
  // with row/column i deleted — n scratch refits in one factorization.
  ace::util::Rng rng(33);
  const std::size_t n = 7;
  const Matrix a = random_matrix(rng, n);
  const Vector diag = LuDecomposition(a).inverse_diagonal();
  for (std::size_t i = 0; i < n; ++i) {
    Matrix deleted(n - 1, n - 1);
    Vector col(n - 1);
    Vector row(n - 1);
    for (std::size_t r = 0, dr = 0; r < n; ++r) {
      if (r == i) continue;
      col[dr] = a(r, i);
      row[dr] = a(i, r);
      for (std::size_t c = 0, dc = 0; c < n; ++c) {
        if (c == i) continue;
        deleted(dr, dc) = a(r, c);
        ++dc;
      }
      ++dr;
    }
    const Vector x = LuDecomposition(deleted).solve(col);
    double schur = a(i, i);
    for (std::size_t k = 0; k < n - 1; ++k) schur -= row[k] * x[k];
    EXPECT_NEAR(diag[i], 1.0 / schur, 1e-10) << "entry " << i;
  }
}

TEST(Lu, RcondEstimatePositiveForWellConditioned) {
  EXPECT_GT(LuDecomposition(Matrix::identity(4)).rcond_estimate(), 0.5);
}

TEST(Lu, RcondEstimateIsPivotMagnitudeRatio) {
  // A diagonal matrix needs no row swaps: the pivots are its diagonal and
  // the estimate is min|pivot| / max|pivot| exactly.
  const Matrix a{{2.0, 0.0, 0.0}, {0.0, -8.0, 0.0}, {0.0, 0.0, 4.0}};
  EXPECT_EQ(LuDecomposition(a).rcond_estimate(), 0.25);
}

TEST(Lu, RcondEstimateFallsAsSystemNearsSingularity) {
  // [[1 1] [1 1+ε]] has pivots 1 and ε: the estimate tracks ε down.
  double previous = 1.0;
  for (const double eps : {1e-1, 1e-4, 1e-8}) {
    const Matrix a{{1.0, 1.0}, {1.0, 1.0 + eps}};
    const LuDecomposition lu(a);
    ASSERT_FALSE(lu.singular()) << "eps " << eps;
    const double rcond = lu.rcond_estimate();
    EXPECT_NEAR(rcond, eps, 1e-6 * eps) << "eps " << eps;
    EXPECT_LT(rcond, previous);
    previous = rcond;
  }
}

TEST(Lu, PivotToleranceIsRelativeToMatrixScale) {
  // A regular matrix stays regular at any magnitude; a rank-deficient one
  // stays singular however large its entries.
  const Matrix tiny{{2e-200, 1e-200}, {1e-200, 3e-200}};
  EXPECT_FALSE(LuDecomposition(tiny).singular());
  const Matrix huge{{1e200, 2e200}, {2e200, 4e200}};
  EXPECT_TRUE(LuDecomposition(huge).singular());
}

TEST(Lu, DeterminantSignTracksRowSwaps) {
  // A cyclic 3-permutation is two transpositions: det = +1.
  const Matrix cyclic{{0.0, 1.0, 0.0}, {0.0, 0.0, 1.0}, {1.0, 0.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(cyclic).determinant(), 1.0, 1e-12);
  const Matrix swapped{{0.0, 2.0, 0.0}, {3.0, 0.0, 0.0}, {0.0, 0.0, 5.0}};
  EXPECT_NEAR(LuDecomposition(swapped).determinant(), -30.0, 1e-12);
}

TEST(Lu, MatrixSolveRowMismatchThrows) {
  const LuDecomposition lu(Matrix::identity(3));
  EXPECT_THROW((void)lu.solve(Matrix(2, 2)), std::invalid_argument);
}

TEST(Lu, MatrixSolveOnSingularThrows) {
  const LuDecomposition lu(Matrix(2, 2, 0.0));
  ASSERT_TRUE(lu.singular());
  EXPECT_THROW((void)lu.solve(Matrix::identity(2)), std::runtime_error);
}

TEST(Lu, InverseDiagonalThrowsOnSingular) {
  const LuDecomposition lu(Matrix{{1.0, 2.0}, {1.0, 2.0}});
  ASSERT_TRUE(lu.singular());
  EXPECT_THROW((void)lu.inverse_diagonal(), std::runtime_error);
}

/// Ordinary-kriging shaped matrix: symmetric core with a zero diagonal
/// (γ(0) = 0) bordered by a ones row/column and a zero corner. It is
/// indefinite and its leading pivot is zero, so only a pivoted
/// factorization gets through it.
Matrix bordered_kriging_matrix(std::size_t n) {
  Matrix a(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j)
      a(i, j) = 1.0 - std::exp(-std::abs(static_cast<double>(i) -
                                         static_cast<double>(j)));
    a(i, n) = 1.0;
    a(n, i) = 1.0;
  }
  return a;
}

TEST(Lu, SolvesBorderedKrigingSystem) {
  const std::size_t n = 5;
  const Matrix a = bordered_kriging_matrix(n);
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  EXPECT_TRUE(std::isfinite(lu.determinant()));
  EXPECT_NE(lu.determinant(), 0.0);
  Vector rhs(n + 1);
  for (std::size_t i = 0; i < n; ++i)
    rhs[i] = 1.0 - std::exp(-std::abs(2.5 - static_cast<double>(i)));
  rhs[n] = 1.0;
  const Vector x = lu.solve(rhs);
  EXPECT_LT((a * x - rhs).norm_inf(), 1e-12);
  // The border row is the unbiasedness constraint Σ w = 1.
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += x[i];
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Lu, InverseDiagonalOfBorderedSystemMatchesInverse) {
  const LuDecomposition lu(bordered_kriging_matrix(6));
  const Vector diag = lu.inverse_diagonal();
  const Matrix inv = lu.inverse();
  ASSERT_EQ(diag.size(), 7u);
  for (std::size_t i = 0; i < diag.size(); ++i) EXPECT_EQ(diag[i], inv(i, i));
  // γ-form data rows of an ordinary-kriging inverse have a negative
  // diagonal (the LOO variance is −1/B_ii >= 0).
  for (std::size_t i = 0; i < 6; ++i) EXPECT_LT(diag[i], 0.0) << "entry " << i;
}

/// Random SPD matrix Bᵀ·B + I (not diagonally dominant, unlike
/// random_matrix above).
Matrix random_gram(std::size_t n, ace::util::Rng& rng) {
  Matrix b(n, n);
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < n; ++c) b(r, c) = rng.uniform(-1.0, 1.0);
  Matrix spd = b.transposed() * b;
  for (std::size_t i = 0; i < n; ++i) spd(i, i) += 1.0;
  return spd;
}

class LuSpdResidualTest : public ::testing::TestWithParam<std::size_t> {};

// SPD systems: tiny residual, positive determinant and a positive
// diagonal of the inverse.
TEST_P(LuSpdResidualTest, SolvesRandomSpdSystems) {
  const std::size_t n = GetParam();
  ace::util::Rng rng(n * 7919 + 1);
  const Matrix a = random_gram(n, rng);
  const LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  const Vector x = lu.solve(b);
  EXPECT_LT((a * x - b).norm_inf(), 1e-9);
  EXPECT_GT(lu.determinant(), 0.0);
  const Vector diag = lu.inverse_diagonal();
  for (std::size_t i = 0; i < n; ++i) EXPECT_GT(diag[i], 0.0) << "entry " << i;
}

INSTANTIATE_TEST_SUITE_P(Sizes, LuSpdResidualTest,
                         ::testing::Values<std::size_t>(1, 2, 4, 7, 12, 20));

/// Property sweep: residual ‖Ax − b‖∞ stays tiny across sizes and seeds.
class LuResidualTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {};

TEST_P(LuResidualTest, ResidualIsSmall) {
  const auto [n, seed] = GetParam();
  ace::util::Rng rng(seed);
  const Matrix a = random_matrix(rng, n);
  Vector b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = rng.uniform(-5.0, 5.0);
  LuDecomposition lu(a);
  ASSERT_FALSE(lu.singular());
  const Vector x = lu.solve(b);
  const Vector residual = a * x - b;
  EXPECT_LT(residual.norm_inf(), 1e-9);
  // det(A) consistency: det should be finite and nonzero.
  EXPECT_NE(lu.determinant(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndSeeds, LuResidualTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 3, 5, 8, 13, 21),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4, 5)));

}  // namespace
