#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "linalg/qr.hpp"
#include "util/rng.hpp"

namespace {

using ace::linalg::Matrix;
using ace::linalg::QrDecomposition;
using ace::linalg::Vector;

TEST(Qr, RejectsUnderdetermined) {
  EXPECT_THROW(QrDecomposition(Matrix(2, 3)), std::invalid_argument);
}

TEST(Qr, SolvesSquareSystemExactly) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  const Vector x = QrDecomposition(a).solve(Vector{5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Qr, LeastSquaresMatchesNormalEquations) {
  // Fit y = a + b·t to 4 points; classic closed form.
  Matrix a{{1.0, 0.0}, {1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}};
  Vector y{1.0, 2.2, 2.9, 4.1};
  const Vector beta = ace::linalg::least_squares(a, y);
  // Closed form via normal equations: slope = 1.0, intercept = 1.05.
  EXPECT_NEAR(beta[1], 1.0, 1e-9);
  EXPECT_NEAR(beta[0], 1.05, 1e-9);
}

TEST(Qr, DetectsRankDeficiency) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}, {3.0, 6.0}};
  QrDecomposition qr(a);
  EXPECT_TRUE(qr.rank_deficient());
  EXPECT_THROW((void)qr.solve(Vector{1.0, 2.0, 3.0}), std::runtime_error);
}

TEST(Qr, SolveSizeMismatch) {
  QrDecomposition qr(Matrix::identity(3));
  EXPECT_THROW((void)qr.solve(Vector{1.0}), std::invalid_argument);
}

TEST(Qr, ResidualOrthogonalToColumns) {
  ace::util::Rng rng(23);
  Matrix a(10, 3);
  for (std::size_t r = 0; r < 10; ++r)
    for (std::size_t c = 0; c < 3; ++c) a(r, c) = rng.uniform(-1.0, 1.0);
  Vector b(10);
  for (std::size_t i = 0; i < 10; ++i) b[i] = rng.uniform(-1.0, 1.0);
  const Vector x = QrDecomposition(a).solve(b);
  const Vector residual = a * x - b;
  // Least-squares optimality: Aᵀ·r = 0.
  const Vector at_r = a.transposed() * residual;
  EXPECT_LT(at_r.norm_inf(), 1e-10);
}

}  // namespace
