#include "linalg/lu.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "util/contract.hpp"

namespace ace::linalg {

LuDecomposition::LuDecomposition(Matrix a, double pivot_tolerance)
    : lu_(std::move(a)) {
  if (!lu_.square())
    throw std::invalid_argument("LuDecomposition: matrix must be square");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  const double scale = std::max(lu_.max_abs(), 1e-300);
  for (std::size_t k = 0; k < n; ++k) {
    // Pivot search in column k.
    std::size_t pivot_row = k;
    double pivot_mag = std::abs(lu_(k, k));
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::abs(lu_(r, k));
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (pivot_mag <= pivot_tolerance * scale) {
      singular_ = true;
      return;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c)
        std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
      perm_sign_ = -perm_sign_;
    }
    const double pivot = lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) / pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;  // ace-lint: allow(float-equality)
      for (std::size_t c = k + 1; c < n; ++c)
        lu_(r, c) -= factor * lu_(k, c);
    }
  }
}

Vector LuDecomposition::solve(const Vector& b) const {
  if (singular_)
    throw std::runtime_error("LuDecomposition::solve: singular matrix");
  const std::size_t n = size();
  if (b.size() != n)
    throw std::invalid_argument("LuDecomposition::solve: size mismatch");

  // Forward substitution on permuted b (L has unit diagonal).
  Vector y(n);
  for (std::size_t r = 0; r < n; ++r) {
    double acc = b[perm_[r]];
    for (std::size_t c = 0; c < r; ++c) acc -= lu_(r, c) * y[c];
    y[r] = acc;
  }
  // Back substitution through U.
  Vector x(n);
  for (std::size_t ri = n; ri-- > 0;) {
    // The factorization bailed to singular_ on any degenerate pivot, so a
    // zero divisor here means the object's invariant was corrupted.
    ACE_INVARIANT(lu_(ri, ri) != 0.0,  // ace-lint: allow(float-equality)
                  "non-singular LU must have non-zero pivots");
    double acc = y[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= lu_(ri, c) * x[c];
    x[ri] = acc / lu_(ri, ri);
  }
  return x;
}

Matrix LuDecomposition::solve(const Matrix& b) const {
  if (b.rows() != size())
    throw std::invalid_argument("LuDecomposition::solve: row mismatch");
  Matrix x(b.rows(), b.cols());
  for (std::size_t c = 0; c < b.cols(); ++c) {
    const Vector xc = solve(b.col(c));
    for (std::size_t r = 0; r < b.rows(); ++r) x(r, c) = xc[r];
  }
  return x;
}

double LuDecomposition::determinant() const {
  if (singular_) return 0.0;
  double det = static_cast<double>(perm_sign_);
  for (std::size_t i = 0; i < size(); ++i) det *= lu_(i, i);
  return det;
}

Matrix LuDecomposition::inverse() const {
  return solve(Matrix::identity(size()));
}

Vector LuDecomposition::inverse_diagonal() const {
  const std::size_t n = size();
  Vector diag(n);
  Vector e(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) e[j] = (j == i) ? 1.0 : 0.0;
    diag[i] = solve(e)[i];
  }
  return diag;
}

double LuDecomposition::rcond_estimate() const {
  if (singular_ || size() == 0) return 0.0;
  double lo = std::abs(lu_(0, 0));
  double hi = lo;
  for (std::size_t i = 1; i < size(); ++i) {
    const double p = std::abs(lu_(i, i));
    lo = std::min(lo, p);
    hi = std::max(hi, p);
  }
  // Exact-zero test: hi is a max of absolute values, so == 0 is precise.
  return hi == 0.0 ? 0.0 : lo / hi;  // ace-lint: allow(float-equality)
}

}  // namespace ace::linalg
