// LU decomposition with partial pivoting — the workhorse behind the
// kriging system solve (the Γ matrix of paper Eq. 9 is symmetric but
// indefinite because of the Lagrange-multiplier border, so Cholesky does
// not apply; LU with pivoting does).
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "linalg/matrix.hpp"
#include "linalg/vector.hpp"

namespace ace::linalg {

/// LU factorization P·A = L·U with partial (row) pivoting.
///
/// Construction factorizes eagerly. `singular()` reports whether a pivot
/// collapsed below the relative tolerance; solves on a singular
/// factorization throw std::runtime_error.
class LuDecomposition {
 public:
  /// Factorize a square matrix. Throws std::invalid_argument if not square.
  explicit LuDecomposition(Matrix a, double pivot_tolerance = 1e-13);

  bool singular() const { return singular_; }
  std::size_t size() const { return lu_.rows(); }

  /// Solve A·x = b. Throws on singularity or size mismatch.
  Vector solve(const Vector& b) const;

  /// Solve for multiple right-hand sides (columns of B).
  Matrix solve(const Matrix& b) const;

  /// Determinant (0 if singular flag raised).
  double determinant() const;

  /// Explicit inverse — prefer solve(); used by tests for validation.
  Matrix inverse() const;

  /// Diagonal of A⁻¹, one unit-vector solve per entry against the existing
  /// factorization — O(n²) per entry, no refactorization. Together with a
  /// single solve of A·u = z this yields every leave-one-out residual of a
  /// kriging system via Dubrule's identity (kriging::KrigingSystem::
  /// loo_residuals), where each scratch refit would cost O(n³).
  Vector inverse_diagonal() const;

  /// Crude reciprocal condition estimate: min|pivot| / max|pivot|.
  double rcond_estimate() const;

 private:
  Matrix lu_;
  std::vector<std::size_t> perm_;
  int perm_sign_ = 1;
  bool singular_ = false;
};

}  // namespace ace::linalg
