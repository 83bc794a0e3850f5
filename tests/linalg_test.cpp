#include <gtest/gtest.h>

#include <algorithm>

#include "DenseLu.h"
#include "DenseMatrix.h"
#include "linalg/SparseLu.h"
#include "linalg/SparseMatrix.h"
#include "util/Random.h"

namespace {

using namespace nemtcam::linalg;
using nemtcam::util::Rng;

TEST(DenseMatrix, MultiplyIdentity) {
  auto id = DenseMatrix::identity(3);
  std::vector<double> x = {1.0, -2.0, 3.0};
  EXPECT_EQ(id.multiply(x), x);
}

TEST(DenseLu, SolvesKnownSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  DenseLu lu(a);
  const auto x = lu.solve({5.0, 10.0});
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the initial diagonal forces a row swap.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 0.0;
  DenseLu lu(a);
  const auto x = lu.solve({2.0, 3.0});
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(DenseLu, ThrowsOnSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_THROW(DenseLu bad(a), SingularMatrixError);
}

TEST(SparseMatrix, AccumulatesDuplicates) {
  SparseMatrix m(2, 2);
  m.add(0, 0, 1.0);
  m.add(0, 0, 2.5);
  m.add(1, 1, 1.0);
  EXPECT_EQ(m.nnz(), 2u);
  const auto y = m.multiply({1.0, 1.0});
  EXPECT_DOUBLE_EQ(y[0], 3.5);
  EXPECT_DOUBLE_EQ(y[1], 1.0);
}

TEST(SparseMatrix, DropsExplicitZeros) {
  SparseMatrix m(2, 2);
  m.add(0, 1, 0.0);
  m.add(1, 1, 2.0);
  EXPECT_EQ(m.nnz(), 1u);
}

TEST(SparseLu, MatchesDenseOnRandomSystems) {
  Rng rng(123);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 40));
    DenseMatrix d(n, n);
    SparseMatrix s(n, n);
    // Diagonally dominated random sparse pattern — MNA-like.
    for (std::size_t i = 0; i < n; ++i) {
      const double diag = rng.uniform(1.0, 5.0);
      d(i, i) += diag;
      s.add(i, i, diag);
      const int offdiag = rng.uniform_int(0, 4);
      for (int k = 0; k < offdiag; ++k) {
        const auto j = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(n) - 1));
        const double v = rng.uniform(-0.5, 0.5);
        d(i, j) += v;
        s.add(i, j, v);
      }
    }
    std::vector<double> b(n);
    for (auto& x : b) x = rng.uniform(-1.0, 1.0);

    DenseLu dlu(d);
    SparseLu slu(s);
    const auto xd = dlu.solve(b);
    const auto xs = slu.solve(b);
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
  }
}

TEST(SparseLu, HandlesPermutationRequiringMatrix) {
  SparseMatrix s(3, 3);
  s.add(0, 1, 1.0);
  s.add(1, 2, 1.0);
  s.add(2, 0, 1.0);
  SparseLu lu(s);
  const auto x = lu.solve({1.0, 2.0, 3.0});
  // Row0: x1 = 1, Row1: x2 = 2, Row2: x0 = 3.
  EXPECT_NEAR(x[0], 3.0, 1e-12);
  EXPECT_NEAR(x[1], 1.0, 1e-12);
  EXPECT_NEAR(x[2], 2.0, 1e-12);
}

TEST(SparseLu, ThrowsOnSingular) {
  SparseMatrix s(2, 2);
  s.add(0, 0, 1.0);
  s.add(1, 0, 2.0);  // column 1 empty
  EXPECT_THROW(SparseLu bad(s), SingularMatrixError);
}

TEST(SparseLu, ResidualIsSmallOnLargerSystem) {
  Rng rng(77);
  const std::size_t n = 500;
  SparseMatrix s(n, n);
  SparseMatrix s_copy(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double diag = rng.uniform(2.0, 6.0);
    s.add(i, i, diag);
    s_copy.add(i, i, diag);
    for (int k = 0; k < 3; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 1));
      const double v = rng.uniform(-0.4, 0.4);
      s.add(i, j, v);
      s_copy.add(i, j, v);
    }
  }
  std::vector<double> b(n);
  for (auto& x : b) x = rng.uniform(-1.0, 1.0);
  SparseLu lu(s);
  const auto x = lu.solve(b);
  const auto ax = s_copy.multiply(x);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

// Owning CSR buffer for the refactorize tests: the pattern is built once
// and the values mutated in place, exactly how AssemblyCache drives SparseLu.
struct CsrSystem {
  std::size_t n = 0;
  std::vector<std::size_t> row_ptr, cols;
  std::vector<double> vals;

  CsrView view() const { return {n, row_ptr.data(), cols.data(), vals.data()}; }

  DenseMatrix dense() const {
    DenseMatrix d(n, n);
    for (std::size_t r = 0; r < n; ++r)
      for (std::size_t k = row_ptr[r]; k < row_ptr[r + 1]; ++k)
        d(r, cols[k]) += vals[k];
    return d;
  }
};

// Random diagonally-dominant MNA-like pattern (explicit zeros allowed so
// the structural schedule is exercised).
CsrSystem make_random_system(Rng& rng, std::size_t n) {
  CsrSystem s;
  s.n = n;
  s.row_ptr.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::size_t> row_cols = {i};
    const int offdiag = rng.uniform_int(0, 4);
    for (int k = 0; k < offdiag; ++k) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(n) - 1));
      if (j != i) row_cols.push_back(j);
    }
    std::sort(row_cols.begin(), row_cols.end());
    row_cols.erase(std::unique(row_cols.begin(), row_cols.end()),
                   row_cols.end());
    for (std::size_t j : row_cols) {
      s.cols.push_back(j);
      s.vals.push_back(j == i ? rng.uniform(3.0, 6.0)
                              : rng.uniform(-0.5, 0.5));
    }
    s.row_ptr.push_back(s.cols.size());
  }
  return s;
}

TEST(SparseLuRefactorize, MatchesDenseAcrossPerturbedValues) {
  Rng rng(321);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(3, 40));
    CsrSystem sys = make_random_system(rng, n);
    SparseLu lu(sys.view());  // symbolic analysis + first numeric factor

    for (int round = 0; round < 5; ++round) {
      // Same pattern, new values — the Newton-iteration situation.
      for (std::size_t k = 0; k < sys.vals.size(); ++k)
        sys.vals[k] *= rng.uniform(0.8, 1.25);
      ASSERT_TRUE(lu.refactorize(sys.view()));

      std::vector<double> b(n);
      for (auto& x : b) x = rng.uniform(-1.0, 1.0);
      DenseLu dlu(sys.dense());
      const auto xd = dlu.solve(b);
      const auto xs = lu.solve(b);
      for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-9);
    }
  }
}

TEST(SparseLuRefactorize, HandlesEntryThatWasZeroAtAnalysisTime) {
  // The (2,0) coupling is an exact zero when the schedule is recorded; a
  // value-driven recording would drop it and silently mis-solve later.
  CsrSystem sys;
  sys.n = 3;
  sys.row_ptr = {0, 2, 4, 6};
  sys.cols = {0, 1, 1, 2, 0, 2};
  sys.vals = {4.0, 1.0, 3.0, 1.0, 0.0, 5.0};
  SparseLu lu(sys.view());

  sys.vals[4] = 2.0;  // the formerly-zero entry comes alive
  ASSERT_TRUE(lu.refactorize(sys.view()));
  const std::vector<double> b = {1.0, 2.0, 3.0};
  DenseLu dlu(sys.dense());
  const auto xd = dlu.solve(b);
  const auto xs = lu.solve(b);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_NEAR(xs[i], xd[i], 1e-12);
}

TEST(SparseLuRefactorize, DegeneratePivotFallsBackToFullFactorization) {
  // Dense 2x2 pattern. The first factorization pivots on the dominant
  // (0,0); the new values make that pivot numerically dead while the
  // matrix itself stays well-conditioned, so refactorize must refuse and
  // a fresh factorize (free to re-pivot) must succeed.
  CsrSystem sys;
  sys.n = 2;
  sys.row_ptr = {0, 2, 4};
  sys.cols = {0, 1, 0, 1};
  sys.vals = {4.0, 1.0, 1.0, 1.0};
  SparseLu lu(sys.view());

  sys.vals = {1e-40, 1.0, 1.0, 1.0};
  EXPECT_FALSE(lu.refactorize(sys.view()));

  lu.factorize(sys.view());  // the caller-side fallback
  const auto x = lu.solve({1.0, 2.0});
  DenseLu dlu(sys.dense());
  const auto xd = dlu.solve({1.0, 2.0});
  EXPECT_NEAR(x[0], xd[0], 1e-9);
  EXPECT_NEAR(x[1], xd[1], 1e-9);
}

TEST(SparseLuRefactorize, UnanalyzedOrMismatchedPatternReturnsFalse) {
  SparseLu lu;
  CsrSystem sys;
  sys.n = 2;
  sys.row_ptr = {0, 2, 4};
  sys.cols = {0, 1, 0, 1};
  sys.vals = {2.0, 1.0, 1.0, 2.0};
  EXPECT_FALSE(lu.refactorize(sys.view()));  // never analyzed

  lu.factorize(sys.view());
  CsrSystem other;  // same n, different pattern
  other.n = 2;
  other.row_ptr = {0, 1, 2};
  other.cols = {0, 1};
  other.vals = {2.0, 2.0};
  EXPECT_FALSE(lu.refactorize(other.view()));
}

TEST(VectorOps, DotAndNorm) {
  EXPECT_DOUBLE_EQ(dot({1.0, 2.0}, {3.0, 4.0}), 11.0);
  EXPECT_DOUBLE_EQ(norm_inf({1.0, -5.0, 2.0}), 5.0);
  const auto r = subtract({3.0, 3.0}, {1.0, 5.0});
  EXPECT_DOUBLE_EQ(r[0], 2.0);
  EXPECT_DOUBLE_EQ(r[1], -2.0);
}

}  // namespace
