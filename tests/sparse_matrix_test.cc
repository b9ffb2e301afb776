// Unit and differential tests for the sparse boolean composition kernels
// (common/sparse_matrix.h): CSR construction, dense round-trips, and every
// composition kernel -- Multiply (including the SpGEMM dense-accumulator
// fallback and its run budget), MultiplyDense / MultiplyDenseLeft, Or,
// Complement, FilterDiagonal -- checked cell-for-cell against the dense
// BitMatrix kernels on seeded random and adversarial operands.
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bit_matrix.h"
#include "common/rng.h"
#include "common/sparse_matrix.h"
#include "common/status.h"
#include "tree/axis_cache.h"
#include "tree/generators.h"

namespace xpv {
namespace {

BitMatrix RandomDense(Rng& rng, std::size_t n, std::uint64_t density_pct) {
  BitMatrix m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (rng.Below(100) < density_pct) m.Set(r, c);
    }
  }
  return m;
}

/// Every row alternates single set bits -- the worst case for run storage
/// (n/2 runs per row), which drives the SpGEMM kernel into its dense
/// accumulator fallback and exhausts small run budgets.
BitMatrix Checkerboard(std::size_t n) {
  BitMatrix m(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = r % 2; c < n; c += 2) m.Set(r, c);
  }
  return m;
}

void ExpectSameCells(const SparseBoolMatrix& sparse, const BitMatrix& dense,
                     const char* ctx) {
  ASSERT_EQ(sparse.size(), dense.size()) << ctx;
  EXPECT_EQ(sparse.Count(), dense.Count()) << ctx;
  for (std::size_t r = 0; r < dense.size(); ++r) {
    for (std::size_t c = 0; c < dense.size(); ++c) {
      ASSERT_EQ(sparse.Get(r, c), dense.Get(r, c))
          << ctx << " at (" << r << "," << c << ")";
    }
  }
  Result<BitMatrix> round_trip = sparse.ToDense();
  ASSERT_TRUE(round_trip.ok()) << ctx;
  EXPECT_EQ(*round_trip, dense) << ctx;
}

TEST(SparseMatrixTest, FromDenseRoundTrips) {
  Rng rng(11);
  for (std::size_t n : {0u, 1u, 5u, 63u, 64u, 65u, 130u}) {
    for (std::uint64_t density : {0u, 5u, 50u, 100u}) {
      BitMatrix d = RandomDense(rng, n, density);
      SparseBoolMatrix s = SparseBoolMatrix::FromDense(d);
      ExpectSameCells(s, d, "FromDense");
    }
  }
}

TEST(SparseMatrixTest, BuilderCoalescesAdjacentAndOverlappingRuns) {
  SparseBoolMatrix::Builder b(10);
  EXPECT_TRUE(b.Append(0, 2, 4));
  EXPECT_TRUE(b.Append(0, 4, 6));   // adjacent: coalesces into [2,6)
  EXPECT_TRUE(b.Append(0, 5, 7));   // overlapping: extends to [2,7)
  EXPECT_TRUE(b.Append(0, 8, 8));   // empty: ignored
  EXPECT_TRUE(b.Append(3, 0, 1));   // skips rows 1-2 (sealed empty)
  EXPECT_EQ(b.num_runs(), 2u);
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_TRUE(m.ok());
  BitMatrix expected(10);
  expected.SetRowRange(0, 2, 7);
  expected.Set(3, 0);
  ExpectSameCells(*m, expected, "Builder");
}

TEST(SparseMatrixTest, BuilderAppendBitsExtractsMaximalRuns) {
  Rng rng(13);
  const std::size_t n = 129;
  BitMatrix d = RandomDense(rng, n, 30);
  SparseBoolMatrix::Builder b(n);
  for (std::size_t r = 0; r < n; ++r) {
    ASSERT_TRUE(b.AppendBits(static_cast<std::uint32_t>(r), d.Row(r)));
  }
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_TRUE(m.ok());
  ExpectSameCells(*m, d, "AppendBits");
}

TEST(SparseMatrixTest, BuilderBudgetOverflowPoisonsTheBuild) {
  SparseBoolMatrix::Builder b(100, /*max_runs=*/2);
  EXPECT_TRUE(b.Append(0, 0, 2));
  EXPECT_TRUE(b.Append(0, 4, 6));
  EXPECT_FALSE(b.Append(0, 8, 10));  // third disjoint run: over budget
  Result<SparseBoolMatrix> m = b.Finish();
  ASSERT_FALSE(m.ok());
  EXPECT_EQ(m.status().code(), StatusCode::kResourceExhausted);
}

TEST(SparseMatrixTest, MaskedStepsAgreeOnBothBackings) {
  Tree t = *Tree::ParseTerm("a(b(c,a),c(a,b(a)))");
  AxisCache runs(t, MatrixRepr::kSparse);
  AxisCache dense(t, MatrixRepr::kDense);
  for (Axis axis : kAllAxes) {
    ASSERT_FALSE(runs.Matrix(axis).is_dense());
    ASSERT_TRUE(dense.Matrix(axis).is_dense());
    for (const char* name : {"", "*", "a"}) {
      const std::string ctx = std::string(AxisName(axis)) + "::" + name;
      Result<BitMatrix> truth = dense.DenseStep(axis, name);
      ASSERT_TRUE(truth.ok()) << ctx;
      EXPECT_EQ(runs.DenseStep(axis, name).value(), *truth) << ctx;
      for (AxisCache* cache : {&runs, &dense}) {
        Result<SparseBoolMatrix> s = cache->SparseStep(axis, name);
        ASSERT_TRUE(s.ok()) << ctx;
        ExpectSameCells(*s, *truth, ctx.c_str());
      }
    }
    // The unmasked step is the axis relation itself.
    EXPECT_EQ(dense.DenseStep(axis, "").value(), dense.Matrix(axis).dense());
  }
  // A run budget below the step's run count fails the build.
  for (AxisCache* cache : {&runs, &dense}) {
    for (const char* name : {"", "a"}) {
      Result<SparseBoolMatrix> s =
          cache->SparseStep(Axis::kDescendant, name, /*max_runs=*/1);
      ASSERT_FALSE(s.ok()) << name;
      EXPECT_EQ(s.status().code(), StatusCode::kResourceExhausted);
    }
  }
}

TEST(SparseMatrixTest, MultiplyMatchesDenseProduct) {
  Rng rng(17);
  for (std::size_t n : {1u, 7u, 64u, 100u}) {
    for (int trial = 0; trial < 4; ++trial) {
      BitMatrix a = RandomDense(rng, n, 1 + rng.Below(40));
      BitMatrix b = RandomDense(rng, n, 1 + rng.Below(40));
      const BitMatrix truth = a.Multiply(b);
      SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
      SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
      Result<SparseBoolMatrix> product = sa.Multiply(sb);
      ASSERT_TRUE(product.ok());
      ExpectSameCells(*product, truth, "sparse x sparse");
      EXPECT_EQ(sa.MultiplyDense(b), truth);
      EXPECT_EQ(sb.MultiplyDenseLeft(a), truth);
    }
  }
}

TEST(SparseMatrixTest, MultiplyDenseAccumulatorFallbackIsExact) {
  // Checkerboard rows carry n/2 runs each, far past the per-row gather
  // threshold max(kDenseAccumMinRuns, n / kDenseAccumRunFactor): every
  // output row takes the dense-accumulator path and must still match the
  // dense product bit for bit.
  const std::size_t n = 256;
  BitMatrix a = Checkerboard(n);
  BitMatrix b = Checkerboard(n);
  SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
  SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
  ASSERT_GT(sa.num_runs() / n,
            SparseBoolMatrix::kDenseAccumMinRuns / 2);  // fallback territory
  Result<SparseBoolMatrix> product = sa.Multiply(sb);
  ASSERT_TRUE(product.ok());
  ExpectSameCells(*product, a.Multiply(b), "fallback product");
}

TEST(SparseMatrixTest, MultiplyRespectsTheRunBudget) {
  const std::size_t n = 128;
  SparseBoolMatrix a = SparseBoolMatrix::FromDense(Checkerboard(n));
  // The checkerboard is idempotent under boolean product, so the result
  // carries n/2 runs per row (n^2/2 total). A budget of n/2 must trip
  // kResourceExhausted, not truncate.
  Result<SparseBoolMatrix> over = a.Multiply(a, /*max_runs=*/n / 2);
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  Result<SparseBoolMatrix> under = a.Multiply(a, /*max_runs=*/n * n);
  ASSERT_TRUE(under.ok());
  ExpectSameCells(*under, Checkerboard(n).Multiply(Checkerboard(n)),
                  "budgeted product");
}

TEST(SparseMatrixTest, OrComplementFilterDiagonalMatchDense) {
  Rng rng(23);
  for (std::size_t n : {1u, 65u, 100u}) {
    for (int trial = 0; trial < 4; ++trial) {
      BitMatrix a = RandomDense(rng, n, rng.Below(60));
      BitMatrix b = RandomDense(rng, n, rng.Below(60));
      SparseBoolMatrix sa = SparseBoolMatrix::FromDense(a);
      SparseBoolMatrix sb = SparseBoolMatrix::FromDense(b);
      Result<SparseBoolMatrix> united = sa.Or(sb);
      ASSERT_TRUE(united.ok());
      ExpectSameCells(*united, a.Or(b), "Or");
      ExpectSameCells(sa.Complement(), a.Complement(), "Complement");
      ExpectSameCells(sa.FilterDiagonal(), a.FilterDiagonal(),
                      "FilterDiagonal");
      BitMatrix acc = b;
      sa.OrInto(acc);
      EXPECT_EQ(acc, a.Or(b));
    }
  }
  // Gap inversion edges: complement of empty is full, and involution.
  SparseBoolMatrix empty = SparseBoolMatrix::FromDense(BitMatrix(65));
  ExpectSameCells(empty.Complement(), BitMatrix::Full(65), "empty^c");
  ExpectSameCells(empty.Complement().Complement(), BitMatrix(65), "(m^c)^c");
}

TEST(SparseMatrixTest, ReadKernelsAgreeWithDense) {
  Rng rng(29);
  const std::size_t n = 90;
  BitMatrix d = RandomDense(rng, n, 20);
  SparseBoolMatrix s = SparseBoolMatrix::FromDense(d);
  BitVector from(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.Chance(1, 3)) from.Set(i);
  }
  EXPECT_EQ(s.ImageOf(from), d.ImageOf(from));
  EXPECT_EQ(s.NonEmptyRows(), d.NonEmptyRows());
  EXPECT_EQ(s.AndOfRows(from), d.AndOfRows(from));
  EXPECT_EQ(s.RowsContaining(from), d.RowsContaining(from));
  EXPECT_EQ(s.resident_bytes() > 0, d.Count() > 0);
}

}  // namespace
}  // namespace xpv
