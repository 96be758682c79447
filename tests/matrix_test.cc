// Tests for the Matrix container and GEMM kernels, validated against a naive
// triple-loop reference across all transpose combinations.
#include "src/tensor/matrix.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/util/rng.h"

namespace cloudgen {
namespace {

Matrix RandomMatrix(size_t rows, size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  m.RandomUniform(rng, 1.0f);
  return m;
}

// Reference GEMM: C = alpha * op(A) op(B) + beta * C.
Matrix ReferenceGemm(bool ta, bool tb, float alpha, const Matrix& a, const Matrix& b,
                     float beta, const Matrix& c0) {
  const Matrix aa = ta ? a.Transposed() : a;
  const Matrix bb = tb ? b.Transposed() : b;
  Matrix c = c0;
  for (size_t i = 0; i < aa.Rows(); ++i) {
    for (size_t j = 0; j < bb.Cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < aa.Cols(); ++k) {
        acc += static_cast<double>(aa(i, k)) * bb(k, j);
      }
      c(i, j) = alpha * static_cast<float>(acc) + beta * c0(i, j);
    }
  }
  return c;
}

TEST(Matrix, BasicAccessorsAndFill) {
  Matrix m(3, 4, 2.0f);
  EXPECT_EQ(m.Rows(), 3u);
  EXPECT_EQ(m.Cols(), 4u);
  EXPECT_EQ(m.Size(), 12u);
  EXPECT_FLOAT_EQ(m.At(2, 3), 2.0f);
  m.SetZero();
  EXPECT_FLOAT_EQ(m.At(0, 0), 0.0f);
  m(1, 2) = 5.0f;
  EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
}

TEST(Matrix, ScaleAddAxpy) {
  Matrix a(2, 2, 1.0f);
  Matrix b(2, 2, 3.0f);
  a.Scale(2.0f);
  a.Add(b);
  EXPECT_FLOAT_EQ(a(0, 0), 5.0f);
  a.Axpy(-0.5f, b);
  EXPECT_FLOAT_EQ(a(1, 1), 3.5f);
  EXPECT_NEAR(a.SquaredNorm(), 4 * 3.5 * 3.5, 1e-5);
}

// The storage starts on a cache line, below and above the 128 KiB at which
// malloc takes blocks from mmap (1x256 floats is 1 KiB; the lifetime layer's
// 156x256 input weights are 156 KiB), and stays there through Resize,
// copies and moves.
TEST(Matrix, StorageIsCacheLineAligned) {
  const auto aligned = [](const Matrix& m) {
    return reinterpret_cast<uintptr_t>(m.Data()) % 64 == 0;
  };
  for (const size_t rows : {size_t{1}, size_t{3}, size_t{156}, size_t{1024}}) {
    SCOPED_TRACE("rows " + std::to_string(rows));
    Matrix m(rows, 256, 1.0f);
    EXPECT_TRUE(aligned(m));
    m.Resize(rows + 2, 259);
    EXPECT_TRUE(aligned(m));
    Matrix copy(1, 5);
    copy = m;
    EXPECT_TRUE(aligned(copy));
    const Matrix constructed(copy);
    EXPECT_TRUE(aligned(constructed));
    const Matrix moved(std::move(copy));
    EXPECT_TRUE(aligned(moved));
    Matrix assigned(2, 2);
    assigned = std::move(m);
    EXPECT_TRUE(aligned(assigned));
  }
}

TEST(Matrix, TransposedCorrect) {
  Rng rng(5);
  const Matrix m = RandomMatrix(3, 5, rng);
  const Matrix t = m.Transposed();
  ASSERT_EQ(t.Rows(), 5u);
  ASSERT_EQ(t.Cols(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 5; ++c) {
      EXPECT_FLOAT_EQ(m(r, c), t(c, r));
    }
  }
}

// All four transpose combinations, with nontrivial alpha/beta, across shapes.
class GemmTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {};

TEST_P(GemmTest, MatchesReference) {
  const auto [ta, tb, m, k, n] = GetParam();
  Rng rng(99);
  const Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
  const Matrix b = tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
  Matrix c = RandomMatrix(m, n, rng);
  const Matrix expected = ReferenceGemm(ta, tb, 0.75f, a, b, -0.5f, c);
  Gemm(ta, tb, 0.75f, a, b, -0.5f, &c);
  for (size_t i = 0; i < c.Rows(); ++i) {
    for (size_t j = 0; j < c.Cols(); ++j) {
      EXPECT_NEAR(c(i, j), expected(i, j), 1e-4f) << "at " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesAndTransposes, GemmTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(), ::testing::Values(1, 3, 8),
                       ::testing::Values(1, 5), ::testing::Values(2, 7)));

// The seed kernels short-circuited `a == 0` inner loops, which silently
// swallowed NaN/Inf in the other operand (0 * NaN must be NaN). A poisoned
// weight matrix has to surface through matmuls so the training divergence
// watchdog can see it; these pin the fix for every transpose combination and
// for the reference oracle.
class GemmNanTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmNanTest, ZeroTimesNanPropagates) {
  const auto [ta, tb] = GetParam();
  // A is all zeros; B carries a NaN in one full column tile and one in the
  // column tail (N 39 leaves a tail at every tile width: 32, 8 and 4 lanes).
  // Every output column touching a NaN must be NaN even though every
  // product has a zero factor. M crosses the 8-row and 4-row panels and the
  // rows left over for the GEMV strip.
  constexpr size_t kK = 6;
  constexpr size_t kN = 39;
  const size_t poisoned_cols[] = {3, kN - 2};
  for (const size_t m : {size_t{4}, size_t{5}, size_t{9}, size_t{13}}) {
    Matrix a(ta ? kK : m, ta ? m : kK, 0.0f);
    Matrix b(tb ? kN : kK, tb ? kK : kN, 1.0f);
    for (const size_t col : poisoned_cols) {
      if (tb) {
        b(col, 2) = std::nanf("");
      } else {
        b(2, col) = std::nanf("");
      }
    }
    Matrix c(m, kN, 0.0f);
    Gemm(ta, tb, 1.0f, a, b, 0.0f, &c);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < kN; ++j) {
        if (j == poisoned_cols[0] || j == poisoned_cols[1]) {
          EXPECT_TRUE(std::isnan(c(i, j))) << "NaN swallowed at m=" << m << " " << i << "," << j;
        } else {
          EXPECT_FLOAT_EQ(c(i, j), 0.0f);
        }
      }
    }
    // The reference oracle must propagate identically.
    Matrix cref(m, kN, 0.0f);
    GemmReference(ta, tb, 1.0f, a, b, 0.0f, &cref);
    for (size_t i = 0; i < m; ++i) {
      for (const size_t col : poisoned_cols) {
        EXPECT_TRUE(std::isnan(cref(i, col))) << "reference swallowed NaN row " << i;
      }
    }
  }
}

TEST_P(GemmNanTest, NanInZeroRowOfAPropagates) {
  const auto [ta, tb] = GetParam();
  // Mirror case: the NaN sits in A while B holds the zeros.
  constexpr size_t kK = 5;
  constexpr size_t kN = 3;
  for (const size_t m : {size_t{4}, size_t{5}, size_t{9}, size_t{13}}) {
    for (const size_t poisoned_row : {size_t{1}, m - 1}) {
      Matrix a(ta ? kK : m, ta ? m : kK, 1.0f);
      if (ta) {
        a(2, poisoned_row) = std::nanf("");
      } else {
        a(poisoned_row, 2) = std::nanf("");
      }
      Matrix b(tb ? kN : kK, tb ? kK : kN, 0.0f);
      Matrix c(m, kN, 0.0f);
      Gemm(ta, tb, 1.0f, a, b, 0.0f, &c);
      for (size_t j = 0; j < kN; ++j) {
        EXPECT_TRUE(std::isnan(c(poisoned_row, j)))
            << "NaN swallowed at m=" << m << " row " << poisoned_row << " col " << j;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmNanTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

// Gemm's kernels must agree with the plain reference kernels on shapes that
// exercise full tiles and edge tiles in every transpose mode.
class GemmOracleTest
    : public ::testing::TestWithParam<std::tuple<bool, bool, int, int, int>> {};

TEST_P(GemmOracleTest, BlockedMatchesReferenceKernels) {
  const auto [ta, tb, m, k, n] = GetParam();
  Rng rng(2024);
  const Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
  const Matrix b = tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
  Matrix c = RandomMatrix(m, n, rng);
  Matrix cref = c;
  Gemm(ta, tb, 1.25f, a, b, 0.5f, &c);
  GemmReference(ta, tb, 1.25f, a, b, 0.5f, &cref);
  for (size_t i = 0; i < c.Rows(); ++i) {
    for (size_t j = 0; j < c.Cols(); ++j) {
      EXPECT_NEAR(c(i, j), cref(i, j), 2e-3f) << "at " << i << "," << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    TileAndEdgeShapes, GemmOracleTest,
    ::testing::Combine(::testing::Bool(), ::testing::Bool(),
                       ::testing::Values(4, 37, 64), ::testing::Values(19, 48),
                       ::testing::Values(16, 33)));

// Every row of an M-row product must be memcmp-equal to the same row
// computed alone: generated traces are byte-identical whether a row was
// stepped alone, in a batch of any size, or in training's forward pass. M
// spans both panel heights (8 and 4) and every count of rows left over for
// the GEMV strip; K crosses the 8-partial dot chain width; N crosses the
// register tile's width (the column tail) and the GEMV strip's 512 columns.
// memcmp (not EXPECT_EQ on floats) so a -0.0/+0.0 divergence cannot hide.
class GemmRowInvarianceTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmRowInvarianceTest, EachRowMatchesTheRowComputedAlone) {
  const auto [ta, tb] = GetParam();
  const size_t ks[] = {1, 5, 8, 19, 33};
  const size_t ns[] = {1, 3, 17, 32, 47, 64, 513};
  const float alphas[] = {1.0f, 0.5f};
  const float betas[] = {0.0f, 1.0f, 0.7f};
  Rng rng(4242);
  for (size_t m = 1; m <= 20; ++m) {
    for (size_t k : ks) {
      for (size_t n : ns) {
        const Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
        const Matrix b = tb ? RandomMatrix(n, k, rng) : RandomMatrix(k, n, rng);
        const Matrix c0 = RandomMatrix(m, n, rng);
        for (float alpha : alphas) {
          for (float beta : betas) {
            Matrix c = c0;
            Gemm(ta, tb, alpha, a, b, beta, &c);
            for (size_t i = 0; i < m; ++i) {
              // Row i of op(A) as a one-row operand in the same layout.
              Matrix a_row = ta ? Matrix(k, 1) : Matrix(1, k);
              for (size_t p = 0; p < k; ++p) {
                a_row.Data()[p] = ta ? a(p, i) : a(i, p);
              }
              Matrix c_row(1, n);
              std::memcpy(c_row.Data(), c0.Row(i), n * sizeof(float));
              Gemm(ta, tb, alpha, a_row, b, beta, &c_row);
              ASSERT_EQ(std::memcmp(c.Row(i), c_row.Data(), n * sizeof(float)), 0)
                  << "ta=" << ta << " tb=" << tb << " m=" << m << " row=" << i
                  << " k=" << k << " n=" << n << " alpha=" << alpha << " beta=" << beta;
            }
            // And numerically sane against the double-accumulation oracle.
            Matrix c_ref = c0;
            GemmReference(ta, tb, alpha, a, b, beta, &c_ref);
            for (size_t i = 0; i < c.Size(); ++i) {
              ASSERT_NEAR(c.Data()[i], c_ref.Data()[i], 2e-3f)
                  << "ta=" << ta << " tb=" << tb << " m=" << m << " k=" << k
                  << " n=" << n;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmRowInvarianceTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

// A^T B^T is the NT product on a materialized A^T, bit for bit, at every
// row count.
TEST(GemmTransposeBoth, MatchesNtOnMaterializedTranspose) {
  const size_t ks[] = {1, 5, 8, 19, 33, 130};
  const size_t ns[] = {1, 3, 17, 47};
  Rng rng(77);
  for (size_t m = 1; m <= 20; ++m) {
    for (size_t k : ks) {
      for (size_t n : ns) {
        const Matrix a = RandomMatrix(k, m, rng);
        const Matrix b = RandomMatrix(n, k, rng);
        const Matrix c0 = RandomMatrix(m, n, rng);
        for (float beta : {0.0f, 0.7f}) {
          Matrix c = c0;
          Matrix c_nt = c0;
          Gemm(true, true, 0.5f, a, b, beta, &c);
          Gemm(false, true, 0.5f, a.Transposed(), b, beta, &c_nt);
          ASSERT_EQ(std::memcmp(c.Data(), c_nt.Data(), c.Size() * sizeof(float)), 0)
              << "m=" << m << " k=" << k << " n=" << n << " beta=" << beta;
        }
      }
    }
  }
}

// One step of the chain, acc + (alpha * a) * b, as the build's kernels must
// round it: one fused multiply-add on a build with FMA, a rounded product
// and then a rounded sum on a build without. Spelled out rather than left
// to the compiler, which may vectorize the products of a scalar reduction
// loop unfused and contract others.
float ChainStep(float acc, float av, float b) {
#if defined(__FMA__)
  return std::fma(av, b, acc);
#else
  return acc + av * b;
#endif
}

// The chain every NN and TN output element computes, written out as scalar
// source: a zeroed accumulator, p ascending, acc += (alpha * a) * b, then
// the beta-applied C plus acc. C is scaled by Matrix::Scale out of line, so
// the final add cannot fuse with the beta multiply.
Matrix ChainOracle(bool ta, float alpha, const Matrix& a, const Matrix& b, float beta,
                   const Matrix& c0) {
  Matrix c = c0;
  if (beta == 0.0f) {
    c.SetZero();
  } else if (beta != 1.0f) {
    c.Scale(beta);
  }
  const size_t k = b.Rows();
  for (size_t i = 0; i < c.Rows(); ++i) {
    for (size_t j = 0; j < c.Cols(); ++j) {
      float acc = 0.0f;
      for (size_t p = 0; p < k; ++p) {
        acc = ChainStep(acc, alpha * (ta ? a(p, i) : a(i, p)), b(p, j));
      }
      c(i, j) += acc;
    }
  }
  return c;
}

class GemmChainOracleTest : public ::testing::TestWithParam<bool> {};

TEST_P(GemmChainOracleTest, NnAndTnEqualTheScalarChain) {
  const bool ta = GetParam();
  // M crosses both panel heights and the leftover rows; K crosses the
  // packed panel's 256-deep chunk; N crosses the column tail.
  const size_t ms[] = {1, 3, 4, 7, 8, 9, 12, 13, 17, 20};
  const size_t ks[] = {1, 3, 19, 64, 156, 257};
  const size_t ns[] = {1, 17, 32, 47, 64, 273};
  Rng rng(31337);
  for (size_t m : ms) {
    for (size_t k : ks) {
      for (size_t n : ns) {
        const Matrix a = ta ? RandomMatrix(k, m, rng) : RandomMatrix(m, k, rng);
        const Matrix b = RandomMatrix(k, n, rng);
        const Matrix c0 = RandomMatrix(m, n, rng);
        for (float alpha : {1.0f, 0.75f}) {
          for (float beta : {0.0f, 1.0f, 0.7f}) {
            Matrix c = c0;
            Gemm(ta, false, alpha, a, b, beta, &c);
            const Matrix expected = ChainOracle(ta, alpha, a, b, beta, c0);
            ASSERT_EQ(std::memcmp(c.Data(), expected.Data(), c.Size() * sizeof(float)), 0)
                << "ta=" << ta << " m=" << m << " k=" << k << " n=" << n
                << " alpha=" << alpha << " beta=" << beta;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(NnAndTn, GemmChainOracleTest, ::testing::Bool());

// NaN propagation through the GEMV strip that products with fewer rows than
// a panel run: a zero row in A times a NaN in B must still produce NaN.
class GemmSmallMNanTest : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(GemmSmallMNanTest, ZeroTimesNanPropagatesAtSmallM) {
  const auto [ta, tb] = GetParam();
  constexpr size_t kK = 6;
  constexpr size_t kN = 7;
  const size_t poisoned_col = 3;
  for (size_t m = 1; m <= 3; ++m) {
    Matrix a(ta ? kK : m, ta ? m : kK, 0.0f);
    Matrix b(tb ? kN : kK, tb ? kK : kN, 1.0f);
    if (tb) {
      b(poisoned_col, 2) = std::nanf("");
    } else {
      b(2, poisoned_col) = std::nanf("");
    }
    Matrix c(m, kN, 0.0f);
    Gemm(ta, tb, 1.0f, a, b, 0.0f, &c);
    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < kN; ++j) {
        if (j == poisoned_col) {
          EXPECT_TRUE(std::isnan(c(i, j))) << "NaN swallowed at m=" << m;
        } else {
          EXPECT_FLOAT_EQ(c(i, j), 0.0f);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllTransposes, GemmSmallMNanTest,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

TEST(GemvAccumulate, AccumulatesOnTopOfExistingValues) {
  // Contract: acc[j] += sum_p x[p] * W(p, j), without zeroing acc first. The
  // bitwise guarantees of the workspace step are pinned by the Gemm row
  // invariance and chain suites above and the workspace-route tests in
  // nn_test; here we check the accumulate semantics numerically.
  Rng rng(11);
  const Matrix x = RandomMatrix(1, 9, rng);
  const Matrix w = RandomMatrix(9, 13, rng);
  const Matrix acc0 = RandomMatrix(1, 13, rng);
  Matrix acc = acc0;
  GemvAccumulate(x.Row(0), 9, w.Row(0), 13, 13, acc.Row(0));
  for (size_t j = 0; j < 13; ++j) {
    double expected = acc0.At(0, j);
    for (size_t p = 0; p < 9; ++p) {
      expected += static_cast<double>(x.At(0, p)) * w.At(p, j);
    }
    EXPECT_NEAR(acc.At(0, j), expected, 1e-4);
  }

  // A column span of a wider matrix (row stride ldw > n, first column > 0)
  // is bitwise-identical to the same columns of a full-width call, although
  // the kernel's register chunks fall on different columns in the two calls.
  constexpr size_t kWide = 150;
  constexpr size_t kFirst = 37;
  constexpr size_t kSpan = 90;
  const Matrix wide = RandomMatrix(9, kWide, rng);
  const Matrix wide_acc0 = RandomMatrix(1, kWide, rng);
  Matrix full = wide_acc0;
  GemvAccumulate(x.Row(0), 9, wide.Row(0), kWide, kWide, full.Row(0));
  std::vector<float> span(wide_acc0.Row(0) + kFirst, wide_acc0.Row(0) + kFirst + kSpan);
  GemvAccumulate(x.Row(0), 9, wide.Row(0) + kFirst, kWide, kSpan, span.data());
  EXPECT_EQ(std::memcmp(span.data(), full.Row(0) + kFirst, kSpan * sizeof(float)), 0);
}

TEST(Gemm, BetaZeroOverwritesGarbage) {
  Rng rng(3);
  const Matrix a = RandomMatrix(2, 3, rng);
  const Matrix b = RandomMatrix(3, 4, rng);
  Matrix c(2, 4, std::nanf(""));
  Gemm(false, false, 1.0f, a, b, 0.0f, &c);
  for (size_t i = 0; i < c.Size(); ++i) {
    EXPECT_FALSE(std::isnan(c.Data()[i]));
  }
}

TEST(Matrix, SerializationRoundTrip) {
  Rng rng(77);
  const Matrix m = RandomMatrix(4, 6, rng);
  std::stringstream stream;
  WriteMatrix(stream, m);
  const Matrix loaded = ReadMatrix(stream);
  ASSERT_TRUE(loaded.SameShape(m));
  for (size_t i = 0; i < m.Size(); ++i) {
    EXPECT_FLOAT_EQ(m.Data()[i], loaded.Data()[i]);
  }
}

}  // namespace
}  // namespace cloudgen
