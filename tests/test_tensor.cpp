// Tensor library tests: Matrix semantics, GEMM kernels against the
// triple-loop reference (parameterized shape sweep), elementwise ops.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/gemm.hpp"
#include "tensor/matrix.hpp"
#include "tensor/ops.hpp"
#include "util/rng.hpp"

namespace gsgcn::tensor {
namespace {

Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return Matrix::gaussian(r, c, 1.0f, rng);
}

TEST(Matrix, ZeroInitialized) {
  const Matrix m(3, 4);
  for (std::size_t i = 0; i < m.size(); ++i) EXPECT_EQ(m.data()[i], 0.0f);
}

TEST(Matrix, DeepCopy) {
  Matrix a = random_matrix(4, 5, 1);
  Matrix b = a;
  b(0, 0) += 1.0f;
  EXPECT_NE(a(0, 0), b(0, 0));
  EXPECT_EQ(Matrix::max_abs_diff(a, a), 0.0f);
}

TEST(Matrix, MoveLeavesSourceEmpty) {
  Matrix a = random_matrix(4, 5, 2);
  Matrix b = std::move(a);
  EXPECT_EQ(b.rows(), 4u);
  EXPECT_EQ(a.size(), 0u);
}

TEST(Matrix, ResizeUninitializedIsGrowOnly) {
  Matrix m(4, 8);
  const float* storage = m.data();
  m.resize_uninitialized(2, 16);  // same size, new shape
  EXPECT_EQ(m.data(), storage);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 16u);
  m.resize_uninitialized(3, 5);  // smaller: keeps the allocation
  EXPECT_EQ(m.data(), storage);
  EXPECT_EQ(m.size(), 15u);
  EXPECT_EQ(m.capacity(), 32u);
  m.fill(2.0f);  // touches only the live entries
  const Matrix copy = m;
  EXPECT_EQ(copy.size(), 15u);
  EXPECT_EQ(copy(2, 4), 2.0f);
  m.resize_uninitialized(5, 8);  // larger: grows
  EXPECT_EQ(m.size(), 40u);
  EXPECT_GE(m.capacity(), 40u);
}

TEST(Matrix, MaxAbsDiffShapeMismatchIsInf) {
  EXPECT_TRUE(std::isinf(Matrix::max_abs_diff(Matrix(2, 2), Matrix(2, 3))));
}

TEST(Matrix, GlorotWithinBound) {
  util::Xoshiro256 rng(3);
  const Matrix m = Matrix::glorot(64, 64, rng);
  const float bound = std::sqrt(6.0f / 128.0f);
  for (std::size_t i = 0; i < m.size(); ++i) {
    EXPECT_LE(std::abs(m.data()[i]), bound);
  }
}

TEST(Matrix, FrobeniusNorm) {
  Matrix m(2, 2);
  m(0, 0) = 3.0f;
  m(1, 1) = 4.0f;
  EXPECT_FLOAT_EQ(m.frobenius_norm(), 5.0f);
}

// ---- GEMM: parameterized shape sweep vs reference ----

using GemmShape = std::tuple<int, int, int>;  // M, K, N

class GemmSweep : public ::testing::TestWithParam<GemmShape> {};

TEST_P(GemmSweep, NnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 10);
  const Matrix b = random_matrix(k, n, 11);
  Matrix c(m, n), ref(m, n);
  gemm_nn(a, b, c);
  reference::gemm_nn(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, TnMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(k, m, 12);  // used transposed
  const Matrix b = random_matrix(k, n, 13);
  Matrix c(m, n), ref(m, n);
  gemm_tn(a, b, c);
  reference::gemm_tn(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, NtMatchesReference) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 14);
  const Matrix b = random_matrix(n, k, 15);  // used transposed
  Matrix c(m, n), ref(m, n);
  gemm_nt(a, b, c);
  reference::gemm_nt(a, b, ref);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 1e-3f * static_cast<float>(k));
}

TEST_P(GemmSweep, MultithreadedMatchesSingle) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 16);
  const Matrix b = random_matrix(k, n, 17);
  Matrix c1(m, n), c4(m, n);
  gemm_nn(a, b, c1, 1.0f, 0.0f, 1);
  gemm_nn(a, b, c4, 1.0f, 0.0f, 4);
  EXPECT_EQ(Matrix::max_abs_diff(c1, c4), 0.0f);  // identical fp order
}

TEST_P(GemmSweep, RowSubsetMatchesFullRowsBitForBit) {
  const auto [m, k, n] = GetParam();
  const Matrix a = random_matrix(m, k, 18);
  const Matrix b = random_matrix(k, n, 19);
  Matrix full(m, n);
  gemm_nn(a, b, full, 1.0f, 0.0f, 1, Epilogue::kRelu);
  // Reversed, with the first row repeated: order and duplicates are free.
  std::vector<std::uint32_t> rows;
  for (std::size_t i = m; i-- > 0;) rows.push_back(static_cast<std::uint32_t>(i));
  rows.push_back(0);
  for (const int threads : {1, 4}) {
    Matrix c(rows.size(), n);
    gemm_nn_rows(a, rows, b, c, 1.0f, 0.0f, threads, Epilogue::kRelu);
    for (std::size_t i = 0; i < rows.size(); ++i) {
      EXPECT_EQ(std::memcmp(c.row(i), full.row(rows[i]), n * sizeof(float)), 0)
          << "row " << i << " threads " << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmSweep,
    ::testing::Values(GemmShape{1, 1, 1}, GemmShape{3, 5, 7},
                      GemmShape{8, 8, 8}, GemmShape{17, 33, 9},
                      GemmShape{64, 50, 121}, GemmShape{100, 256, 31},
                      GemmShape{5, 1, 5}, GemmShape{1, 128, 1}));

TEST(Gemm, AlphaBetaSemantics) {
  const Matrix a = random_matrix(4, 6, 20);
  const Matrix b = random_matrix(6, 5, 21);
  Matrix c = random_matrix(4, 5, 22);
  Matrix expect = c;
  Matrix ab(4, 5);
  reference::gemm_nn(a, b, ab);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect.data()[i] = 2.0f * ab.data()[i] + 0.5f * expect.data()[i];
  }
  gemm_nn(a, b, c, 2.0f, 0.5f);
  EXPECT_LT(Matrix::max_abs_diff(c, expect), 1e-3f);
}

TEST(Gemm, RowSubsetRejectsOutOfRangeRow) {
  const Matrix a = random_matrix(4, 3, 25);
  const Matrix b = random_matrix(3, 2, 26);
  Matrix c(2, 2);
  const std::vector<std::uint32_t> rows = {1, 4};
  EXPECT_THROW(gemm_nn_rows(a, rows, b, c), std::out_of_range);
}

TEST(Gemm, BetaZeroIgnoresGarbage) {
  const Matrix a = random_matrix(3, 3, 23);
  const Matrix b = random_matrix(3, 3, 24);
  Matrix c(3, 3);
  c.fill(std::numeric_limits<float>::quiet_NaN());
  gemm_nn(a, b, c, 1.0f, 0.0f);
  for (std::size_t i = 0; i < c.size(); ++i) {
    EXPECT_FALSE(std::isnan(c.data()[i]));
  }
}

// ---- GEMM property sweep: every (m, k, n) from an odd-shape set, all
// three orientations, several alpha/beta combos and thread counts, all
// against the triple-loop reference. The shape set is chosen to exercise
// every packing edge case of the blocked kernel: sub-tile (< Mr, < Nr),
// exact-tile (8, 16, 64), one-past-tile (9, 17, 65) and near-block sizes.

constexpr int kOddSizes[] = {1, 5, 7, 8, 9, 16, 17, 63, 64, 65};

TEST(GemmProperty, OddShapeSweepAllOrientations) {
  const Matrix pool_a = random_matrix(65, 65, 50);
  const Matrix pool_b = random_matrix(65, 65, 51);
  auto take = [](const Matrix& pool, int r, int c) {
    Matrix m(r, c);
    for (int i = 0; i < r; ++i) {
      for (int j = 0; j < c; ++j) {
        m(i, j) = pool(static_cast<std::size_t>(i), static_cast<std::size_t>(j));
      }
    }
    return m;
  };
  for (const int m : kOddSizes) {
    for (const int k : kOddSizes) {
      for (const int n : kOddSizes) {
        const float tol = 1e-3f * static_cast<float>(k);
        {
          const Matrix a = take(pool_a, m, k), b = take(pool_b, k, n);
          Matrix c(m, n), ref(m, n);
          gemm_nn(a, b, c, 2.0f, 0.0f, 4);
          reference::gemm_nn(a, b, ref, 2.0f, 0.0f);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "nn " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = take(pool_a, k, m), b = take(pool_b, k, n);
          Matrix c(m, n), ref(m, n);
          gemm_tn(a, b, c, 1.0f, 0.0f, 4);
          reference::gemm_tn(a, b, ref);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "tn " << m << "x" << k << "x" << n;
        }
        {
          const Matrix a = take(pool_a, m, k), b = take(pool_b, n, k);
          Matrix c(m, n), ref(m, n);
          gemm_nt(a, b, c, 1.0f, 0.0f, 4);
          reference::gemm_nt(a, b, ref);
          ASSERT_LT(Matrix::max_abs_diff(c, ref), tol)
              << "nt " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(GemmProperty, AlphaBetaThreadCombos) {
  constexpr float kAlphas[] = {1.0f, 2.0f, -0.5f};
  constexpr float kBetas[] = {0.0f, 1.0f, 0.25f};
  constexpr int kThreads[] = {1, 2, 4, 8};
  // 97 rows × 300 cols of K cross both the Mc=96 and Kc=256 block edges.
  const Matrix a = random_matrix(97, 300, 52);
  const Matrix b = random_matrix(300, 33, 53);
  const Matrix c0 = random_matrix(97, 33, 54);
  for (const float alpha : kAlphas) {
    for (const float beta : kBetas) {
      Matrix ref = c0;
      reference::gemm_nn(a, b, ref, alpha, beta);
      Matrix first;
      for (const int threads : kThreads) {
        Matrix c = c0;
        gemm_nn(a, b, c, alpha, beta, threads);
        ASSERT_LT(Matrix::max_abs_diff(c, ref), 0.3f)
            << "alpha=" << alpha << " beta=" << beta << " p=" << threads;
        if (threads == 1) {
          first = c;
        } else {
          // Bit-identical across thread counts, not just close.
          ASSERT_EQ(Matrix::max_abs_diff(c, first), 0.0f)
              << "alpha=" << alpha << " beta=" << beta << " p=" << threads;
        }
      }
    }
  }
}

TEST(GemmProperty, TnNtBetaAccumulate) {
  const Matrix a = random_matrix(70, 19, 55);  // k=70 rows, m=19 (transposed)
  const Matrix b = random_matrix(70, 23, 56);
  Matrix c = random_matrix(19, 23, 57);
  Matrix ref = c;
  gemm_tn(a, b, c, 1.5f, 0.75f, 3);
  reference::gemm_tn(a, b, ref, 1.5f, 0.75f);
  EXPECT_LT(Matrix::max_abs_diff(c, ref), 0.1f);

  const Matrix x = random_matrix(21, 40, 58);
  const Matrix y = random_matrix(17, 40, 59);
  Matrix d = random_matrix(21, 17, 60);
  Matrix dref = d;
  gemm_nt(x, y, d, -1.0f, 2.0f, 3);
  reference::gemm_nt(x, y, dref, -1.0f, 2.0f);
  EXPECT_LT(Matrix::max_abs_diff(d, dref), 0.1f);
}

// ---- GEMM bit-identity goldens: all three orientations over the shapes
// of a layer's weight gradient (k = subgraph rows, crossing the Kc = 256
// block edge up to 2000; m crossing the Mc = 96 row block), each with
// beta ∈ {0, 1, 0.5}, with and without the fused ReLU, on 1–4 threads.
// The outputs must be memcmp-equal across thread counts, and the FNV-1a
// hash of each case (its six beta × epilogue outputs in order) must equal
// the one recorded from the K-serial blocked kernel: a kernel change that
// alters the summation order fails here, not only in an end-to-end loss.

constexpr int kGoldenKs[] = {1, 255, 256, 257, 1486, 2000};
constexpr int kGoldenMs[] = {1, 7, 96, 97, 300};
constexpr int kGoldenNs[] = {16, 33, 128};
constexpr const char* kGoldenOrients[] = {"nn", "tn", "nt"};

// Indexed [orientation][k][m][n] in the order of the arrays above.
constexpr std::uint64_t kGemmGoldens[] = {
    // nn, k = 1: one row per m, one column per n
    0x20c9384e3f3943abULL, 0x258c004f909b4cffULL, 0x83ee08c507a1c65eULL,
    0x0a68cc4770fabd47ULL, 0xfe3817d93a8dfcb0ULL, 0xd57da4574c4edcc8ULL,
    0xb922d06f3543d281ULL, 0x65fc02aeaeb00ec7ULL, 0x7cab07baaa74a84eULL,
    0x98056ffa676dff56ULL, 0xa9031a091c678e2cULL, 0x811ac8242fe8fad7ULL,
    0x8f0d22bc37c7be6fULL, 0x3fbd01218a100d6bULL, 0x755f3e92e6225472ULL,
    // nn, k = 255: one row per m, one column per n
    0x3653c6843786fde3ULL, 0xd7c0bb2b42373051ULL, 0x8e4d82cbfceed883ULL,
    0x0e0ac748245ee064ULL, 0xd3235f64b1f3b703ULL, 0xe34d29f1048b2d27ULL,
    0xd3c6c900afb1f67eULL, 0xe5f93ded03ce7958ULL, 0xe7ce1ab2e0d9d0d2ULL,
    0xf338c1b913d51f8dULL, 0x7532cba103e94f3aULL, 0x37868250242a0e98ULL,
    0xac75f9af902fef69ULL, 0xe136d0123660ad31ULL, 0x9ef1e5dba52c472bULL,
    // nn, k = 256: one row per m, one column per n
    0x01e8ba08cdf02152ULL, 0x69a86535de52a779ULL, 0x90382adedc449d1aULL,
    0x7188174cdc30b3daULL, 0xb239ffc5e1e98578ULL, 0x4097307e19496ab0ULL,
    0x76149e9d46e08cdeULL, 0x41ac0eeb529d92beULL, 0x02953ed7db2d0a5eULL,
    0xb0a9d207f9090498ULL, 0xc4ab1074677e537aULL, 0x83c0db2d94acd12bULL,
    0xcfbdf2f4edae6508ULL, 0x181ba41e62822dbfULL, 0xd5aabd9ff8eb07fdULL,
    // nn, k = 257: one row per m, one column per n
    0x0015b4d4c6437f34ULL, 0xdf590ec4d70f89d2ULL, 0xbbbd1d8506cdf727ULL,
    0xe6896cc2c3723b58ULL, 0x51dbcbab55fc4826ULL, 0x33a92b6d09f85ee2ULL,
    0xea33c60754a3740dULL, 0x6d2c6afe84d578c8ULL, 0xe61d774f029d98a6ULL,
    0xc5eeb4273a9c572eULL, 0xed3edea6023569d8ULL, 0xddb19b8899cf1d01ULL,
    0xdfa43955b9743ba8ULL, 0xfa4999bf087eb966ULL, 0xd28995f4e585a5d3ULL,
    // nn, k = 1486: one row per m, one column per n
    0x480d4c6fe38c6484ULL, 0xcc494f5f67aee3fdULL, 0x9291b48fc8d88446ULL,
    0xe9fdb867d058e800ULL, 0xfa5d64a224833957ULL, 0xc3320ca95a18ec08ULL,
    0xeee6b2e992c83762ULL, 0x8e539f00ab8258dbULL, 0x681e8d210412077fULL,
    0x8b112c5aaf62c38eULL, 0xf6d9a787306170a5ULL, 0x91395119c208091fULL,
    0x6727a03674084bbcULL, 0xfd01b5d153f8785fULL, 0x621bbc1dfa355872ULL,
    // nn, k = 2000: one row per m, one column per n
    0x198648d8cf5db027ULL, 0xd919899da5a12d63ULL, 0xa7b4143b4724b7fcULL,
    0x5996fd80621db3deULL, 0xdcc3a89925b1f2ebULL, 0x2d0e1c5aad2cf24eULL,
    0xb1323e50439cc7f3ULL, 0xd6594854395f5452ULL, 0x6f1d1b5f623fb2b0ULL,
    0x3879ece61db035baULL, 0x644c64b918abb8cdULL, 0x311d9267b4924c0dULL,
    0x162e4bc3ed6bf654ULL, 0x875d09e16339d2aeULL, 0x813256218bce3845ULL,
    // tn, k = 1: one row per m, one column per n
    0x21d32f45ee36b9edULL, 0xc7e03ee1661e26f2ULL, 0x97895f9b8c97a6c2ULL,
    0xef3a464efbf2718cULL, 0xb10545d3f2678387ULL, 0x974b6ae69007d586ULL,
    0x11f2ab731efe7af1ULL, 0x3d72ce4c9e3232d5ULL, 0x4870e2902e7c5957ULL,
    0xf8fe599f9587ffc5ULL, 0xdc4f71536af98f74ULL, 0xb1983cbc6b007f6cULL,
    0x0efba5ff81cd9654ULL, 0x223277ea305ba748ULL, 0x9c13e8dcf7cde881ULL,
    // tn, k = 255: one row per m, one column per n
    0xd89e4ad875c15cccULL, 0x5fbf16500443e667ULL, 0x6962d1038c15d127ULL,
    0x7e214cb93ebe534cULL, 0x4cbe9750ced4e8c9ULL, 0xe9957cd14ab39ba8ULL,
    0x290ce28495f1e1ceULL, 0xefd1e59993cb49afULL, 0x7503d3619c38d07aULL,
    0xae575c2b303a82c6ULL, 0x5f8540683af6ae96ULL, 0xa125f504a84554a0ULL,
    0x4aa4516bc351c777ULL, 0x8ef0731fa6dc5242ULL, 0x095b0e3b0d45a15fULL,
    // tn, k = 256: one row per m, one column per n
    0x76780f2a36204f41ULL, 0xdf79faa16b0e91fbULL, 0xa59f9894a829e116ULL,
    0x72f0dd25907588fdULL, 0xbfd50d64c521a790ULL, 0x60d7d91661cb2a93ULL,
    0x6b62ccc39ab9e02bULL, 0xb5b21da06ac5fdb7ULL, 0xd185f5e6374e4c7eULL,
    0x398cbde2be41c001ULL, 0xa19a09695b945884ULL, 0x279acea59339251dULL,
    0x0a79c124dfc035fcULL, 0x9f9bd54d89781948ULL, 0xa22711f1b9b42ebaULL,
    // tn, k = 257: one row per m, one column per n
    0x10daabf68cd02d87ULL, 0x2229af20f4f0fc6cULL, 0x26fa42d25bf9c2a6ULL,
    0x889c72046aad229bULL, 0x8050f00c3f355938ULL, 0xe1feb8420de3cbb3ULL,
    0x08bda9488bd4ae55ULL, 0xbfa60d6086d1ded0ULL, 0x1dcf27a91d17af02ULL,
    0xa4e600b880d66940ULL, 0xfc20021ebdc50624ULL, 0x58110af6ecb17891ULL,
    0xbdd62fa3a8102024ULL, 0xe6f43dd53d9d84faULL, 0x735aedffb537d4c5ULL,
    // tn, k = 1486: one row per m, one column per n
    0xcc73f54b6a1265bbULL, 0x0e99708a9111e767ULL, 0x1bfb830de99335a0ULL,
    0x2004e31fcacebb5aULL, 0x0cbe25cb4ff08f76ULL, 0xe05fcfa37d530fc2ULL,
    0x398822556541ba99ULL, 0x1007113a38f38226ULL, 0x57c080ea2e22facdULL,
    0x2b0ff7ec4bdce388ULL, 0x9313672f0d7956d1ULL, 0x1dc10e6c81d6cd83ULL,
    0xa78e5f2acd34bc84ULL, 0xdfb02d63a79e772eULL, 0x329eb4857e43ec4fULL,
    // tn, k = 2000: one row per m, one column per n
    0xb373d9b922f350baULL, 0x9c86a30ce70a2e92ULL, 0xc4cebcd260957102ULL,
    0xc092c08936201dd2ULL, 0x4f3cd6d0f9fa202cULL, 0x01e351d45f408d63ULL,
    0x4297800b0c81579eULL, 0x41e3ffec133ae075ULL, 0x1f0a7ffe0b7dc3f8ULL,
    0x84d02c2c562e7deeULL, 0xd74e41cbb40fdec7ULL, 0x98065a928004c751ULL,
    0x74dc632cee8804e6ULL, 0x56f25b202ea7d2aaULL, 0xafe10945cdc9fe60ULL,
    // nt, k = 1: one row per m, one column per n
    0xf3d9532ee2b10726ULL, 0x64bbd387b0ce4ce1ULL, 0x16b3d2a3adce03bdULL,
    0x2ccc41726d565a9eULL, 0xdf44edfcb3f5f8c4ULL, 0x78cfa8d50389ed9bULL,
    0xc860af979d7aaf79ULL, 0xcf646458a79a7bbfULL, 0x9b3b6f2643bda326ULL,
    0xae844918484b03a9ULL, 0xe7c53c65cba711b4ULL, 0xf357275517420660ULL,
    0xee3a77f2aeff4ce1ULL, 0xf5dd5ed2b612d438ULL, 0xa9612b5ae21623a4ULL,
    // nt, k = 255: one row per m, one column per n
    0x5a5e0e9315a04a32ULL, 0xbe32dfa9cfaca5bcULL, 0xc764dcebfc189a65ULL,
    0x91ba672f961445a8ULL, 0x71167d9a01d9fb0cULL, 0x0128a7995d1fd887ULL,
    0x824d71c5fb7fd27aULL, 0xfbc59436a12c2a44ULL, 0x89e4aa9ad62ce118ULL,
    0x274a20ea1ffe9bd9ULL, 0x5fbb9f2d58e77094ULL, 0x9cb149be1236049cULL,
    0x07c7e0b7ac20bccbULL, 0xf4863cd4e0533f17ULL, 0xece23b81c1678f96ULL,
    // nt, k = 256: one row per m, one column per n
    0xb8a09ce2fdd951dbULL, 0x332063cde64f15a6ULL, 0x89a5411d145c38fcULL,
    0x1b6943fb1aaeffa5ULL, 0x9fdad15a93ba0776ULL, 0x3bb15a9ca292c13fULL,
    0xa7060368cc46df42ULL, 0x92cf31978c9af9d8ULL, 0xece57cb4049c454bULL,
    0x7271b4cb71f16460ULL, 0x43bc32bdd6ceda38ULL, 0x3c773a9db3393c2cULL,
    0xe6dca973840bed36ULL, 0xa26595908fdb76dfULL, 0x729623a7a222ee66ULL,
    // nt, k = 257: one row per m, one column per n
    0x56a8581df05e4530ULL, 0x609d72707945df94ULL, 0x9ddebf7419fe8ff4ULL,
    0x14fdd67dfaca5bf4ULL, 0x28bf0e935f00d56dULL, 0x7724b0f4b5337facULL,
    0xb2fc8db18fa688c4ULL, 0x08983daa0d816601ULL, 0x91463ca71e4c6aa2ULL,
    0xb5caf620f8a00541ULL, 0x59de70036f87df22ULL, 0x16d15d3514d63700ULL,
    0xbdb7609787bf82caULL, 0x727fc57d57bb8baeULL, 0xe3a591843ec82d71ULL,
    // nt, k = 1486: one row per m, one column per n
    0x8259126faad7d534ULL, 0x679847870edde32fULL, 0x51b7beeb17ba15e6ULL,
    0x1c61e40a251e5ddfULL, 0x809b0d27e012a560ULL, 0x94c212e27c6a6885ULL,
    0x3f564555fc68d956ULL, 0x4a6677f8e18cc052ULL, 0x3c183958cf411273ULL,
    0xbf15be9cba8c9074ULL, 0x38de289d0dccc89fULL, 0xccba81ebcdc09cd5ULL,
    0x5e52f85f2719f7e8ULL, 0x80ad70fc5ceffccfULL, 0x4a640f60ad9c504dULL,
    // nt, k = 2000: one row per m, one column per n
    0x5e5d7285de3565b7ULL, 0x3e4eb4928eb2cd31ULL, 0xa7e9f96537a076daULL,
    0x84f4b53cfaa2aee5ULL, 0xc89fd982f17d7c52ULL, 0xaa9c83a566bd5beaULL,
    0x122bcb745fa7638eULL, 0xb7f439abbeb12c44ULL, 0x1878706056c1cda8ULL,
    0xa82959c0b1267580ULL, 0xf88829bc103fd2c6ULL, 0x1181d5e3d5b8f80dULL,
    0xf9830d14395b6195ULL, 0xae657e854c064251ULL, 0x5e3471671e3996d6ULL,
};
static_assert(std::size(kGemmGoldens) ==
              std::size(kGoldenOrients) * std::size(kGoldenKs) *
                  std::size(kGoldenMs) * std::size(kGoldenNs));

std::uint64_t fnv1a(const Matrix& x, std::uint64_t h) {
  const auto* p = reinterpret_cast<const unsigned char*>(x.data());
  for (std::size_t i = 0; i < x.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Uniform in [-1, 1) from integer draws only, so the inputs carry the
/// same bits under every build (no libm in the generator).
Matrix uniform_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  Matrix x(r, c);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = 2.0f * rng.uniformf() - 1.0f;
  }
  return x;
}

TEST(GemmProperty, BitIdentityGoldens) {
  constexpr float kBetas[] = {0.0f, 1.0f, 0.5f};
  std::size_t idx = 0;
  for (std::uint64_t o = 0; o < std::size(kGoldenOrients); ++o) {
    const char* orient = kGoldenOrients[o];
    for (const int k : kGoldenKs) {
      for (const int m : kGoldenMs) {
        for (const int n : kGoldenNs) {
          const std::uint64_t seed = (o << 48) ^
                                     (static_cast<std::uint64_t>(k) << 32) ^
                                     (static_cast<std::uint64_t>(m) << 16) ^
                                     static_cast<std::uint64_t>(n);
          const bool a_trans = o == 1, b_trans = o == 2;
          const Matrix a = a_trans ? uniform_matrix(k, m, seed)
                                   : uniform_matrix(m, k, seed);
          const Matrix b = b_trans ? uniform_matrix(n, k, seed + 1)
                                   : uniform_matrix(k, n, seed + 1);
          const Matrix c0 = uniform_matrix(m, n, seed + 2);
          std::uint64_t h = 0xcbf29ce484222325ULL;
          for (const float beta : kBetas) {
            for (const Epilogue epi : {Epilogue::kNone, Epilogue::kRelu}) {
              Matrix first;
              for (int threads = 1; threads <= 4; ++threads) {
                Matrix c = c0;
                if (beta == 0.0f) {  // beta == 0 must not read C: poison it
                  c.fill(std::numeric_limits<float>::quiet_NaN());
                }
                if (o == 0) gemm_nn(a, b, c, 1.0f, beta, threads, epi);
                if (o == 1) gemm_tn(a, b, c, 1.0f, beta, threads, epi);
                if (o == 2) gemm_nt(a, b, c, 1.0f, beta, threads, epi);
                if (threads == 1) {
                  first = c;
                  h = fnv1a(c, h);
                } else {
                  ASSERT_EQ(std::memcmp(c.data(), first.data(),
                                        c.size() * sizeof(float)),
                            0)
                      << orient << " m=" << m << " k=" << k << " n=" << n
                      << " beta=" << beta << " p=" << threads;
                }
              }
            }
          }
#ifdef GSGCN_AVX2  // the goldens are the AVX2/FMA kernel's bits
          EXPECT_EQ(h, kGemmGoldens[idx])
              << "golden " << idx << ": " << orient << " m=" << m
              << " k=" << k << " n=" << n << " hash=0x" << std::hex << h;
#endif
          ++idx;
        }
      }
    }
  }
}

// ---- Strided views: writing GEMM outputs into column slices of a wide
// matrix must be bit-for-bit identical to GEMM-into-dense + concat_cols
// (this is the layer's zero-copy concat path).

TEST(GemmView, ColsSliceOutputMatchesConcatBitForBit) {
  const std::size_t n = 37, fin = 29, fo = 21;
  const Matrix h = random_matrix(n, fin, 70);
  const Matrix w1 = random_matrix(fin, fo, 71);
  const Matrix w2 = random_matrix(fin, fo, 72);

  Matrix c1(n, fo), c2(n, fo), cat(n, 2 * fo);
  gemm_nn(h, w1, c1);
  gemm_nn(h, w2, c2);
  concat_cols(c1, c2, cat);

  Matrix wide(n, 2 * fo);
  gemm_nn(h, w1, MatrixView::cols_slice(wide, 0, fo));
  gemm_nn(h, w2, MatrixView::cols_slice(wide, fo, fo));
  EXPECT_EQ(Matrix::max_abs_diff(cat, wide), 0.0f);
}

TEST(GemmView, ColsSliceOperandsMatchSplitBitForBit) {
  // Backward-pass shape: consume column slices of a wide gradient as TN/NT
  // operands and compare against operating on split-out dense halves.
  const std::size_t n = 41, fin = 13, fo = 11;
  const Matrix h = random_matrix(n, fin, 73);
  const Matrix w = random_matrix(fin, fo, 74);
  const Matrix d_wide = random_matrix(n, 2 * fo, 75);
  Matrix d_half(n, fo), other(n, fo);
  split_cols(d_wide, d_half, other);

  Matrix dw_dense(fin, fo), dw_view(fin, fo);
  gemm_tn(h, d_half, dw_dense);
  gemm_tn(h, ConstMatrixView::cols_slice(d_wide, 0, fo), dw_view);
  EXPECT_EQ(Matrix::max_abs_diff(dw_dense, dw_view), 0.0f);

  Matrix dh_dense(n, fin), dh_view(n, fin);
  gemm_nt(d_half, w, dh_dense);  // d · Wᵀ — w used transposed
  gemm_nt(ConstMatrixView::cols_slice(d_wide, 0, fo), w, dh_view);
  EXPECT_EQ(Matrix::max_abs_diff(dh_dense, dh_view), 0.0f);
}

TEST(GemmView, LdMustCoverCols) {
  Matrix m(4, 8);
  EXPECT_NO_THROW(MatrixView::cols_slice(m, 2, 6));
}

// ---- Fused ReLU epilogue ----

TEST(GemmEpilogue, ReluMatchesSeparateRelu) {
  // k = 300 spans two Kc=256 blocks: the clamp must apply only after the
  // full K sum, not per block.
  const Matrix a = random_matrix(50, 300, 80);
  const Matrix b = random_matrix(300, 40, 81);
  Matrix fused(50, 40), plain(50, 40), clamped(50, 40);
  gemm_nn(a, b, fused, 1.0f, 0.0f, 0, Epilogue::kRelu);
  gemm_nn(a, b, plain);
  relu_forward(plain, clamped);
  EXPECT_EQ(Matrix::max_abs_diff(fused, clamped), 0.0f);
}

TEST(GemmEpilogue, ReluWithBetaZeroK) {
  // k == 0 degenerates to the epilogue-only path: C = relu(beta·C).
  const Matrix a(5, 0), b(0, 7);
  Matrix c = random_matrix(5, 7, 82);
  Matrix expect = c;
  gemm_nn(a, b, c, 1.0f, -1.0f, 0, Epilogue::kRelu);
  for (std::size_t i = 0; i < expect.size(); ++i) {
    const float v = -expect.data()[i];
    expect.data()[i] = v > 0.0f ? v : 0.0f;
  }
  EXPECT_EQ(Matrix::max_abs_diff(c, expect), 0.0f);
}

TEST(Gemm, ShapeMismatchThrows) {
  const Matrix a(3, 4), b(5, 6);
  Matrix c(3, 6);
  EXPECT_THROW(gemm_nn(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_tn(a, b, c), std::invalid_argument);
  EXPECT_THROW(gemm_nt(a, b, c), std::invalid_argument);
}

// ---- elementwise ops ----

TEST(Ops, ReluForwardBackward) {
  Matrix x(2, 3);
  x(0, 0) = -1.0f;
  x(0, 1) = 2.0f;
  x(0, 2) = 0.0f;
  x(1, 0) = 3.0f;
  x(1, 1) = -0.5f;
  x(1, 2) = 1.0f;
  Matrix y(2, 3);
  relu_forward(x, y);
  EXPECT_EQ(y(0, 0), 0.0f);
  EXPECT_EQ(y(0, 1), 2.0f);
  EXPECT_EQ(y(0, 2), 0.0f);

  Matrix dy(2, 3);
  dy.fill(1.0f);
  Matrix dx(2, 3);
  relu_backward(x, dy, dx);
  EXPECT_EQ(dx(0, 0), 0.0f);
  EXPECT_EQ(dx(0, 1), 1.0f);
  EXPECT_EQ(dx(0, 2), 0.0f);  // subgradient at 0 chosen as 0
  EXPECT_EQ(dx(1, 0), 1.0f);
}

TEST(Ops, ReluBackward) {
  // Bit-exact x > 0 ? dy : +0 on special values: a multiply-by-mask
  // (dy · 1[x > 0]) gives NaN for NaN/inf dy and -0 for -0 dy where x ≤ 0.
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kDenorm = std::numeric_limits<float>::denorm_min();
  const float xs[] = {kNaN, -0.0f, 0.0f, kDenorm, kInf, -1.0f, 1.0f};
  const bool x_positive[] = {false, false, false, true, true, false, true};
  const float dys[] = {kNaN, -0.0f, -kInf, 2.5f};
  constexpr std::size_t kCombos = std::size(xs) * std::size(dys);
  // Several rows of every combination, so both the vector body and the
  // scalar tail of the loop see each one.
  const std::size_t rows = 9;
  Matrix x(rows, kCombos), dy(rows, kCombos);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x.data()[i] = xs[(i % kCombos) / std::size(dys)];
    dy.data()[i] = dys[i % std::size(dys)];
  }
  auto bits = [](float v) {
    std::uint32_t u;
    std::memcpy(&u, &v, sizeof u);
    return u;
  };
  for (const int threads : {1, 3}) {
    Matrix dx(rows, kCombos);
    relu_backward(x, dy, dx, threads);
    Matrix in_place = dy;  // dx may alias dy
    relu_backward(x, in_place, in_place, threads);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const std::size_t xi = (i % kCombos) / std::size(dys);
      const float expect = x_positive[xi] ? dys[i % std::size(dys)] : 0.0f;
      ASSERT_EQ(bits(dx.data()[i]), bits(expect))
          << "x=" << x.data()[i] << " dy=" << dy.data()[i] << " p=" << threads;
      ASSERT_EQ(bits(in_place.data()[i]), bits(expect)) << "aliased, i=" << i;
    }
  }
}

TEST(Ops, ConcatSplitRoundTrip) {
  const Matrix a = random_matrix(5, 3, 30);
  const Matrix b = random_matrix(5, 4, 31);
  Matrix cat(5, 7);
  concat_cols(a, b, cat);
  EXPECT_EQ(cat(2, 0), a(2, 0));
  EXPECT_EQ(cat(2, 3), b(2, 0));
  Matrix a2(5, 3), b2(5, 4);
  split_cols(cat, a2, b2);
  EXPECT_EQ(Matrix::max_abs_diff(a, a2), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(b, b2), 0.0f);
}

TEST(Ops, ConcatShapeMismatchThrows) {
  Matrix a(5, 3), b(4, 4), out(5, 7);
  EXPECT_THROW(concat_cols(a, b, out), std::invalid_argument);
}

TEST(Ops, AddScaledAndScale) {
  Matrix x(2, 2), y(2, 2);
  x.fill(1.0f);
  y.fill(2.0f);
  add_scaled(x, y, 0.5f);
  EXPECT_EQ(x(0, 0), 2.0f);
  scale_inplace(x, 2.0f);
  EXPECT_EQ(x(1, 1), 4.0f);
}

TEST(Ops, GatherRows) {
  const Matrix src = random_matrix(10, 4, 32);
  const std::vector<std::uint32_t> idx = {7, 0, 7, 3};
  Matrix out(4, 4);
  gather_rows(src, idx, out);
  for (std::size_t j = 0; j < 4; ++j) {
    EXPECT_EQ(out(0, j), src(7, j));
    EXPECT_EQ(out(1, j), src(0, j));
    EXPECT_EQ(out(2, j), src(7, j));
    EXPECT_EQ(out(3, j), src(3, j));
  }
}

TEST(Ops, GatherRowsShapeMismatchThrows) {
  const Matrix src(10, 4);
  const std::vector<std::uint32_t> idx = {1, 2};
  Matrix out(3, 4);
  EXPECT_THROW(gather_rows(src, idx, out), std::invalid_argument);
}

TEST(Ops, BiasRowsAndGrad) {
  Matrix x(3, 2);
  const std::vector<float> bias = {1.0f, -2.0f};
  add_bias_rows(x, bias);
  EXPECT_EQ(x(0, 0), 1.0f);
  EXPECT_EQ(x(2, 1), -2.0f);

  Matrix dy(3, 2);
  dy.fill(1.0f);
  std::vector<float> dbias(2, 99.0f);
  bias_grad(dy, dbias);
  EXPECT_EQ(dbias[0], 3.0f);
  EXPECT_EQ(dbias[1], 3.0f);
}

TEST(Ops, HadamardInplace) {
  Matrix x = random_matrix(9, 7, 33);
  const Matrix y = random_matrix(9, 7, 34);
  Matrix expect = x;
  for (std::size_t i = 0; i < expect.size(); ++i) {
    expect.data()[i] *= y.data()[i];
  }
  hadamard_inplace(x, y, 3);
  EXPECT_EQ(Matrix::max_abs_diff(x, expect), 0.0f);
}

TEST(Ops, DropoutForwardMaskValuesAndRate) {
  const float rate = 0.4f;
  const Matrix x = random_matrix(200, 64, 35);
  Matrix mask(200, 64), out(200, 64);
  dropout_forward(x, mask, out, rate, 1234);
  const float scale = 1.0f / (1.0f - rate);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    const float m = mask.data()[i];
    ASSERT_TRUE(m == 0.0f || m == scale);
    EXPECT_EQ(out.data()[i], m * x.data()[i]);
    kept += m != 0.0f;
  }
  const double frac = static_cast<double>(kept) / mask.size();
  EXPECT_NEAR(frac, 1.0 - rate, 0.02);
}

TEST(Ops, DropoutForwardDeterministicAcrossThreadCounts) {
  const Matrix x = random_matrix(101, 37, 36);
  Matrix m1(101, 37), o1(101, 37);
  dropout_forward(x, m1, o1, 0.5f, 99, 1);
  for (const int threads : {2, 4, 8}) {
    Matrix mp(101, 37), op(101, 37);
    dropout_forward(x, mp, op, 0.5f, 99, threads);
    ASSERT_EQ(Matrix::max_abs_diff(m1, mp), 0.0f) << "p=" << threads;
    ASSERT_EQ(Matrix::max_abs_diff(o1, op), 0.0f) << "p=" << threads;
  }
}

TEST(Ops, DropoutForwardSeedChangesMask) {
  const Matrix x = random_matrix(50, 20, 37);
  Matrix ma(50, 20), mb(50, 20), out(50, 20);
  dropout_forward(x, ma, out, 0.5f, 1);
  dropout_forward(x, mb, out, 0.5f, 2);
  EXPECT_GT(Matrix::max_abs_diff(ma, mb), 0.0f);
}

TEST(Ops, DropoutForwardInPlaceAliasing) {
  Matrix x = random_matrix(30, 16, 38);
  const Matrix orig = x;
  Matrix mask(30, 16), expect(30, 16);
  dropout_forward(x, mask, expect, 0.3f, 7);
  Matrix mask2(30, 16);
  dropout_forward(x, mask2, x, 0.3f, 7);  // out aliases x
  EXPECT_EQ(Matrix::max_abs_diff(mask, mask2), 0.0f);
  EXPECT_EQ(Matrix::max_abs_diff(x, expect), 0.0f);
  EXPECT_GT(Matrix::max_abs_diff(x, orig), 0.0f);
}

TEST(Ops, DropoutForwardBadRateThrows) {
  const Matrix x(2, 2);
  Matrix mask(2, 2), out(2, 2);
  EXPECT_THROW(dropout_forward(x, mask, out, 1.0f, 0),
               std::invalid_argument);
  EXPECT_THROW(dropout_forward(x, mask, out, -0.1f, 0),
               std::invalid_argument);
}

TEST(Ops, L2NormalizeRows) {
  Matrix x(2, 2);
  x(0, 0) = 3.0f;
  x(0, 1) = 4.0f;
  // second row all zero: must stay zero (no NaN)
  l2_normalize_rows(x);
  EXPECT_FLOAT_EQ(x(0, 0), 0.6f);
  EXPECT_FLOAT_EQ(x(0, 1), 0.8f);
  EXPECT_EQ(x(1, 0), 0.0f);
  EXPECT_EQ(x(1, 1), 0.0f);
}

}  // namespace
}  // namespace gsgcn::tensor
