#include "tensor/gemm.hpp"

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>

#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "util/aligned_buffer.hpp"
#include "util/parallel.hpp"

#ifdef GSGCN_AVX2
#include <immintrin.h>
#endif

namespace gsgcn::tensor {

namespace {

// ---------------------------------------------------------------------------
// Blocking parameters (floats).
//
//   Mr×Nr   register tile: 6×16 = twelve 8-lane FMA accumulators, plus two
//           B loads and one A broadcast — 15 of the 16 AVX2 ymm registers.
//   Kc      K-block: one packed B strip (Nr·Kc·4 = 16 KiB) plus one packed
//           A strip (Mr·Kc·4 = 6 KiB) stay L1-resident under the kernel.
//   Mc      M-block: the packed A block (Mc·Kc·4 = 96 KiB) targets L2.
//           A (K-block, M-block) pair is the parallel work unit — each
//           thread packs its own A block, and partial sums over K are
//           added in a fixed order (see gemm_core), so results are
//           bit-identical for every thread count.
//   Nc      N-block: bounds the calling thread's packing panel
//           (Kc·Nc·4 = 1 MiB), which holds the packed B panels of one
//           group of K-blocks and their partial sums.
// ---------------------------------------------------------------------------
constexpr std::size_t kMr = 6;
constexpr std::size_t kNr = 16;
constexpr std::size_t kKc = 256;
constexpr std::size_t kMc = 96;    // multiple of kMr
constexpr std::size_t kNc = 1024;  // multiple of kNr

static_assert(kMc % kMr == 0, "Mc must hold whole register-tile rows");
static_assert(kNc % kNr == 0, "Nc must hold whole register-tile columns");

/// A GEMM operand as the kernel sees it: op(X)(r, c) with op ∈ {id, ᵀ}
/// folded into the index map. Strided views fall out for free — ld is the
/// distance between stored rows of the *underlying* buffer.
struct Operand {
  const float* p;
  std::size_t ld;
  bool trans;
  const std::uint32_t* rows = nullptr;  // row i of op(X) is row rows[i]
                                        // (non-transposed A only)
};

void check_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.cols() != b.rows() || c.rows() != a.rows() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_nn: shape mismatch " + a.shape_str() +
                                " * " + b.shape_str() + " -> " + c.shape_str());
  }
}

void check_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.rows() != b.rows() || c.rows() != a.cols() || c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_tn: shape mismatch " + a.shape_str() +
                                "^T * " + b.shape_str() + " -> " + c.shape_str());
  }
}

void check_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c) {
  if (a.cols() != b.cols() || c.rows() != a.rows() || c.cols() != b.rows()) {
    throw std::invalid_argument("gemm_nt: shape mismatch " + a.shape_str() +
                                " * " + b.shape_str() + "^T -> " + c.shape_str());
  }
}

/// Per-thread packing workspaces. thread_local so steady-state training
/// does no allocation (OpenMP reuses its workers); under the TSan
/// std::thread backend each fresh team member allocates once per region,
/// which is the price of exact fork/join visibility, not a correctness
/// issue.
float* thread_a_panel() {
  static thread_local util::AlignedBuffer<float> buf;
  if (buf.size() < kMc * kKc) buf.reset(kMc * kKc);
  return buf.data();
}

float* thread_b_panel() {
  static thread_local util::AlignedBuffer<float> buf;
  if (buf.size() < kKc * kNc) buf.reset(kKc * kNc);
  return buf.data();
}

/// Pack op(A)[i0 .. i0+mc, k0 .. k0+kc) into Mr-row strips, k-major inside
/// each strip: ap[strip][kk*Mr + r]. Rows past mc are zero-padded so the
/// micro-kernel always runs full Mr tiles (the pad rows compute zeros that
/// are never stored).
void pack_a(float* ap, Operand a, std::size_t i0, std::size_t k0,
            std::size_t mc, std::size_t kc) {
  for (std::size_t s = 0; s < mc; s += kMr) {
    const std::size_t mr = std::min(kMr, mc - s);
    if (!a.trans) {
      for (std::size_t r = 0; r < mr; ++r) {
        const std::size_t i = i0 + s + r;
        const float* src = a.p + (a.rows != nullptr ? a.rows[i] : i) * a.ld + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) ap[kk * kMr + r] = src[kk];
      }
    } else {
      // op(A)(i, kk) = A(kk, i): walk source rows so reads stay contiguous.
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = a.p + (k0 + kk) * a.ld + i0 + s;
        float* dst = ap + kk * kMr;
        for (std::size_t r = 0; r < mr; ++r) dst[r] = src[r];
      }
    }
    if (mr < kMr) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        for (std::size_t r = mr; r < kMr; ++r) ap[kk * kMr + r] = 0.0f;
      }
    }
    ap += kMr * kc;
  }
}

/// Pack op(B)[k0 .. k0+kc, j0 .. j0+nc) into Nr-column strips, k-major:
/// bp[strip][kk*Nr + c], columns past nc zero-padded.
void pack_b(float* bp, Operand b, std::size_t k0, std::size_t j0,
            std::size_t kc, std::size_t nc) {
  for (std::size_t s = 0; s < nc; s += kNr) {
    const std::size_t nr = std::min(kNr, nc - s);
    if (!b.trans) {
      for (std::size_t kk = 0; kk < kc; ++kk) {
        const float* src = b.p + (k0 + kk) * b.ld + j0 + s;
        float* dst = bp + kk * kNr;
        for (std::size_t c = 0; c < nr; ++c) dst[c] = src[c];
        for (std::size_t c = nr; c < kNr; ++c) dst[c] = 0.0f;
      }
    } else {
      // op(B)(kk, j) = B(j, kk): each packed column is a contiguous B row.
      for (std::size_t c = 0; c < nr; ++c) {
        const float* src = b.p + (j0 + s + c) * b.ld + k0;
        for (std::size_t kk = 0; kk < kc; ++kk) bp[kk * kNr + c] = src[kk];
      }
      for (std::size_t c = nr; c < kNr; ++c) {
        for (std::size_t kk = 0; kk < kc; ++kk) bp[kk * kNr + c] = 0.0f;
      }
    }
    bp += kNr * kc;
  }
}

#ifdef GSGCN_AVX2

/// The register tile: C[0..mr, 0..nr) (+)= alpha · Ap·Bp over kc terms,
/// with Bp/Ap packed as above. Full tiles store straight from the
/// accumulators (fusing beta and the optional ReLU); edge tiles spill
/// through a stack tile and store scalar, so C rows/columns outside the
/// matrix are never touched (beta == 0 never reads C at all).
inline void micro_kernel(const float* ap, const float* bp, std::size_t kc,
                         float* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, float alpha, float beta, bool relu) {
  // Twelve named accumulators (not arrays): GCC keeps an indexed __m256
  // array on the stack and spills every FMA result, which costs more than
  // half the kernel's throughput. Named locals register-allocate cleanly.
  __m256 c00 = _mm256_setzero_ps(), c01 = _mm256_setzero_ps();
  __m256 c10 = _mm256_setzero_ps(), c11 = _mm256_setzero_ps();
  __m256 c20 = _mm256_setzero_ps(), c21 = _mm256_setzero_ps();
  __m256 c30 = _mm256_setzero_ps(), c31 = _mm256_setzero_ps();
  __m256 c40 = _mm256_setzero_ps(), c41 = _mm256_setzero_ps();
  __m256 c50 = _mm256_setzero_ps(), c51 = _mm256_setzero_ps();
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const __m256 b0 = _mm256_load_ps(bp + kk * kNr);
    const __m256 b1 = _mm256_load_ps(bp + kk * kNr + 8);
    const float* arow = ap + kk * kMr;
    __m256 av = _mm256_broadcast_ss(arow + 0);
    c00 = _mm256_fmadd_ps(av, b0, c00);
    c01 = _mm256_fmadd_ps(av, b1, c01);
    av = _mm256_broadcast_ss(arow + 1);
    c10 = _mm256_fmadd_ps(av, b0, c10);
    c11 = _mm256_fmadd_ps(av, b1, c11);
    av = _mm256_broadcast_ss(arow + 2);
    c20 = _mm256_fmadd_ps(av, b0, c20);
    c21 = _mm256_fmadd_ps(av, b1, c21);
    av = _mm256_broadcast_ss(arow + 3);
    c30 = _mm256_fmadd_ps(av, b0, c30);
    c31 = _mm256_fmadd_ps(av, b1, c31);
    av = _mm256_broadcast_ss(arow + 4);
    c40 = _mm256_fmadd_ps(av, b0, c40);
    c41 = _mm256_fmadd_ps(av, b1, c41);
    av = _mm256_broadcast_ss(arow + 5);
    c50 = _mm256_fmadd_ps(av, b0, c50);
    c51 = _mm256_fmadd_ps(av, b1, c51);
  }
  const __m256 acc0[kMr] = {c00, c10, c20, c30, c40, c50};
  const __m256 acc1[kMr] = {c01, c11, c21, c31, c41, c51};
  const __m256 valpha = _mm256_set1_ps(alpha);
  const __m256 vzero = _mm256_setzero_ps();
  if (mr == kMr && nr == kNr) {
    const __m256 vbeta = _mm256_set1_ps(beta);
    for (std::size_t r = 0; r < kMr; ++r) {
      float* cr = c + r * ldc;
      __m256 v0 = _mm256_mul_ps(acc0[r], valpha);
      __m256 v1 = _mm256_mul_ps(acc1[r], valpha);
      if (beta != 0.0f) {
        v0 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(cr), v0);
        v1 = _mm256_fmadd_ps(vbeta, _mm256_loadu_ps(cr + 8), v1);
      }
      if (relu) {
        v0 = _mm256_max_ps(v0, vzero);
        v1 = _mm256_max_ps(v1, vzero);
      }
      _mm256_storeu_ps(cr, v0);
      _mm256_storeu_ps(cr + 8, v1);
    }
  } else {
    alignas(32) float tile[kMr * kNr];
    for (std::size_t r = 0; r < kMr; ++r) {
      _mm256_store_ps(tile + r * kNr, _mm256_mul_ps(acc0[r], valpha));
      _mm256_store_ps(tile + r * kNr + 8, _mm256_mul_ps(acc1[r], valpha));
    }
    for (std::size_t r = 0; r < mr; ++r) {
      float* cr = c + r * ldc;
      for (std::size_t j = 0; j < nr; ++j) {
        float v = tile[r * kNr + j];
        if (beta != 0.0f) v += beta * cr[j];
        if (relu) v = v > 0.0f ? v : 0.0f;
        cr[j] = v;
      }
    }
  }
}

#else  // !GSGCN_AVX2

/// Scalar fallback with the same packing, blocking, and accumulation
/// order; results differ from the AVX2 path only by FMA contraction.
inline void micro_kernel(const float* ap, const float* bp, std::size_t kc,
                         float* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, float alpha, float beta, bool relu) {
  float acc[kMr][kNr] = {};
  for (std::size_t kk = 0; kk < kc; ++kk) {
    const float* arow = ap + kk * kMr;
    const float* brow = bp + kk * kNr;
    for (std::size_t r = 0; r < kMr; ++r) {
      const float av = arow[r];
      for (std::size_t j = 0; j < kNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (std::size_t r = 0; r < mr; ++r) {
    float* cr = c + r * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      float v = alpha * acc[r][j];
      if (beta != 0.0f) v += beta * cr[j];
      if (relu) v = v > 0.0f ? v : 0.0f;
      cr[j] = v;
    }
  }
}

#endif  // GSGCN_AVX2

/// beta/epilogue-only path for k == 0 (C = beta·C, optionally clamped).
void scale_epilogue_only(MatrixView c, float beta, Epilogue epilogue,
                         int threads) {
  const std::size_t n = c.cols();
  util::parallel_for(
      static_cast<std::int64_t>(c.rows()), threads, [&](std::int64_t ii) {
        float* cr = c.row(static_cast<std::size_t>(ii));
        for (std::size_t j = 0; j < n; ++j) {
          float v = beta == 0.0f ? 0.0f : beta * cr[j];
          if (epilogue == Epilogue::kRelu) v = v > 0.0f ? v : 0.0f;
          cr[j] = v;
        }
      });
}

/// Shared driver: C = alpha·op(A)·op(B) + beta·C over the blocked loop
/// nest. The parallel work unit is one (K-block, Mc row block) pair, so a
/// GEMM with few rows but a long K — the weight gradient Hᵀ·dY, whose C
/// has only f_in rows — still spreads over the whole team.
///
/// K-blocks run in groups that share one fork/join. A group's B panels
/// are packed side by side in the calling thread's panel; its first
/// K-block accumulates straight into C (with the caller's beta on K-block
/// 0, 1 after), each later one writes its own partial sum, and a
/// row-parallel pass then adds the partials into C in K-block order. Each
/// partial is alpha·(its K-block's dot products), the term the K-serial
/// loop added in the same order, so every C entry goes through the same
/// roundings round(...round(beta·C + P0) + P1 ...) — results are
/// bit-identical for every thread count and group size. The ReLU clamp
/// applies once the last K-block is in. A one-thread team runs groups of
/// one K-block: no partials, the plain K-serial nest.
void gemm_core(Operand a, Operand b, MatrixView c, std::size_t m,
               std::size_t n, std::size_t k, float alpha, float beta,
               Epilogue epilogue, int threads) {
  if (m == 0 || n == 0) return;
  if (k == 0) {
    scale_epilogue_only(c, beta, epilogue, threads);
    return;
  }
  float* const panel = thread_b_panel();
  float* const cdata = c.data();
  const std::size_t ldc = c.ld();
  const std::size_t num_kblocks = (k + kKc - 1) / kKc;
  const auto num_mblocks = static_cast<std::int64_t>((m + kMc - 1) / kMc);
  const bool team = util::resolve_threads(threads) > 1;
  for (std::size_t jc = 0; jc < n; jc += kNc) {
    const std::size_t nc = std::min(kNc, n - jc);
    const std::size_t b_stride = kKc * ((nc + kNr - 1) / kNr * kNr);
    const std::size_t p_stride = m * nc;  // one partial: an m×nc C block
    // Largest group whose g B panels and g−1 partials fit in the panel.
    const std::size_t fit = (kKc * kNc + p_stride) / (b_stride + p_stride);
    const std::size_t group = team ? std::min(num_kblocks, fit) : 1;
    float* const partials = panel + group * b_stride;
    for (std::size_t kb0 = 0; kb0 < num_kblocks; kb0 += group) {
      const auto nkb = static_cast<std::int64_t>(
          std::min(group, num_kblocks - kb0));
      const bool last = kb0 + static_cast<std::size_t>(nkb) == num_kblocks;
      const bool relu = last && epilogue == Epilogue::kRelu;
      util::parallel_for(nkb, threads, [&](std::int64_t g) {
        const std::size_t k0 = (kb0 + static_cast<std::size_t>(g)) * kKc;
        pack_b(panel + static_cast<std::size_t>(g) * b_stride, b, k0, jc,
               std::min(kKc, k - k0), nc);
      });
      util::parallel_for(nkb * num_mblocks, threads, [&](std::int64_t u) {
        const auto g = static_cast<std::size_t>(u / num_mblocks);
        const std::size_t i0 = static_cast<std::size_t>(u % num_mblocks) * kMc;
        const std::size_t mc = std::min(kMc, m - i0);
        const std::size_t k0 = (kb0 + g) * kKc;
        const std::size_t kc = std::min(kKc, k - k0);
        // The group's first K-block accumulates into C; each later one
        // writes its own partial.
        float* dst = cdata + i0 * ldc + jc;
        std::size_t ld = ldc;
        float beta_eff = kb0 == 0 ? beta : 1.0f;
        if (g > 0) {
          dst = partials + (g - 1) * p_stride + i0 * nc;
          ld = nc;
          beta_eff = 0.0f;
        }
        float* ap = thread_a_panel();
        pack_a(ap, a, i0, k0, mc, kc);
        for (std::size_t jr = 0; jr < nc; jr += kNr) {
          const float* bps = panel + g * b_stride + (jr / kNr) * (kNr * kc);
          const std::size_t nr = std::min(kNr, nc - jr);
          for (std::size_t ir = 0; ir < mc; ir += kMr) {
            const std::size_t mr = std::min(kMr, mc - ir);
            micro_kernel(ap + (ir / kMr) * (kMr * kc), bps, kc,
                         dst + ir * ld + jr, ld, mr, nr, alpha, beta_eff,
                         relu && nkb == 1);
          }
        }
      });
      if (nkb == 1) continue;
      util::parallel_for(static_cast<std::int64_t>(m), threads,
                         [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* cr = cdata + i * ldc + jc;
        for (std::size_t g = 1; g < static_cast<std::size_t>(nkb); ++g) {
          const float* pr = partials + (g - 1) * p_stride + i * nc;
          for (std::size_t j = 0; j < nc; ++j) cr[j] += pr[j];
        }
        if (relu) {
          for (std::size_t j = 0; j < nc; ++j) {
            cr[j] = cr[j] > 0.0f ? cr[j] : 0.0f;
          }
        }
      });
    }
  }
}

}  // namespace

void gemm_nn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_nn(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  GSGCN_TRACE_SPAN_ID("gemm/nn", 2 * m * n * k);  // args.v = flops
  const obs::Work work [[maybe_unused]] = obs::gemm_work(
      static_cast<std::int64_t>(m), static_cast<std::int64_t>(k),
      static_cast<std::int64_t>(n), beta != 0.0f);
  GSGCN_PERF_REGION_WORK("gemm", work.flops, work.bytes);
  gemm_core({a.data(), a.ld(), false}, {b.data(), b.ld(), false}, c, m, n, k,
            alpha, beta, epilogue, threads);
}

void gemm_nn_rows(ConstMatrixView a, std::span<const std::uint32_t> a_rows,
                  ConstMatrixView b, MatrixView c, float alpha, float beta,
                  int threads, Epilogue epilogue) {
  if (a.cols() != b.rows() || c.rows() != a_rows.size() ||
      c.cols() != b.cols()) {
    throw std::invalid_argument("gemm_nn_rows: shape mismatch " +
                                a.shape_str() + " * " + b.shape_str() +
                                " -> " + c.shape_str());
  }
  for (const std::uint32_t r : a_rows) {
    if (r >= a.rows()) {
      throw std::out_of_range("gemm_nn_rows: row " + std::to_string(r) +
                              " out of range " + a.shape_str());
    }
  }
  const std::size_t m = a_rows.size(), k = a.cols(), n = b.cols();
  GSGCN_TRACE_SPAN_ID("gemm/nn", 2 * m * n * k);
  const obs::Work work [[maybe_unused]] = obs::gemm_work(
      static_cast<std::int64_t>(m), static_cast<std::int64_t>(k),
      static_cast<std::int64_t>(n), beta != 0.0f);
  GSGCN_PERF_REGION_WORK("gemm", work.flops, work.bytes);
  gemm_core({a.data(), a.ld(), false, a_rows.data()},
            {b.data(), b.ld(), false}, c, m, n, k, alpha, beta, epilogue,
            threads);
}

void gemm_tn(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_tn(a, b, c);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  GSGCN_TRACE_SPAN_ID("gemm/tn", 2 * m * n * k);
  const obs::Work work [[maybe_unused]] = obs::gemm_work(
      static_cast<std::int64_t>(m), static_cast<std::int64_t>(k),
      static_cast<std::int64_t>(n), beta != 0.0f);
  GSGCN_PERF_REGION_WORK("gemm", work.flops, work.bytes);
  gemm_core({a.data(), a.ld(), true}, {b.data(), b.ld(), false}, c, m, n, k,
            alpha, beta, epilogue, threads);
}

void gemm_nt(ConstMatrixView a, ConstMatrixView b, MatrixView c, float alpha,
             float beta, int threads, Epilogue epilogue) {
  check_nt(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  GSGCN_TRACE_SPAN_ID("gemm/nt", 2 * m * n * k);
  const obs::Work work [[maybe_unused]] = obs::gemm_work(
      static_cast<std::int64_t>(m), static_cast<std::int64_t>(k),
      static_cast<std::int64_t>(n), beta != 0.0f);
  GSGCN_PERF_REGION_WORK("gemm", work.flops, work.bytes);
  gemm_core({a.data(), a.ld(), false}, {b.data(), b.ld(), true}, c, m, n, k,
            alpha, beta, epilogue, threads);
}

// ---------------------------------------------------------------------------
// Legacy kernels: the pre-packing implementation (rank-1 axpy updates for
// NN/TN, dot products for NT). Retained verbatim as the measured baseline
// of the packed-vs-legacy bench comparison.
// ---------------------------------------------------------------------------

namespace legacy {

namespace {

constexpr std::size_t kBlockK = 256;  // K-tile: keeps ~kBlockK B-rows warm

inline void scale_row(float* c, std::size_t n, float beta) {
  if (beta == 0.0f) {
    for (std::size_t j = 0; j < n; ++j) c[j] = 0.0f;
  } else if (beta != 1.0f) {
    for (std::size_t j = 0; j < n; ++j) c[j] *= beta;
  }
}

/// c[0..n) += s * b[0..n)   (axpy — the inner kernel of NN and TN)
inline void axpy(float* c, const float* b, std::size_t n, float s) {
#ifdef GSGCN_AVX2
  const __m256 vs = _mm256_set1_ps(s);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(b + j);
    const __m256 vc = _mm256_loadu_ps(c + j);
    _mm256_storeu_ps(c + j, _mm256_fmadd_ps(vs, vb, vc));
  }
  for (; j < n; ++j) c[j] += s * b[j];
#else
  for (std::size_t j = 0; j < n; ++j) c[j] += s * b[j];
#endif
}

/// dot(a[0..n), b[0..n))   (the inner kernel of NT)
inline float dot(const float* a, const float* b, std::size_t n) {
#ifdef GSGCN_AVX2
  __m256 acc = _mm256_setzero_ps();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    acc = _mm256_fmadd_ps(_mm256_loadu_ps(a + j), _mm256_loadu_ps(b + j), acc);
  }
  // Horizontal sum of acc.
  __m128 lo = _mm256_castps256_ps128(acc);
  __m128 hi = _mm256_extractf128_ps(acc, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_hadd_ps(lo, lo);
  lo = _mm_hadd_ps(lo, lo);
  float s = _mm_cvtss_f32(lo);
  for (; j < n; ++j) s += a[j] * b[j];
  return s;
#else
  float s = 0.0f;
  for (std::size_t j = 0; j < n; ++j) s += a[j] * b[j];
  return s;
#endif
}

}  // namespace

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_nn(a, b, c);
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  util::parallel_for(
      static_cast<std::int64_t>(m), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        scale_row(ci, n, beta);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
          const std::size_t k1 = std::min(k, k0 + kBlockK);
          const float* ai = a.row(i);
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const float s = alpha * ai[kk];
            if (s != 0.0f) axpy(ci, b.row(kk), n, s);
          }
        }
      });
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_tn(a, b, c);
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  util::parallel_for(
      static_cast<std::int64_t>(m), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        scale_row(ci, n, beta);
        for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
          const std::size_t k1 = std::min(k, k0 + kBlockK);
          for (std::size_t kk = k0; kk < k1; ++kk) {
            const float s = alpha * a(kk, i);
            if (s != 0.0f) axpy(ci, b.row(kk), n, s);
          }
        }
      });
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta, int threads) {
  check_nt(a, b, c);
  const std::size_t k = a.cols(), n = b.rows();
  (void)n;
  util::parallel_for(
      static_cast<std::int64_t>(a.rows()), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        float* ci = c.row(i);
        const float* ai = a.row(i);
        for (std::size_t j = 0; j < b.rows(); ++j) {
          const float d = alpha * dot(ai, b.row(j), k);
          ci[j] = beta == 0.0f ? d : beta * ci[j] + d;
        }
      });
}

}  // namespace legacy

namespace reference {

void gemm_nn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_nn(a, b, c);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        s += static_cast<double>(a(i, kk)) * b(kk, j);
      }
      // beta == 0 must never read C: the destination may be uninitialized
      // (freshly reset buffers), which sanitizers rightly flag.
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

void gemm_tn(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_tn(a, b, c);
  for (std::size_t i = 0; i < a.cols(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.rows(); ++kk) {
        s += static_cast<double>(a(kk, i)) * b(kk, j);
      }
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

void gemm_nt(const Matrix& a, const Matrix& b, Matrix& c, float alpha,
             float beta) {
  check_nt(a, b, c);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.rows(); ++j) {
      double s = 0.0;
      for (std::size_t kk = 0; kk < a.cols(); ++kk) {
        s += static_cast<double>(a(i, kk)) * b(j, kk);
      }
      const float scaled = alpha * static_cast<float>(s);
      c(i, j) = beta == 0.0f ? scaled : scaled + beta * c(i, j);
    }
  }
}

}  // namespace reference

}  // namespace gsgcn::tensor
