#pragma once
// Elementwise / structural matrix operations used by the GCN layers.
// All take explicit outputs so buffers can be reused across iterations
// (no per-minibatch allocation in the training hot loop).

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/matrix.hpp"

namespace gsgcn::tensor {

/// y = max(0, x), elementwise. y must be same shape as x (may alias x).
void relu_forward(const Matrix& x, Matrix& y, int threads = 0);

/// dx = x > 0 ? dy : +0, elementwise — a select, not dy·1[x > 0]: NaN,
/// ±inf and −0 in dy give +0 wherever x ≤ 0 or x is NaN. dx may alias
/// dy. x may be either the pre-activation input or the ReLU output:
/// relu(x) > 0 ⇔ x > 0, so callers that fused the ReLU into a GEMM
/// epilogue (and therefore only kept the post-activation values) pass
/// those directly.
void relu_backward(const Matrix& x, const Matrix& dy, Matrix& dx,
                   int threads = 0);

/// out = [a | b] column-wise concat (the paper's "Concat" in line 9 of
/// Algorithm 1). a.rows() == b.rows(); out is (rows, a.cols + b.cols).
void concat_cols(const Matrix& a, const Matrix& b, Matrix& out,
                 int threads = 0);

/// Inverse of concat_cols: copies src's first a.cols() columns into a and
/// the rest into b (used to split the concat gradient).
void split_cols(const Matrix& src, Matrix& a, Matrix& b, int threads = 0);

/// x += alpha * y, elementwise. Shapes must match.
void add_scaled(Matrix& x, const Matrix& y, float alpha = 1.0f,
                int threads = 0);

/// x *= alpha.
void scale_inplace(Matrix& x, float alpha, int threads = 0);

/// out.row(i) = src.row(indices[i]) — gathers H^(0)[V_sub] for a sampled
/// batch (line 5 of Algorithm 1) and scatter-free label gathers.
void gather_rows(const Matrix& src, std::span<const std::uint32_t> indices,
                 Matrix& out, int threads = 0);

/// Adds `bias` (length == x.cols()) to every row of x.
void add_bias_rows(Matrix& x, std::span<const float> bias, int threads = 0);

/// dbias[j] = sum_i dy(i, j) — bias gradient reduction.
void bias_grad(const Matrix& dy, std::span<float> dbias);

/// Row-wise L2 normalization: each nonzero row scaled to unit norm.
/// GraphSAGE applies this to embeddings between layers; exposed for parity.
void l2_normalize_rows(Matrix& x, int threads = 0);

/// x ⊙= y elementwise (the dropout-mask multiply in the backward pass).
void hadamard_inplace(Matrix& x, const Matrix& y, int threads = 0);

/// Inverted dropout with per-row counter-based RNG streams: row i's mask
/// is drawn from util::Xoshiro256::stream(seed, i), so the result depends
/// only on (seed, shape) — never on the thread count or iteration order.
/// mask(i,j) ∈ {0, 1/(1-rate)} with P[keep] = 1-rate; out = mask ⊙ x.
/// mask and out must match x's shape (out may alias x).
void dropout_forward(const Matrix& x, Matrix& mask, Matrix& out, float rate,
                     std::uint64_t seed, int threads = 0);

}  // namespace gsgcn::tensor
