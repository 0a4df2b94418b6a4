#include "tensor/ops.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace gsgcn::tensor {

namespace {

void check_same_shape(const Matrix& a, const Matrix& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument(std::string(what) + ": shape mismatch " +
                                a.shape_str() + " vs " + b.shape_str());
  }
}
}  // namespace

void relu_forward(const Matrix& x, Matrix& y, int threads) {
  check_same_shape(x, y, "relu_forward");
  const std::size_t n = x.size();
  const float* xp = x.data();
  float* yp = y.data();
  util::parallel_for_ranges(static_cast<std::int64_t>(n), threads,
                            [xp, yp](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                yp[i] = xp[i] > 0.0f ? xp[i] : 0.0f;
                              }
                            });
}

void relu_backward(const Matrix& x, const Matrix& dy, Matrix& dx,
                   int threads) {
  check_same_shape(x, dy, "relu_backward");
  check_same_shape(x, dx, "relu_backward");
  const std::size_t n = x.size();
  const float* xp = x.data();
  const float* dyp = dy.data();
  float* dxp = dx.data();
  util::parallel_for_ranges(static_cast<std::int64_t>(n), threads,
                            [xp, dyp, dxp](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                // Load dy unconditionally: a conditional
                                // load keeps the loop a per-element branch;
                                // a select vectorizes with the same bits.
                                const float d = dyp[i];
                                dxp[i] = xp[i] > 0.0f ? d : 0.0f;
                              }
                            });
}

void concat_cols(const Matrix& a, const Matrix& b, Matrix& out, int threads) {
  if (a.rows() != b.rows() || out.rows() != a.rows() ||
      out.cols() != a.cols() + b.cols()) {
    throw std::invalid_argument("concat_cols: shape mismatch");
  }
  const std::size_t rows = a.rows();
  util::parallel_for(static_cast<std::int64_t>(rows), threads,
                     [&a, &b, &out](std::int64_t i) {
                       const auto r = static_cast<std::size_t>(i);
                       std::memcpy(out.row(r), a.row(r),
                                   a.cols() * sizeof(float));
                       std::memcpy(out.row(r) + a.cols(), b.row(r),
                                   b.cols() * sizeof(float));
                     });
}

void split_cols(const Matrix& src, Matrix& a, Matrix& b, int threads) {
  if (a.rows() != src.rows() || b.rows() != src.rows() ||
      src.cols() != a.cols() + b.cols()) {
    throw std::invalid_argument("split_cols: shape mismatch");
  }
  const std::size_t rows = src.rows();
  util::parallel_for(static_cast<std::int64_t>(rows), threads,
                     [&src, &a, &b](std::int64_t i) {
                       const auto r = static_cast<std::size_t>(i);
                       std::memcpy(a.row(r), src.row(r),
                                   a.cols() * sizeof(float));
                       std::memcpy(b.row(r), src.row(r) + a.cols(),
                                   b.cols() * sizeof(float));
                     });
}

void add_scaled(Matrix& x, const Matrix& y, float alpha, int threads) {
  check_same_shape(x, y, "add_scaled");
  const std::size_t n = x.size();
  float* xp = x.data();
  const float* yp = y.data();
  util::parallel_for_ranges(static_cast<std::int64_t>(n), threads,
                            [xp, yp, alpha](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                xp[i] += alpha * yp[i];
                              }
                            });
}

void scale_inplace(Matrix& x, float alpha, int threads) {
  const std::size_t n = x.size();
  float* xp = x.data();
  util::parallel_for_ranges(static_cast<std::int64_t>(n), threads,
                            [xp, alpha](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                xp[i] *= alpha;
                              }
                            });
}

void gather_rows(const Matrix& src, std::span<const std::uint32_t> indices,
                 Matrix& out, int threads) {
  if (out.rows() != indices.size() || out.cols() != src.cols()) {
    throw std::invalid_argument("gather_rows: shape mismatch");
  }
  const std::size_t n = indices.size();
  // Validate before entering the parallel region — a throw cannot cross
  // that boundary, and the serial pre-scan costs one cached pass over the
  // index list next to n full row copies.
  for (std::size_t r = 0; r < n; ++r) {
    if (indices[r] >= src.rows()) {
      throw std::out_of_range(
          "gather_rows: index " + std::to_string(indices[r]) +
          " at position " + std::to_string(r) + " out of range (src has " +
          std::to_string(src.rows()) + " rows)");
    }
  }
  util::parallel_for(static_cast<std::int64_t>(n), threads,
                     [&src, indices, &out](std::int64_t i) {
                       const auto r = static_cast<std::size_t>(i);
                       std::memcpy(out.row(r), src.row(indices[r]),
                                   src.cols() * sizeof(float));
                     });
}

void add_bias_rows(Matrix& x, std::span<const float> bias, int threads) {
  if (bias.size() != x.cols()) {
    throw std::invalid_argument("add_bias_rows: bias length mismatch");
  }
  const std::size_t rows = x.rows(), cols = x.cols();
  util::parallel_for(static_cast<std::int64_t>(rows), threads,
                     [&x, bias, cols](std::int64_t i) {
                       float* r = x.row(static_cast<std::size_t>(i));
                       for (std::size_t j = 0; j < cols; ++j) r[j] += bias[j];
                     });
}

void bias_grad(const Matrix& dy, std::span<float> dbias) {
  if (dbias.size() != dy.cols()) {
    throw std::invalid_argument("bias_grad: length mismatch");
  }
  // Serial on purpose: dbias is a shared accumulator over all rows; the
  // bias is a single row so this is never a bottleneck.
  std::fill(dbias.begin(), dbias.end(), 0.0f);
  for (std::size_t i = 0; i < dy.rows(); ++i) {
    const float* r = dy.row(i);
    for (std::size_t j = 0; j < dy.cols(); ++j) dbias[j] += r[j];
  }
}

void hadamard_inplace(Matrix& x, const Matrix& y, int threads) {
  check_same_shape(x, y, "hadamard_inplace");
  const std::size_t n = x.size();
  float* xp = x.data();
  const float* yp = y.data();
  util::parallel_for_ranges(static_cast<std::int64_t>(n), threads,
                            [xp, yp](std::int64_t b, std::int64_t e) {
                              for (std::int64_t i = b; i < e; ++i) {
                                xp[i] *= yp[i];
                              }
                            });
}

void dropout_forward(const Matrix& x, Matrix& mask, Matrix& out, float rate,
                     std::uint64_t seed, int threads) {
  check_same_shape(x, mask, "dropout_forward");
  check_same_shape(x, out, "dropout_forward");
  if (rate < 0.0f || rate >= 1.0f) {
    throw std::invalid_argument("dropout_forward: rate must be in [0, 1)");
  }
  const float keep = 1.0f - rate;
  const float scale = 1.0f / keep;
  const std::size_t cols = x.cols();
  util::parallel_for(
      static_cast<std::int64_t>(x.rows()), threads, [&](std::int64_t ii) {
        const auto i = static_cast<std::size_t>(ii);
        // One decorrelated stream per row, derived purely from (seed, i):
        // any thread that processes row i draws the identical mask.
        util::Xoshiro256 rng = util::Xoshiro256::stream(seed, i);
        const float* xr = x.row(i);
        float* mr = mask.row(i);
        float* outr = out.row(i);
        for (std::size_t j = 0; j < cols; ++j) {
          mr[j] = rng.uniformf() < keep ? scale : 0.0f;
          outr[j] = mr[j] * xr[j];
        }
      });
}

void l2_normalize_rows(Matrix& x, int threads) {
  const std::size_t rows = x.rows(), cols = x.cols();
  util::parallel_for(
      static_cast<std::int64_t>(rows), threads, [&x, cols](std::int64_t i) {
        float* r = x.row(static_cast<std::size_t>(i));
        double s = 0.0;
        for (std::size_t j = 0; j < cols; ++j) {
          s += static_cast<double>(r[j]) * r[j];
        }
        if (s > 0.0) {
          const float inv = static_cast<float>(1.0 / std::sqrt(s));
          for (std::size_t j = 0; j < cols; ++j) r[j] *= inv;
        }
      });
}

}  // namespace gsgcn::tensor
