#include "gcn/inference.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "propagation/feature_partitioned.hpp"
#include "tensor/gemm.hpp"
#include "tensor/ops.hpp"

namespace gsgcn::gcn {

namespace {

constexpr graph::Vid kNoRow = std::numeric_limits<graph::Vid>::max();

/// Number the vertices within `hops` hops of `targets` hop by hop:
/// scratch.order[r] is the vertex of row r, scratch.row_of its inverse,
/// scratch.hop_end[h] the rows within h hops. Each hop's band is sorted by
/// vertex id, so the kernels sweep X and the CSR in address order. Returns
/// whether the numbering is the identity (g is already hop-ordered from
/// the targets, as the serving engine's closure is).
bool plan_rows(const graph::CsrGraph& g, std::span<const graph::Vid> targets,
               std::size_t hops, InferenceScratch& s) {
  const graph::Vid n = g.num_vertices();
  s.row_of.assign(n, kNoRow);
  s.order.clear();
  s.hop_end.clear();
  s.target_rows.clear();
  const auto visit = [&s](graph::Vid v) {
    if (s.row_of[v] != kNoRow) return;
    s.row_of[v] = static_cast<graph::Vid>(s.order.size());
    s.order.push_back(v);
  };
  const auto close_band = [&s](std::size_t begin) {
    std::sort(s.order.begin() + static_cast<std::ptrdiff_t>(begin),
              s.order.end());
    for (std::size_t r = begin; r < s.order.size(); ++r) {
      s.row_of[s.order[r]] = static_cast<graph::Vid>(r);
    }
    s.hop_end.push_back(static_cast<graph::Vid>(s.order.size()));
  };
  for (const graph::Vid t : targets) {
    if (t >= n) {
      throw std::out_of_range("infer_logits: target " + std::to_string(t) +
                              " out of range (num_vertices=" +
                              std::to_string(n) + ")");
    }
    visit(t);
  }
  close_band(0);
  std::size_t lo = 0;
  for (std::size_t h = 1; h <= hops; ++h) {
    const std::size_t hi = s.order.size();
    for (std::size_t i = lo; i < hi; ++i) {
      for (const graph::Vid u : g.neighbors(s.order[i])) visit(u);
    }
    close_band(hi);
    lo = hi;
  }
  for (const graph::Vid t : targets) s.target_rows.push_back(s.row_of[t]);
  for (std::size_t r = 0; r < s.order.size(); ++r) {
    if (s.order[r] != r) return false;
  }
  return true;
}

tensor::ConstMatrixView row_prefix(const tensor::Matrix& m, std::size_t rows) {
  return {m.data(), rows, m.cols(), m.cols()};
}

}  // namespace

const tensor::Matrix& infer_logits(const GcnModel& model,
                                   const graph::CsrGraph& g,
                                   const tensor::Matrix& x,
                                   InferenceScratch& scratch, int threads,
                                   std::span<const graph::Vid> targets) {
  const auto& layers = model.layers();
  if (layers.empty()) throw std::invalid_argument("infer_logits: no layers");
  if (x.rows() != g.num_vertices() || x.cols() != layers.front().in_dim()) {
    throw std::invalid_argument("infer_logits: input shape " + x.shape_str());
  }
  const std::size_t num_layers = layers.size();
  const bool all = targets.empty();
  // order: the vertex of each layer-1 row; row_of: vertex → row of every
  // deeper layer's input. Null means the identity.
  const graph::Vid* order = nullptr;
  const graph::Vid* row_of = nullptr;
  if (!all && !plan_rows(g, targets, num_layers - 1, scratch)) {
    order = scratch.order.data();
    row_of = scratch.row_of.data();
  }

  const tensor::Matrix* h = &x;
  tensor::Matrix* next = &scratch.h_a;
  tensor::Matrix* spare = &scratch.h_b;
  for (std::size_t k = 0; k < num_layers; ++k) {
    const GraphConvLayer& layer = layers[k];
    // Layer k+1 of L produces the rows within L−k−1 hops of the targets.
    const std::size_t rows =
        all ? g.num_vertices() : scratch.hop_end[num_layers - 1 - k];
    const std::size_t fo = layer.out_dim();
    ensure_shape(scratch.agg, rows, layer.in_dim());
    ensure_shape(*next, rows, 2 * fo);

    // The first layer reads x by vertex id; deeper ones read the previous
    // layer's rows through row_of.
    propagation::FeaturePartitionOptions opts;
    opts.threads = threads;
    opts.aggregator = layer.aggregator();
    propagation::propagate_feature_partitioned_rows(
        g, *h, order, k == 0 ? nullptr : row_of, scratch.agg, opts);

    // Same zero-copy shape as GraphConvLayer::forward: GEMMs write the
    // two concat halves in place, ReLU fused into the store. A deeper
    // layer's rows are a prefix of its input's rows.
    const auto epilogue = layer.has_relu() ? tensor::Epilogue::kRelu
                                           : tensor::Epilogue::kNone;
    const auto self_out = tensor::MatrixView::cols_slice(*next, 0, fo);
    if (k == 0 && order != nullptr) {
      tensor::gemm_nn_rows(x, {order, rows}, layer.w_self(), self_out, 1.0f,
                           0.0f, threads, epilogue);
    } else {
      tensor::gemm_nn(row_prefix(*h, rows), layer.w_self(), self_out, 1.0f,
                      0.0f, threads, epilogue);
    }
    tensor::gemm_nn(scratch.agg, layer.w_neigh(),
                    tensor::MatrixView::cols_slice(*next, fo, fo), 1.0f, 0.0f,
                    threads, epilogue);

    h = next;
    std::swap(next, spare);
  }

  const std::size_t classes = model.w_cls().cols();
  if (all) {
    ensure_shape(scratch.logits, h->rows(), classes);
    tensor::gemm_nn(*h, model.w_cls(), scratch.logits, 1.0f, 0.0f, threads);
  } else {
    ensure_shape(scratch.logits, targets.size(), classes);
    tensor::gemm_nn_rows(*h, scratch.target_rows, model.w_cls(),
                         scratch.logits, 1.0f, 0.0f, threads);
  }
  tensor::add_bias_rows(scratch.logits,
                        {model.bias_cls().data(), model.bias_cls().cols()},
                        threads);
  return scratch.logits;
}

}  // namespace gsgcn::gcn
