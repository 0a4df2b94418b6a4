#pragma once
// Partitioned feature-propagation schemes.
//
// The paper's scheme (Algorithm 6): keep the graph whole (P = 1), split
// the feature dimension into Q = max{C, elem·n·f/S_cache} slices, and
// propagate Q/C rounds of C slices in parallel. Each processor's working
// set (one feature slice of all vertices) fits in its private cache, load
// balance is perfect (all processors do identical work per round), and
// there is no pre-processing.
//
// The 2-D scheme (P vertex parts × Q feature slices) is what the label-
// propagation literature would do; it is implemented here as the
// Theorem-2 ablation's comparator.

#include "graph/csr.hpp"
#include "graph/partition.hpp"
#include "propagation/comm_model.hpp"
#include "propagation/spmm.hpp"
#include "tensor/matrix.hpp"

namespace gsgcn::propagation {

struct FeaturePartitionOptions {
  int threads = 0;     // C (0 = OpenMP max)
  std::size_t cache_bytes = 0;  // per-core private cache; 0 = detect (L2)
  int force_q = 0;     // 0 = use choose_feature_partitions
  AggregatorKind aggregator = AggregatorKind::kMean;
  // Time a few Q candidates around the analytic Q* and keep the fastest,
  // cached per (n, e, f, threads) shape. Only engages when neither force_q
  // nor cache_bytes pins the choice. The tiled kernel is bit-identical for
  // every Q, so the measured pick never changes numerics.
  bool autotune = true;
};

/// Mean aggregation via Algorithm 6 (P = 1, feature-only partitioning).
/// Result identical to aggregate_mean_forward; performance differs.
/// Returns the Q actually used.
int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in,
                                  tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts = {});

/// Row-pruned forward under the same partitioning, for callers that need
/// only some rows (targeted inference): output row i is the aggregation of
/// vertex rows[i] (rows == nullptr: vertex i), for i < out.rows, and
/// neighbor u is read from in.row(src_of[u]) (src_of == nullptr:
/// in.row(u)). `in` and `out` may be compact row sets of g; each row is
/// bit-identical to that vertex's row of propagate_feature_partitioned.
/// Returns the Q used.
int propagate_feature_partitioned_rows(const graph::CsrGraph& g,
                                       const tensor::Matrix& in,
                                       const graph::Vid* rows,
                                       const graph::Vid* src_of,
                                       tensor::Matrix& out,
                                       const FeaturePartitionOptions& opts = {});

/// Backward (gradient) pass under the same partitioning.
int propagate_feature_partitioned_backward(
    const graph::CsrGraph& g, const tensor::Matrix& d_out,
    tensor::Matrix& d_in, const FeaturePartitionOptions& opts = {});

/// 2-D partitioned aggregation: vertex partition `parts` × q feature
/// slices, parallel over (part, slice) pairs. Same numerical result as
/// aggregate_forward(kind).
void propagate_2d(const graph::CsrGraph& g, const graph::Partition& parts,
                  int q, AggregatorKind kind, const tensor::Matrix& in,
                  tensor::Matrix& out, int threads = 0);

/// The pre-tiling scalar slice kernels, kept as the measured baseline for
/// bench_propagation (the tiled-vs-legacy CI gate). Always uses the
/// analytic Q — no autotuning.
namespace legacy {
int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in,
                                  tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts = {});
int propagate_feature_partitioned_backward(
    const graph::CsrGraph& g, const tensor::Matrix& d_out,
    tensor::Matrix& d_in, const FeaturePartitionOptions& opts = {});
}  // namespace legacy

}  // namespace gsgcn::propagation
