#pragma once
// Partitioned feature-propagation schemes.
//
// The paper's scheme (Algorithm 6): keep the graph whole (P = 1), split
// the feature dimension into Q slices, and propagate Q/C rounds of C
// slices in parallel. Load balance is perfect (all processors do
// identical work per round) and there is no pre-processing. Theorem 2
// sizes Q* = max{C, elem·n·f/S_cache} so that each slice fits a private
// cache; the tiled kernels drop the cache term and use Q = C, one slice
// per thread, which measured faster than Q* wherever the two differ
// (DESIGN.md, "One partition rule"). The legacy:: kernels keep Q*.
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
  int threads = 0;  // C (0 = OpenMP max)
  int force_q = 0;  // 0 = min(C, f); legacy:: kernels: Theorem 2's Q*
  AggregatorKind aggregator = AggregatorKind::kMean;
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
/// With src_of == nullptr, `in` may have fewer than |V| rows only if every
/// neighbor of every output vertex has a row in it (a hop-ordered prefix);
/// otherwise this throws std::invalid_argument. Returns the Q used.
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
/// bench_propagation (the tiled-vs-legacy CI gate). Unless force_q pins
/// it, Q is Theorem 2's Q* for the detected private cache
/// (util::private_cache_bytes).
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
