#include "propagation/feature_partitioned.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"
#include "util/mutex.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace gsgcn::propagation {

namespace {

struct Slice {
  std::size_t begin;
  std::size_t end;
};

Slice feature_slice(std::size_t f, int q, int i) {
  const std::size_t base = f / static_cast<std::size_t>(q);
  const std::size_t rem = f % static_cast<std::size_t>(q);
  const std::size_t b = static_cast<std::size_t>(i) * base +
                        std::min<std::size_t>(static_cast<std::size_t>(i), rem);
  const std::size_t len = base + (static_cast<std::size_t>(i) < rem ? 1 : 0);
  return {b, b + len};
}

/// Q* for slices of an n-row source operand (the rows every slice streams).
int analytic_q(const graph::CsrGraph& g, std::size_t n, std::size_t f,
               const FeaturePartitionOptions& opts, int threads) {
  CommModelParams m;
  m.n = static_cast<std::int64_t>(n);
  m.d = g.average_degree();
  m.f = static_cast<std::int64_t>(f);
  m.elem_bytes = sizeof(float);
  m.idx_bytes = sizeof(graph::Vid);
  m.cache_bytes =
      opts.cache_bytes != 0 ? opts.cache_bytes : util::private_cache_bytes();
  m.processors = threads;
  return choose_feature_partitions(m);
}

int pick_q(const graph::CsrGraph& g, std::size_t n, std::size_t f,
           const FeaturePartitionOptions& opts, int threads) {
  // f == 0 still needs q >= 1 so the slice loop and its assert stay sane.
  const int fmax = static_cast<int>(std::max<std::size_t>(f, 1));
  if (opts.force_q > 0) return std::min(opts.force_q, fmax);
  return analytic_q(g, n, f, opts, threads);
}

// ---- measured-Q autotuner ------------------------------------------------
// Theorem 2's Q* = max{C, ⌈elem·n·f/S_cache⌉} trusts the cache model; the
// autotuner treats it as a seed, times a few candidates around it, and
// caches the winner per subgraph shape. The tiled kernel is bit-identical
// for every Q (see spmm.hpp), so a measured pick never changes numerics —
// resume and thread-count determinism are unaffected.

struct QKey {
  std::uint64_t n = 0;
  std::uint64_t e = 0;
  std::uint64_t f = 0;
  int threads = 0;
  bool backward = false;
  bool operator==(const QKey&) const = default;
};

struct QKeyHash {
  std::size_t operator()(const QKey& k) const {
    std::size_t h = 0;
    const auto mix = [&h](std::uint64_t v) {
      h ^= std::hash<std::uint64_t>{}(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
           (h >> 2);
    };
    mix(k.n);
    mix(k.e);
    mix(k.f);
    mix(static_cast<std::uint64_t>(k.threads));
    mix(k.backward ? 1 : 0);
    return h;
  }
};

class QCache {
 public:
  bool lookup(const QKey& k, int* q) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    const auto it = map_.find(k);
    if (it == map_.end()) return false;
    *q = it->second;
    return true;
  }

  void store(const QKey& k, int q) EXCLUDES(mu_) {
    util::MutexLock lock(mu_);
    map_.emplace(k, q);
  }

 private:
  util::Mutex mu_;
  std::unordered_map<QKey, int, QKeyHash> map_ GUARDED_BY(mu_);
};

QCache& q_cache() {
  static QCache cache;
  return cache;
}

/// Q* has no edge-count term, and sampled subgraphs jitter in |E| from one
/// draw to the next; quantizing e to <= 16 buckets per octave (~6% bins)
/// keeps that jitter from defeating the cache.
std::uint64_t quantize_edges(std::uint64_t e) {
  std::uint64_t step = 1;
  while ((e >> 4) >= step) step <<= 1;
  return e - e % step;
}

std::vector<int> q_candidates(int q_star, int c, int fmax) {
  const int lo = std::min(std::max(c, 1), fmax);
  std::vector<int> out;
  const auto push = [&](int q) {
    q = std::clamp(q, lo, fmax);
    if (std::find(out.begin(), out.end(), q) == out.end()) out.push_back(q);
  };
  push(q_star);      // analytic seed first: exact ties keep Theorem 2's pick
  push(q_star / 2);  // fatter slices (model overestimated the working set)
  push(q_star * 2);  // thinner slices (model underestimated it)
  push(lo);          // floor: C slices, the fattest that still feeds C cores
  return out;
}

template <typename RunFn>
int measured_q(const graph::CsrGraph& g, std::size_t rows, std::size_t f,
               int threads, bool backward, int q_star, const RunFn& run) {
  const QKey key{rows,
                 quantize_edges(static_cast<std::uint64_t>(g.num_edges())),
                 static_cast<std::uint64_t>(f), threads, backward};
  int q = 0;
  if (q_cache().lookup(key, &q)) return q;
  const int fmax = static_cast<int>(std::max<std::size_t>(f, 1));
  const std::vector<int> cands = q_candidates(q_star, threads, fmax);
  q = cands.front();
  if (cands.size() > 1) {
    double best = std::numeric_limits<double>::infinity();
    for (const int cand : cands) {
      double t = std::numeric_limits<double>::infinity();
      for (int rep = 0; rep < 2; ++rep) {
        const util::Timer timer;
        run(cand);
        t = std::min(t, timer.seconds());
      }
      if (t < best) {  // strict <: ties keep the earlier (analytic) entry
        best = t;
        q = cand;
      }
    }
  }
  q_cache().store(key, q);
  return q;
}

/// Per-thread source-weight table, grown once and reused so a
/// steady-state call allocates nothing.
std::vector<float>& weight_table() {
  static thread_local std::vector<float> w;
  return w;
}

bool use_autotune(const FeaturePartitionOptions& opts) {
  // force_q pins Q outright; a caller-supplied cache_bytes pins the model
  // (callers set it precisely to observe the analytic response), so either
  // bypasses measurement.
  return opts.autotune && opts.force_q == 0 && opts.cache_bytes == 0;
}

/// Forward aggregation over one feature slice for all vertices — the
/// pre-tiling scalar kernel, kept verbatim as the legacy:: baseline.
void forward_slice(const graph::CsrGraph& g, AggregatorKind kind,
                   const tensor::Matrix& in, tensor::Matrix& out, Slice s) {
  const std::size_t len = s.end - s.begin;
  for (graph::Vid v = 0; v < g.num_vertices(); ++v) {
    float* dst = out.row(v) + s.begin;
    std::memset(dst, 0, len * sizeof(float));
    const auto nbrs = g.neighbors(v);
    if (nbrs.empty()) continue;
    if (kind == AggregatorKind::kSymmetric) {
      const float inv_sqrt_dv =
          1.0f / std::sqrt(static_cast<float>(nbrs.size()));
      for (const graph::Vid u : nbrs) {
        const float w =
            inv_sqrt_dv / std::sqrt(static_cast<float>(g.degree(u)));
        const float* src = in.row(u) + s.begin;
        for (std::size_t j = 0; j < len; ++j) dst[j] += w * src[j];
      }
    } else {
      for (const graph::Vid u : nbrs) {
        const float* src = in.row(u) + s.begin;
        for (std::size_t j = 0; j < len; ++j) dst[j] += src[j];
      }
      if (kind == AggregatorKind::kMean) {
        const float inv = 1.0f / static_cast<float>(nbrs.size());
        for (std::size_t j = 0; j < len; ++j) dst[j] *= inv;
      }
    }
  }
}

void backward_slice(const graph::CsrGraph& g, AggregatorKind kind,
                    const tensor::Matrix& d_out, tensor::Matrix& d_in,
                    Slice s) {
  if (kind != AggregatorKind::kMean) {
    // Sum and symmetric normalization are self-adjoint on an undirected
    // graph: the gradient is the forward operator applied to d_out.
    forward_slice(g, kind, d_out, d_in, s);
    return;
  }
  const std::size_t len = s.end - s.begin;
  for (graph::Vid u = 0; u < g.num_vertices(); ++u) {
    float* dst = d_in.row(u) + s.begin;
    std::memset(dst, 0, len * sizeof(float));
    for (const graph::Vid v : g.neighbors(u)) {
      const float w = 1.0f / static_cast<float>(g.degree(v));
      const float* src = d_out.row(v) + s.begin;
      for (std::size_t j = 0; j < len; ++j) dst[j] += w * src[j];
    }
  }
}

void check(const graph::CsrGraph& g, const tensor::Matrix& a,
           const tensor::Matrix& b) {
  if (a.rows() != g.num_vertices() || b.rows() != g.num_vertices() ||
      a.cols() != b.cols()) {
    throw std::invalid_argument("feature_partitioned: bad shapes");
  }
  // Zero-sized matrices may legitimately share a null data pointer.
  if (a.size() != 0 && a.data() == b.data()) {
    throw std::invalid_argument("feature_partitioned: in/out must not alias");
  }
}

}  // namespace

int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in, tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts) {
  check(g, in, out);
  return propagate_feature_partitioned_rows(g, in, nullptr, nullptr, out, opts);
}

int propagate_feature_partitioned_rows(const graph::CsrGraph& g,
                                       const tensor::Matrix& in,
                                       const graph::Vid* rows,
                                       const graph::Vid* src_of,
                                       tensor::Matrix& out,
                                       const FeaturePartitionOptions& opts) {
  if (in.cols() != out.cols() || out.rows() > g.num_vertices() ||
      in.rows() > g.num_vertices()) {
    throw std::invalid_argument("feature_partitioned_rows: bad shapes");
  }
  if (in.size() != 0 && in.data() == out.data()) {
    throw std::invalid_argument("feature_partitioned: in/out must not alias");
  }
  const int c = util::resolve_threads(opts.threads);
  const std::size_t f = in.cols();
  const auto n_out = static_cast<graph::Vid>(out.rows());
  const float* wp = tiled::source_weights(g, opts.aggregator,
                                          /*backward=*/false, c, weight_table());
  // Q/C rounds of C concurrent slices (Algorithm 6 lines 4-6). A single
  // collapsed parallel-for gives the same schedule with less fork/join.
  const auto run = [&](int slices) {
    util::parallel_for(slices, c, [&](std::int64_t i) {
      const Slice s = feature_slice(f, slices, static_cast<int>(i));
      tiled::aggregate_rows(g, opts.aggregator, /*backward=*/false, in, out,
                            0, n_out, s.begin, s.end, wp, rows, src_of);
    });
  };
  int q = pick_q(g, in.rows(), f, opts, c);
  if (use_autotune(opts)) {
    q = measured_q(g, n_out, f, c, /*backward=*/false, q, run);
  }
  GSGCN_ASSERT(
      q >= 1 && static_cast<std::size_t>(q) <= std::max<std::size_t>(f, 1),
      "feature partition count out of range");
  GSGCN_TRACE_SPAN_ID("featprop/forward", q);
  // Edges of a pruned call estimated pro rata (the roofline needs only the
  // order of magnitude, and an exact count would walk every listed row).
  const obs::Work work [[maybe_unused]] = obs::spmm_work(
      static_cast<std::int64_t>(n_out),
      static_cast<std::int64_t>(
          g.num_vertices() == 0
              ? 0
              : g.num_edges() * n_out / g.num_vertices()),
      static_cast<std::int64_t>(f));
  GSGCN_PERF_REGION_WORK("propagate", work.flops, work.bytes);
  run(q);
  return q;
}

int propagate_feature_partitioned_backward(const graph::CsrGraph& g,
                                           const tensor::Matrix& d_out,
                                           tensor::Matrix& d_in,
                                           const FeaturePartitionOptions& opts) {
  check(g, d_out, d_in);
  const int c = util::resolve_threads(opts.threads);
  const std::size_t f = d_out.cols();
  const graph::Vid n = g.num_vertices();
  const float* wp = tiled::source_weights(g, opts.aggregator,
                                          /*backward=*/true, c, weight_table());
  const auto run = [&](int slices) {
    util::parallel_for(slices, c, [&](std::int64_t i) {
      const Slice s = feature_slice(f, slices, static_cast<int>(i));
      tiled::aggregate_rows(g, opts.aggregator, /*backward=*/true, d_out, d_in,
                            0, n, s.begin, s.end, wp);
    });
  };
  int q = pick_q(g, n, f, opts, c);
  if (use_autotune(opts)) q = measured_q(g, n, f, c, /*backward=*/true, q, run);
  GSGCN_ASSERT(
      q >= 1 && static_cast<std::size_t>(q) <= std::max<std::size_t>(f, 1),
      "feature partition count out of range");
  GSGCN_TRACE_SPAN_ID("featprop/backward", q);
  const obs::Work work [[maybe_unused]] = obs::spmm_work(
      static_cast<std::int64_t>(g.num_vertices()),
      static_cast<std::int64_t>(g.num_edges()),
      static_cast<std::int64_t>(f));
  GSGCN_PERF_REGION_WORK("propagate", work.flops, work.bytes);
  run(q);
  return q;
}

void propagate_2d(const graph::CsrGraph& g, const graph::Partition& parts,
                  int q, AggregatorKind kind, const tensor::Matrix& in,
                  tensor::Matrix& out, int threads) {
  check(g, in, out);
  if (q < 1) throw std::invalid_argument("propagate_2d: q >= 1");
  const int p = static_cast<int>(parts.num_parts());
#if GSGCN_CHECKS_ENABLED
  {
    // Partition coverage: every vertex appears in exactly one part, so
    // every output row is written by exactly one (pi, qi) tile owner.
    std::size_t covered = 0;
    for (const auto& part : parts.parts) {
      covered += part.size();
      for (const graph::Vid v : part) GSGCN_CHECK_BOUNDS(v, g.num_vertices());
    }
    GSGCN_ASSERT(covered == g.num_vertices(),
                 "propagate_2d: partition does not cover the vertex set");
  }
#endif
  std::vector<float> w;
  const float* wp =
      tiled::source_weights(g, kind, /*backward=*/false, threads, w);
  const int total = p * q;
  GSGCN_TRACE_SPAN_ID("propagate_2d", total);
  // Tiles are irregular (part sizes vary): hand them out dynamically.
  util::parallel_for_dynamic(total, threads, [&](std::int64_t t) {
    const int pi = static_cast<int>(t) / q;
    const int qi = static_cast<int>(t) % q;
    const Slice s = feature_slice(in.cols(), q, qi);
    const auto& rows = parts.parts[static_cast<std::size_t>(pi)];
    tiled::aggregate_rows(g, kind, /*backward=*/false, in, out,
                          std::span<const graph::Vid>(rows.data(), rows.size()),
                          s.begin, s.end, wp);
  });
}

namespace legacy {

int propagate_feature_partitioned(const graph::CsrGraph& g,
                                  const tensor::Matrix& in, tensor::Matrix& out,
                                  const FeaturePartitionOptions& opts) {
  check(g, in, out);
  const int c = util::resolve_threads(opts.threads);
  const int q = pick_q(g, in.rows(), in.cols(), opts, c);
  util::parallel_for(q, c, [&](std::int64_t i) {
    forward_slice(g, opts.aggregator, in, out,
                  feature_slice(in.cols(), q, static_cast<int>(i)));
  });
  return q;
}

int propagate_feature_partitioned_backward(const graph::CsrGraph& g,
                                           const tensor::Matrix& d_out,
                                           tensor::Matrix& d_in,
                                           const FeaturePartitionOptions& opts) {
  check(g, d_out, d_in);
  const int c = util::resolve_threads(opts.threads);
  const int q = pick_q(g, d_out.rows(), d_out.cols(), opts, c);
  util::parallel_for(q, c, [&](std::int64_t i) {
    backward_slice(g, opts.aggregator, d_out, d_in,
                   feature_slice(d_out.cols(), q, static_cast<int>(i)));
  });
  return q;
}

}  // namespace legacy

}  // namespace gsgcn::propagation
