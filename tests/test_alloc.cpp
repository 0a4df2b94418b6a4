// Steady-state heap allocations of the compute path.
//
// This binary replaces the global operator new with a counting one and
// checks that, once warmed up, two loops make zero allocations:
//   - GcnModel::forward → classification_loss → backward →
//     apply_gradients, over subgraphs no larger than those already seen
//     (grow-only workspaces), including sizes never seen before, as
//     sampler draws are, and
//   - a repeated Trainer::evaluate(val) (target-pruned inference scratch).
// Scope: the compute path only. The subgraph sampler and pool build a
// fresh CSR and id vectors per draw and are excluded — the subgraphs here
// are induced before counting starts.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "data/synthetic.hpp"
#include "gcn/adam.hpp"
#include "gcn/loss.hpp"
#include "gcn/model.hpp"
#include "gcn/trainer.hpp"
#include "graph/subgraph.hpp"
#include "tensor/ops.hpp"

namespace {
std::atomic<long> g_allocations{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

// Every replacement stays out of line: once inlined, GCC's
// -Wmismatched-new-delete pairs the malloc()/free() inside them with the
// new-expressions and deletes of the code that calls them.
[[gnu::noinline]] void* operator new(std::size_t n) {
  return counted_alloc(n, 0);
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return counted_alloc(n, 0);
}
[[gnu::noinline]] void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
[[gnu::noinline]] void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
[[gnu::noinline]] void* operator new(std::size_t n,
                                     const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(n, 0);
  } catch (...) {
    return nullptr;
  }
}
[[gnu::noinline]] void* operator new[](std::size_t n,
                                       const std::nothrow_t&) noexcept {
  return ::operator new(n, std::nothrow);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, std::size_t,
                                       std::align_val_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t,
                                         std::align_val_t) noexcept {
  std::free(p);
}

namespace gsgcn::gcn {
namespace {

long allocations() { return g_allocations.load(std::memory_order_relaxed); }

/// Thread counts to check. The std::thread backend spawns (and allocates)
/// a team per parallel region by design, so it is checked single-threaded.
std::vector<int> thread_counts() {
#ifdef GSGCN_THREAD_BACKEND
  return {1};
#else
  return {1, 2};
#endif
}

data::Dataset dataset() {
  data::SyntheticParams p;
  p.num_vertices = 600;
  p.num_classes = 5;
  p.feature_dim = 20;
  p.avg_degree = 8.0;
  p.seed = 6;
  return data::make_synthetic(p);
}

TEST(SteadyStateAllocations, TrainingIterationAllocatesNothing) {
  const data::Dataset ds = dataset();
  // Subgraphs on `size` distinct random vertices, so each has exactly that
  // many: `warm` sizes run before counting starts (the largest first, as
  // the sampler budget bounds every later draw), `fresh` sizes only while
  // counting.
  graph::Inducer inducer(ds.graph);
  util::Xoshiro256 rng(7);
  const auto induce = [&](const std::vector<graph::Vid>& sizes) {
    std::vector<graph::Subgraph> out;
    for (const graph::Vid size : sizes) {
      std::vector<bool> taken(ds.graph.num_vertices(), false);
      std::vector<graph::Vid> ids;
      while (ids.size() < size) {
        const auto v =
            static_cast<graph::Vid>(rng() % ds.graph.num_vertices());
        if (!taken[v]) {
          taken[v] = true;
          ids.push_back(v);
        }
      }
      out.push_back(inducer.induce(ids));
      EXPECT_EQ(out.back().num_vertices(), size);
    }
    return out;
  };
  // 560 rows are three Kc = 256 K-blocks of the weight-gradient GEMM, so
  // its K-split partial sums are live during warm-up; the fresh sizes
  // cross the one/two/three-K-block edges.
  const std::vector<graph::Subgraph> warm = induce({560, 180, 240, 90});
  const std::vector<graph::Subgraph> fresh =
      induce({300, 520, 200, 150, 120, 257});
  for (const int threads : thread_counts()) {
    for (const float dropout : {0.0f, 0.3f}) {
      ModelConfig mc;
      mc.in_dim = ds.feature_dim();
      mc.hidden_dim = 16;
      mc.num_classes = ds.num_classes();
      mc.num_layers = 2;
      mc.dropout = dropout;
      GcnModel model(mc);
      Adam opt(AdamConfig{});
      model.attach(opt);
      PhaseClock clock;
      tensor::Matrix x, labels, d_logits;
      const auto iteration = [&](const graph::Subgraph& sub) {
        const graph::Vid n = sub.num_vertices();
        ensure_shape(x, n, ds.feature_dim());
        ensure_shape(labels, n, ds.num_classes());
        tensor::gather_rows(ds.features, sub.orig_ids, x, threads);
        tensor::gather_rows(ds.labels, sub.orig_ids, labels, threads);
        const tensor::Matrix& logits =
            model.forward(sub.graph, x, threads, &clock, /*training=*/true);
        ensure_shape(d_logits, n, ds.num_classes());
        classification_loss(ds.mode, logits, labels, d_logits);
        model.backward(sub.graph, d_logits, threads, &clock);
        model.apply_gradients(opt);
      };
      for (const auto& sub : warm) iteration(sub);
      const long before = allocations();
      for (const auto& sub : fresh) iteration(sub);
      for (int rep = 0; rep < 3; ++rep) {
        for (const auto& sub : warm) iteration(sub);
      }
      EXPECT_EQ(allocations() - before, 0)
          << "threads=" << threads << " dropout=" << dropout;
    }
  }
}

TEST(SteadyStateAllocations, RepeatedEvaluateAllocatesNothing) {
  const data::Dataset ds = dataset();
  for (const int threads : thread_counts()) {
    TrainerConfig cfg;
    cfg.hidden_dim = 16;
    cfg.num_layers = 2;
    cfg.threads = threads;
    Trainer trainer(ds, cfg);
    const double first = trainer.evaluate(ds.val_vertices);  // warm-up
    const long before = allocations();
    double again = 0.0;
    for (int rep = 0; rep < 3; ++rep) again = trainer.evaluate(ds.val_vertices);
    EXPECT_EQ(allocations() - before, 0) << "threads=" << threads;
    EXPECT_EQ(again, first);
  }
}

}  // namespace
}  // namespace gsgcn::gcn
