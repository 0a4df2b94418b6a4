// Tiled vs legacy SpMM over sampled-subgraph shapes (google-benchmark).
//
// Three name families over |V| ∈ {6000, 9000} × f ∈ {64..512} × every
// aggregator:
//   BM_SpmmTiled/...          tiled kernel, default Q = C (one slice/thread)
//   BM_SpmmTiledAnalytic/...  tiled kernel pinned to Theorem 2's Q*
//   BM_SpmmLegacy/...         pre-tiling scalar slice kernel (baseline)
// The perf-smoke CI job gates two pair ratios from the GFLOPS counters:
// tiled vs legacy (median >= 1.3x) and tiled vs analytic-Q (every shape
// >= 0.95x — the fixed Q = C rule must stay within 5% of the model's Q*).
// Counters: GFLOPS and model_gbps from the obs::spmm_work model, the
// measured PMU columns, and the q / q_analytic partition counts.

#include <benchmark/benchmark.h>

#include <cstddef>
#include <string>

#include "gbench_common.hpp"
#include "graph/generators.hpp"
#include "obs/perf.hpp"
#include "obs/roofline.hpp"
#include "propagation/feature_partitioned.hpp"
#include "propagation/spmm.hpp"
#include "util/rng.hpp"

namespace {

using namespace gsgcn;

enum class Mode { kTiled, kTiledAnalytic, kLegacy };

tensor::Matrix random_matrix(std::size_t r, std::size_t c, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  return tensor::Matrix::gaussian(r, c, 1.0f, rng);
}

void run_spmm(benchmark::State& state, graph::Vid n, std::size_t f,
              propagation::AggregatorKind kind, Mode mode) {
  util::Xoshiro256 rng(7 + n);
  const graph::CsrGraph g =
      graph::erdos_renyi(n, static_cast<graph::Eid>(n) * 15, rng);
  const tensor::Matrix in = random_matrix(n, f, 21);
  tensor::Matrix out(n, f);
  propagation::FeaturePartitionOptions opts;
  opts.aggregator = kind;
  // Warmup: the legacy kernel records Theorem 2's Q*, which the analytic
  // family then pins.
  const int q_analytic =
      propagation::legacy::propagate_feature_partitioned(g, in, out, opts);
  if (mode == Mode::kTiledAnalytic) opts.force_q = q_analytic;
  int q_used = q_analytic;
  if (mode != Mode::kLegacy) {
    q_used = propagation::propagate_feature_partitioned(g, in, out, opts);
  }
  const obs::PerfReading pr = obs::perf_read_thread();
  for (auto _ : state) {
    if (mode == Mode::kLegacy) {
      propagation::legacy::propagate_feature_partitioned(g, in, out, opts);
    } else {
      propagation::propagate_feature_partitioned(g, in, out, opts);
    }
    benchmark::DoNotOptimize(out.data());
  }
  const obs::Work work =
      obs::spmm_work(static_cast<std::int64_t>(n),
                     static_cast<std::int64_t>(g.num_edges()),
                     static_cast<std::int64_t>(f));
  state.counters["GFLOPS"] = benchmark::Counter(
      work.flops * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["model_gbps"] = benchmark::Counter(
      work.bytes * 1e-9, benchmark::Counter::kIsIterationInvariantRate);
  state.counters["ai_model"] =
      work.bytes > 0.0 ? work.flops / work.bytes : 0.0;
  state.counters["q"] = static_cast<double>(q_used);
  state.counters["q_analytic"] = static_cast<double>(q_analytic);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          g.num_edges() * static_cast<std::int64_t>(f));
  bench::set_measured_counters(state, pr, work);
}

const char* family_name(Mode mode) {
  switch (mode) {
    case Mode::kTiled: return "BM_SpmmTiled";
    case Mode::kTiledAnalytic: return "BM_SpmmTiledAnalytic";
    case Mode::kLegacy: return "BM_SpmmLegacy";
  }
  return "?";
}

void register_benchmarks() {
  for (const Mode mode :
       {Mode::kTiled, Mode::kTiledAnalytic, Mode::kLegacy}) {
    for (const graph::Vid n : {6000u, 9000u}) {
      for (const std::size_t f : {64u, 128u, 256u, 512u}) {
        for (const auto kind : {propagation::AggregatorKind::kMean,
                                propagation::AggregatorKind::kSum,
                                propagation::AggregatorKind::kSymmetric}) {
          const std::string name = std::string(family_name(mode)) + "/" +
                                   std::to_string(n) + "/f" +
                                   std::to_string(f) + "/" +
                                   propagation::aggregator_name(kind);
          benchmark::RegisterBenchmark(
              name.c_str(), [n, f, kind, mode](benchmark::State& state) {
                run_spmm(state, n, f, kind, mode);
              });
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  register_benchmarks();
  return gsgcn::bench::gbench_main(argc, argv, "BENCH_propagation.json");
}
