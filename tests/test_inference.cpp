// Target-pruned inference: targeted rows are bit-identical to full-graph
// rows for every aggregator, depth, thread count and target-set shape,
// and Trainer::evaluate scores exactly what full-graph logits would.

#include <gtest/gtest.h>

#include <cstring>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "data/synthetic.hpp"
#include "gcn/inference.hpp"
#include "gcn/loss.hpp"
#include "gcn/metrics.hpp"
#include "gcn/trainer.hpp"
#include "tensor/ops.hpp"
#include "test_helpers.hpp"

namespace gsgcn::gcn {
namespace {

using propagation::AggregatorKind;
using tensor::Matrix;

bool rows_equal(const float* a, const float* b, std::size_t cols) {
  return std::memcmp(a, b, cols * sizeof(float)) == 0;
}

using Params = std::tuple<AggregatorKind, int, int>;  // aggregator, L, threads

class TargetedInference : public ::testing::TestWithParam<Params> {};

TEST_P(TargetedInference, RowsMatchFullGraphBitForBit) {
  const auto [aggregator, layers, threads] = GetParam();
  constexpr graph::Vid kN = 120;
  const graph::CsrGraph g = gsgcn::testing::small_er(kN, 300, 21);
  ModelConfig mc;
  mc.in_dim = 37;  // not a multiple of the SIMD width: exercises the tails
  mc.hidden_dim = 20;
  mc.num_classes = 5;
  mc.num_layers = layers;
  mc.aggregator = aggregator;
  mc.seed = 9;
  const GcnModel m(mc);
  util::Xoshiro256 rng(22);
  const Matrix x = Matrix::gaussian(kN, mc.in_dim, 1.0f, rng);

  InferenceScratch full_scratch;
  const Matrix full = infer_logits(m, g, x, full_scratch, threads);
  ASSERT_EQ(full.rows(), kN);
  const std::size_t cols = full.cols();

  std::vector<graph::Vid> all(kN);
  std::iota(all.begin(), all.end(), 0u);
  std::vector<graph::Vid> all_reversed(all.rbegin(), all.rend());
  const std::vector<std::vector<graph::Vid>> target_sets = {
      {},                          // empty: every vertex
      {17},                        // a single vertex
      {5, 99, 5, 3, 5},            // duplicates
      {110, 2, 64, 31, 7, 88, 0},  // unsorted
      all,                         // all of V, in order
      all_reversed,                // all of V, reversed
  };
  // One scratch across every set: grow-only reuse must not leak rows.
  InferenceScratch scratch;
  for (const auto& targets : target_sets) {
    const Matrix& got = infer_logits(m, g, x, scratch, threads, targets);
    const std::size_t want_rows = targets.empty() ? kN : targets.size();
    ASSERT_EQ(got.rows(), want_rows);
    ASSERT_EQ(got.cols(), cols);
    for (std::size_t i = 0; i < want_rows; ++i) {
      const graph::Vid v = targets.empty() ? static_cast<graph::Vid>(i)
                                           : targets[i];
      EXPECT_TRUE(rows_equal(got.row(i), full.row(v), cols))
          << "target #" << i << " (vertex " << v << ") of a "
          << targets.size() << "-vertex set";
    }
  }
}

std::string params_name(const ::testing::TestParamInfo<Params>& info) {
  return std::string(propagation::aggregator_name(std::get<0>(info.param))) +
         "_L" + std::to_string(std::get<1>(info.param)) + "_T" +
         std::to_string(std::get<2>(info.param));
}

INSTANTIATE_TEST_SUITE_P(
    AggregatorsDepthsThreads, TargetedInference,
    ::testing::Combine(::testing::Values(AggregatorKind::kMean,
                                         AggregatorKind::kSum,
                                         AggregatorKind::kSymmetric),
                       ::testing::Values(1, 2, 3), ::testing::Values(1, 2, 4)),
    params_name);

TEST(TargetedInferenceInput, RejectsOutOfRangeTarget) {
  ModelConfig mc;
  mc.in_dim = 4;
  mc.hidden_dim = 3;
  mc.num_classes = 2;
  const GcnModel m(mc);
  const graph::CsrGraph g = gsgcn::testing::tiny_graph();
  const Matrix x(5, 4);
  InferenceScratch scratch;
  const std::vector<graph::Vid> bad = {1, 5};
  EXPECT_THROW(infer_logits(m, g, x, scratch, 1, bad), std::out_of_range);
}

/// F1 of `subset` computed the pre-pruning way: full-graph logits, then
/// predict and gather.
double full_graph_f1(const GcnModel& model, const data::Dataset& ds,
                     const std::vector<graph::Vid>& subset, int threads) {
  InferenceScratch scratch;
  const Matrix& logits =
      infer_logits(model, ds.graph, ds.features, scratch, threads);
  Matrix pred(logits.rows(), logits.cols());
  predict(ds.mode, logits, pred);
  Matrix sub_pred(subset.size(), logits.cols());
  Matrix sub_truth(subset.size(), logits.cols());
  tensor::gather_rows(pred, subset, sub_pred);
  tensor::gather_rows(ds.labels, subset, sub_truth);
  return f1_micro(sub_pred, sub_truth);
}

class TargetedEvaluate : public ::testing::TestWithParam<data::LabelMode> {};

TEST_P(TargetedEvaluate, F1EqualsFullGraphF1) {
  data::SyntheticParams p;
  p.num_vertices = 600;
  p.num_classes = 5;
  p.feature_dim = 20;
  p.avg_degree = 8.0;
  p.mode = GetParam();
  p.seed = 4;
  const data::Dataset ds = data::make_synthetic(p);
  TrainerConfig cfg;
  cfg.hidden_dim = 12;
  cfg.num_layers = 2;
  cfg.epochs = 2;
  cfg.frontier_size = 40;
  cfg.budget = 160;
  cfg.threads = 2;
  cfg.eval_every_epoch = false;
  cfg.final_eval = false;
  Trainer trainer(ds, cfg);
  trainer.train();

  const std::vector<graph::Vid> custom = {300, 7, 7, 599, 12, 300, 0};
  for (const auto* subset : {&ds.val_vertices, &ds.test_vertices, &custom}) {
    const double want = full_graph_f1(trainer.model(), ds, *subset, 1);
    EXPECT_EQ(trainer.evaluate(*subset), want);
    EXPECT_EQ(trainer.evaluate(*subset), want);  // warm scratch, same answer
  }
}

INSTANTIATE_TEST_SUITE_P(
    LabelModes, TargetedEvaluate,
    ::testing::Values(data::LabelMode::kSingle, data::LabelMode::kMulti),
    [](const ::testing::TestParamInfo<data::LabelMode>& info) {
      return info.param == data::LabelMode::kSingle ? "single" : "multi";
    });

}  // namespace
}  // namespace gsgcn::gcn
