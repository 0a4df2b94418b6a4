#pragma once
// Workload definitions and the two phases every workload runs: train the
// model (gcn::Trainer) and then serve it (serve::Server). See DESIGN.md
// for why each workload exists and which layers it loads or bypasses.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "data/dataset.hpp"
#include "data/synthetic.hpp"
#include "gcn/model.hpp"
#include "gcn/trainer.hpp"

namespace e2e {

/// One metric line of the result object.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Operations and output checks attempted and failed. A failed check
/// (wrong output) also makes the run incorrect and its exit code nonzero;
/// a failed operation (a shed or lost request, a training rollback) is
/// counted but is not wrong output.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // failed checks

  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      failures.push_back(what);
    }
  }
  void operations(std::int64_t tried, std::int64_t lost) {
    attempted += tried;
    failed += lost;
  }
  bool correct() const { return failures.empty(); }
};

struct TrainSpec {
  gsgcn::data::SyntheticParams data;
  gsgcn::gcn::TrainerConfig cfg;
  /// Out-of-core: features are written to an int8 FeatureStore file and
  /// training gathers from its mmap through a hot-vertex cache.
  bool out_of_core = false;
  std::size_t cache_mb = 0;
  /// Validation F1-micro that time_to_f1_s waits for; test_f1 must reach
  /// it too.
  double f1_target = 0.0;
};

/// Offered loads, in requests per second.
struct ServeSpec {
  double low_qps = 0.0;
  double high_qps = 0.0;
  std::vector<double> ladder_qps;  // ascending
};

struct Workload {
  std::string name;
  TrainSpec train;
  ServeSpec serve;
};

const std::vector<Workload>& workloads();

/// Everything the serving phase needs from the training phase.
struct Trained {
  gsgcn::data::Dataset ds;
  std::string feature_file;  // out-of-core workloads only
  std::unique_ptr<gsgcn::gcn::GcnModel> model;
  double setup_s = 0.0;  // median training set-up over the repetitions
};

struct RunContext {
  const Workload& wl;
  std::uint64_t seed;
  double seconds;     // measuring budget of the whole run
  std::string out_dir;
  Tally& tally;
  std::vector<Metric>& metrics;
};

/// Untraced: repeated Trainer::train() runs; adds epoch_s, time_to_f1_s,
/// test_f1 and final_loss. Traced: one Trainer::train() run as the
/// fidelity reference plus the benchmark's own Algorithm-5 loop with a
/// span around every layer call; adds the training per-layer metrics.
Trained run_training(RunContext& ctx, bool traced,
                     std::vector<Span>* trace_out);

/// Untraced: open-loop load over loopback sockets at the low and high
/// rates and up the ladder; adds p50/p90 and max_qps_at_slo and returns
/// the median serving set-up time. Traced: the same schedules replayed
/// in-process with spans per stage; adds the serving per-layer metrics.
double run_serving(RunContext& ctx, const Trained& trained, bool traced,
                   std::vector<Span>* trace_out);

}  // namespace e2e
