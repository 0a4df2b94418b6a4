// gsgcn end-to-end benchmark program.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Each workload trains a model with gcn::Trainer and then serves it with
// serve::Server. --trace 0 prints the end-to-end metrics; --trace 1 runs
// the traced replays and prints the per-layer metrics, writing a Chrome
// trace and a self-time table into DIR. The last stdout line is the JSON
// result; the exit code is nonzero when any output check failed.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

// Runs whose CPU steal share exceeds this are marked noisy: their
// figures describe the host more than the program.
constexpr double kNoisyStealShare = 0.05;

int usage() {
  std::fprintf(stderr,
               "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--out DIR]\nworkloads:");
  for (const e2e::Workload& w : e2e::workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

void print_result(e2e::Tally& tally, const std::vector<e2e::Metric>& metrics) {
  for (const e2e::Metric& m : metrics) {
    tally.check(std::isfinite(m.value), m.name + " is finite");
  }
  for (const std::string& f : tally.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }
  std::string line = "{\"correct\": ";
  line += tally.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(tally.attempted);
  line += ", \"failed\": " + std::to_string(tally.failed);
  line += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (std::isfinite(metrics[i].value)) {
      std::snprintf(buf, sizeof buf, "%.17g", metrics[i].value);
    } else {
      std::snprintf(buf, sizeof buf, "null");
    }
    line += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::string out_dir = ".bench_out";
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") name = v;
    else if (k == "--seed") seed = std::atoll(v);
    else if (k == "--seconds") seconds = std::atof(v);
    else if (k == "--trace") trace = std::atoi(v);
    else if (k == "--out") out_dir = v;
    else return usage();
  }
  const e2e::Workload* wl = nullptr;
  for (const e2e::Workload& w : e2e::workloads()) {
    if (w.name == name) wl = &w;
  }
  if (wl == nullptr || seed < 0 || seconds <= 0.0 || (trace != 0 && trace != 1)) {
    return usage();
  }
  const bool traced = trace == 1;

  std::filesystem::create_directories(out_dir);
  e2e::Tally tally;
  std::vector<e2e::Metric> metrics;
  e2e::RunContext ctx{*wl, static_cast<std::uint64_t>(seed), seconds, out_dir,
                      tally, metrics};
  const e2e::CpuTimes cpu0 = e2e::read_cpu_times();
  std::vector<e2e::Span> spans;
  try {
    const e2e::Trained trained = e2e::run_training(ctx, traced, &spans);
    // Serving latencies are wake-up bound; training is throughput bound
    // and runs without the spinners.
    const e2e::IdleSpinners spinners;
    std::printf("host: %d idle spinners while serving\n", spinners.active());
    const double serve_setup = e2e::run_serving(ctx, trained, traced, &spans);
    if (!traced) {
      metrics.insert(metrics.begin(), {"setup_s", trained.setup_s + serve_setup, "s"});
      metrics.push_back({"peak_rss_mb", e2e::peak_rss_mb(), "MB"});
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
  const double steal = e2e::steal_share(cpu0, e2e::read_cpu_times());
  const double load = e2e::loadavg1();
  std::printf("host: steal_share=%.4f loadavg1=%.2f%s\n", steal, load,
              steal > kNoisyStealShare ? " NOISY (not a baseline)" : "");
  if (traced) {
    metrics.push_back({"host.steal_frac", steal, "1"});
    metrics.push_back({"host.loadavg1", load, "1"});
    const std::string stem =
        out_dir + "/" + wl->name + "-seed" + std::to_string(seed);
    if (!e2e::write_chrome_trace(stem + ".trace.json", spans) ||
        !e2e::write_layer_table(stem + ".layers.tsv", e2e::self_time_table(spans))) {
      std::fprintf(stderr, "e2ebench: cannot write trace files under %s\n",
                   out_dir.c_str());
      return 1;
    }
    std::printf("trace: %s.trace.json (Perfetto), %s.layers.tsv (self time)\n",
                stem.c_str(), stem.c_str());
  }
  print_result(tally, metrics);
  return tally.correct() ? 0 : 1;
}
