// Self-tests of the benchmark's own helpers: the tail-percentile rule and
// self-time folding over a span tree with overlapping children. Exits
// nonzero on the first failed expectation.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common.hpp"

namespace {

int g_failed = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++g_failed;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void percentile_rule() {
  // Ten samples beyond p99 need n >= 1000; beyond p90, n >= 100.
  expect(e2e::samples_beyond(1000, 0.99) == 10, "1000 samples leave 10 beyond p99");
  expect(e2e::samples_beyond(999, 0.99) == 9, "999 samples leave 9 beyond p99");
  expect(e2e::tail_quantile(1000) == 0.99, "n=1000 supports p99");
  expect(e2e::tail_quantile(999) == 0.9, "n=999 falls back to p90");
  expect(e2e::tail_quantile(10000) == 0.999, "n=10000 supports p99.9");
  expect(e2e::tail_quantile(100) == 0.9, "n=100 supports p90");
  expect(e2e::tail_quantile(99) == 0.5, "n=99 falls back to the median");
  expect(e2e::tail_quantile(19) == 0.0, "n=19 supports no tail");

  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  expect(near(e2e::quantile(v, 0.99), 990.0), "nearest-rank p99 of 1..1000 is 990");
  expect(near(e2e::median(v), 500.0), "nearest-rank median of 1..1000 is 500");
  expect(near(e2e::quantile(v, 0.0), 1.0), "q=0 is the minimum");
  expect(near(e2e::quantile(v, 1.0), 1000.0), "q=1 is the maximum");
  expect(e2e::quantile({}, 0.5) == 0.0, "empty sample gives 0");

  // A failed request is infinitely late: more than 1% failures put p99
  // at infinity, which makes a phase invalid and a ladder step fail.
  std::vector<double> lat(1000, 2.0);
  for (int i = 0; i < 10; ++i) lat[static_cast<std::size_t>(i)] = INFINITY;
  expect(near(e2e::quantile(lat, 0.99), 2.0), "1% failures leave p99 finite");
  lat[10] = INFINITY;
  expect(std::isinf(e2e::quantile(lat, 0.99)), "over 1% failures make p99 infinite");
}

e2e::Span span(const char* name, std::int64_t a, std::int64_t b, int parent) {
  e2e::Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

void self_time() {
  // root [0,100); children [10,40) and [30,60) overlap, [90,120) sticks
  // out past the root's end; a grandchild [15,25) under the first child.
  std::vector<e2e::Span> spans = {
      span("root", 0, 100, -1),    span("a", 10, 40, 0),
      span("b", 30, 60, 0),        span("c", 90, 120, 0),
      span("a.child", 15, 25, 1),
  };
  const std::vector<double> self = e2e::self_seconds(spans);
  // Union of children inside the root: [10,60) + [90,100) = 60 ns.
  expect(near(self[0], 40e-9), "root self time excludes the union of children");
  expect(near(self[1], 20e-9), "child self time excludes its own child");
  expect(near(self[2], 30e-9), "leaf self time is its duration");
  expect(near(self[3], 30e-9), "a child outside the root keeps its duration");
  expect(near(self[4], 10e-9), "grandchild self time is its duration");

  const std::vector<e2e::LayerRow> rows = e2e::self_time_table(spans);
  double total_self = 0.0;
  for (const e2e::LayerRow& r : rows) total_self += r.self_s;
  expect(near(total_self, 130e-9), "self times sum to the covered wall time");
  expect(rows.front().name == "root", "table is sorted by self time");

  // Re-basing keeps the tree intact when two span lists are merged.
  std::vector<e2e::Span> merged = {span("x", 0, 5, -1)};
  e2e::append_spans(merged, spans);
  const std::vector<double> merged_self = e2e::self_seconds(merged);
  expect(near(merged_self[1], 40e-9), "append_spans re-bases parent indices");
}

void host_probes() {
  const e2e::CpuTimes a{100, 10};
  const e2e::CpuTimes b{200, 30};
  expect(near(e2e::steal_share(a, b), 0.2), "steal share is the steal delta over total");
  expect(e2e::steal_share(b, b) == 0.0, "no elapsed time gives zero steal");
}

}  // namespace

int main() {
  percentile_rule();
  self_time();
  host_probes();
  if (g_failed != 0) return 1;
  std::printf("e2ebench selftest: ok\n");
  return 0;
}
