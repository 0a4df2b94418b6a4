#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <sstream>
#include <thread>

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

namespace e2e {

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  std::size_t rank = n - samples_beyond(n, q);
  if (rank == 0) rank = 1;
  return v[rank - 1];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

std::size_t samples_beyond(std::size_t n, double q) {
  // Nearest rank is ceil(q·n); the epsilon keeps 0.99·1000 at rank 990
  // despite the binary representation of 0.99.
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  const std::size_t rank =
      r <= 0.0 ? 0 : std::min(n, static_cast<std::size_t>(r));
  return n - rank;
}

double tail_quantile(std::size_t n) {
  for (double q : {0.999, 0.99, 0.9, 0.5}) {
    if (samples_beyond(n, q) >= 10) return q;
  }
  return 0.0;
}

// ---------------------------------------------------------------------------

namespace {
// Open spans of the calling thread, innermost last. One recorder is live
// per traced phase, so a single stack per thread suffices.
thread_local std::vector<int> t_open;
}  // namespace

std::uint32_t Recorder::thread_index() {
  const std::uint64_t key =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_keys_.size(); ++i) {
    if (thread_keys_[i] == key) return static_cast<std::uint32_t>(i);
  }
  thread_keys_.push_back(key);
  return static_cast<std::uint32_t>(thread_keys_.size() - 1);
}

int Recorder::begin(const char* name, std::int64_t id, int epoch) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.id = id;
  s.epoch = epoch;
  s.parent = t_open.empty() ? -1 : t_open.back();
  int index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.tid = thread_index();
    index = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
    spans_.back().start_ns = now_ns();
  }
  t_open.push_back(index);
  return index;
}

void Recorder::end(int index) {
  const std::int64_t t = now_ns();
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(index)].end_ns = t;
}

void Recorder::record(const char* name, std::int64_t start_ns,
                      std::int64_t end_ns, std::int64_t id) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.id = id;
  std::lock_guard<std::mutex> lock(mu_);
  s.tid = thread_index();
  spans_.push_back(std::move(s));
}

std::vector<Span> Recorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void append_spans(std::vector<Span>& dst, const std::vector<Span>& src) {
  const auto base = static_cast<std::int32_t>(dst.size());
  std::uint32_t tid_base = 0;
  for (const Span& s : dst) tid_base = std::max(tid_base, s.tid + 1);
  for (Span s : src) {
    if (s.parent >= 0) s.parent += base;
    s.tid += tid_base;
    dst.push_back(std::move(s));
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    iv.clear();
    for (std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (b > a) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t run_a = 0;
    std::int64_t run_b = 0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (!open || a > run_b) {
        if (open) covered += run_b - run_a;
        run_a = a;
        run_b = b;
        open = true;
      } else {
        run_b = std::max(run_b, b);
      }
    }
    if (open) covered += run_b - run_a;
    self[i] = static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

std::vector<LayerRow> self_time_table(const std::vector<Span>& spans) {
  const std::vector<double> self = self_seconds(spans);
  std::map<std::string, LayerRow> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerRow& row = by_name[spans[i].name];
    row.name = spans[i].name;
    ++row.count;
    row.total_s += static_cast<double>(spans[i].end_ns - spans[i].start_ns) *
                   1e-9;
    row.self_s += self[i];
  }
  std::vector<LayerRow> rows;
  for (auto& [name, row] : by_name) rows.push_back(row);
  std::sort(rows.begin(), rows.end(), [](const LayerRow& a, const LayerRow& b) {
    return a.self_s > b.self_s;
  });
  return rows;
}

std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t t0 = 0;
  bool first = true;
  for (const Span& s : spans) {
    if (first || s.start_ns < t0) t0 = s.start_ns;
    first = false;
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"name\":\"",
                  i == 0 ? "" : ",\n", s.tid,
                  static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    out << buf << s.name << "\",\"cat\":\""
        << s.name.substr(0, s.name.find('.')) << "\",\"args\":{\"id\":" << s.id
        << ",\"epoch\":" << s.epoch << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

bool write_layer_table(const std::string& path,
                       const std::vector<LayerRow>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  double total_self = 0.0;
  for (const LayerRow& r : rows) total_self += r.self_s;
  out << "span\tcount\ttotal_ms\tself_ms\tself_share\n";
  char buf[256];
  for (const LayerRow& r : rows) {
    std::snprintf(buf, sizeof buf, "%s\t%zu\t%.3f\t%.3f\t%.4f\n",
                  r.name.c_str(), r.count, r.total_s * 1e3, r.self_s * 1e3,
                  total_self > 0.0 ? r.self_s / total_self : 0.0);
    out << buf;
  }
  return static_cast<bool>(out);
}

// ---------------------------------------------------------------------------

IdleSpinners::IdleSpinners() {
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  for (unsigned i = 0; i < n; ++i) {
    threads_.emplace_back([this] {
      sched_param param{};
      const bool idle = pthread_setschedparam(pthread_self(), SCHED_IDLE, &param) == 0;
      if (idle) active_.fetch_add(1);
      decided_.fetch_add(1);
      if (!idle) return;
      while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#endif
      }
    });
  }
  while (decided_.load() < static_cast<int>(n)) std::this_thread::yield();
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true);
  for (std::thread& t : threads_) t.join();
}

int IdleSpinners::active() const { return active_.load(); }

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes t;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]:
  // guest time is already counted in user/nice, so only eight are summed.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && (fields >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTimes& a, const CpuTimes& b) {
  if (b.total <= a.total) return 0.0;
  return static_cast<double>(b.steal - a.steal) /
         static_cast<double>(b.total - a.total);
}

double loadavg1() {
  std::ifstream in("/proc/loadavg");
  double v = -1.0;
  if (!(in >> v)) return -1.0;
  return v;
}

double peak_rss_mb() {
  rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e
