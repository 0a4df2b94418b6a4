#pragma once
// Helpers shared by the benchmark program and its self-tests: sample
// statistics with the tail-percentile rule, an in-memory span recorder
// with self-time folding and Chrome trace output, and host-noise probes.
// Nothing here links against gsgcn, so the self-tests build in seconds.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace e2e {

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Nearest-rank quantile (q in [0, 1]) of an unsorted sample; 0 if empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
double max_of(const std::vector<double>& v);

/// Samples strictly above the nearest-rank q-quantile of n samples.
std::size_t samples_beyond(std::size_t n, double q);

/// The highest of {0.999, 0.99, 0.9, 0.5} that leaves at least ten
/// samples beyond it; 0 when even the median does not (n < 20).
double tail_quantile(std::size_t n);

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = -1;     // iteration or request id
  std::int32_t epoch = -1;  // training epoch, -1 for serving
  std::int32_t parent = -1; // index into the span list, -1 for roots
  std::uint32_t tid = 0;    // small per-recorder thread index
};

/// Thread-safe in-memory span list. A disabled recorder records nothing
/// and its scopes cost one branch, so traced and untraced runs share code.
class Recorder {
 public:
  explicit Recorder(bool enabled) : enabled_(enabled) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the span index (-1 when disabled).
  int begin(const char* name, std::int64_t id = -1, int epoch = -1);
  void end(int index);

  /// Record a finished span whose ends were taken elsewhere (e.g. a
  /// queue wait that starts on one thread and ends on another).
  void record(const char* name, std::int64_t start_ns, std::int64_t end_ns,
              std::int64_t id);

  std::vector<Span> spans() const;

 private:
  std::uint32_t thread_index();

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::uint64_t> thread_keys_;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder& rec, const char* name, std::int64_t id = -1,
             int epoch = -1)
      : rec_(rec), index_(rec.enabled() ? rec.begin(name, id, epoch) : -1) {}
  ~ScopedSpan() {
    if (index_ >= 0) rec_.end(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& rec_;
  int index_;
};

/// Append another recorder's spans, re-basing parent indices and thread
/// ids so both sets stay distinct in one list.
void append_spans(std::vector<Span>& dst, const std::vector<Span>& src);

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children may overlap).
std::vector<double> self_seconds(const std::vector<Span>& spans);

struct LayerRow {
  std::string name;
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

/// Spans folded by name, sorted by self time descending.
std::vector<LayerRow> self_time_table(const std::vector<Span>& spans);

/// Durations (seconds) of every span with this name.
std::vector<double> durations(const std::vector<Span>& spans,
                              const std::string& name);

/// Chrome trace-event JSON ("X" events, microseconds) that Perfetto loads.
bool write_chrome_trace(const std::string& path,
                        const std::vector<Span>& spans);
bool write_layer_table(const std::string& path,
                       const std::vector<LayerRow>& rows);

// ---------------------------------------------------------------------------
// Host noise
// ---------------------------------------------------------------------------

/// Keeps every CPU out of its idle state while alive: one thread per CPU
/// spins under SCHED_IDLE, so any ordinary thread that wakes preempts it
/// at once. On a VM a halted vCPU takes milliseconds to wake, which would
/// put the hypervisor, not the program, into every latency tail. Threads
/// that cannot get SCHED_IDLE exit instead of spinning at normal priority.
class IdleSpinners {
 public:
  IdleSpinners();
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Spinner threads that obtained SCHED_IDLE (0 where the policy is
  /// unavailable).
  int active() const;

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::atomic<int> decided_{0};  // threads that tried to switch policy
  std::vector<std::thread> threads_;
};

struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};

/// Aggregate "cpu" line of /proc/stat; zeros when unreadable.
CpuTimes read_cpu_times();
/// Steal share of CPU time between two samples (0 if no time passed).
double steal_share(const CpuTimes& a, const CpuTimes& b);
/// First field of /proc/loadavg; -1 when unreadable.
double loadavg1();
/// Peak resident set size of this process in MiB.
double peak_rss_mb();

}  // namespace e2e
