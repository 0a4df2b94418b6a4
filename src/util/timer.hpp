#pragma once
// Wall-clock timing for benchmarks and the trainer's phase breakdown.

#include <chrono>

#include "util/check.hpp"

namespace gsgcn::util {

/// Monotonic wall timer. start() on construction; seconds()/ms() read the
/// elapsed time without stopping; restart() resets the origin.
class Timer {
 public:
  Timer() : start_(Clock::now()) {}

  void restart() { start_ = Clock::now(); }

  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  double ms() const { return seconds() * 1e3; }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

/// Accumulates time across many start/stop intervals — used for the
/// per-phase (sampling / feature propagation / weight application)
/// execution-time breakdown of Figure 3D.
class PhaseTimer {
 public:
  void start() {
    t_.restart();
#if GSGCN_CHECKS_ENABLED
    running_ = true;
#endif
  }
  void stop() {
    GSGCN_ASSERT(running_, "PhaseTimer::stop() without a matching start()");
#if GSGCN_CHECKS_ENABLED
    running_ = false;
#endif
    total_ += t_.seconds();
  }
  double total_seconds() const { return total_; }
  void reset() { total_ = 0.0; }

 private:
  Timer t_;
  double total_ = 0.0;
#if GSGCN_CHECKS_ENABLED
  bool running_ = false;
#endif
};

/// RAII guard adding an interval to a PhaseTimer; a null timer makes it a
/// no-op, so optional clocks need no heap-allocated guard.
class ScopedPhase {
 public:
  explicit ScopedPhase(PhaseTimer* t) : t_(t) {
    if (t_ != nullptr) t_->start();
  }
  ~ScopedPhase() {
    if (t_ != nullptr) t_->stop();
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  PhaseTimer* t_;
};

}  // namespace gsgcn::util
