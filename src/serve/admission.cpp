#include "serve/admission.hpp"

#include <stdexcept>
#include <utility>

namespace gsgcn::serve {

AdmissionQueue::AdmissionQueue(std::size_t capacity) : capacity_(capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("AdmissionQueue: capacity must be > 0");
  }
}

Admit AdmissionQueue::push(Ticket ticket) {
  util::MutexLock lock(mu_);
  if (closed_) return Admit::kClosed;
  if (q_.size() >= capacity_) {
    ++rejected_full_;
    return Admit::kQueueFull;
  }
  q_.push_back(std::move(ticket));
  ++admitted_;
  cv_.notify_one();
  return Admit::kAdmitted;
}

bool AdmissionQueue::pop_batch(std::size_t max_batch,
                               std::chrono::nanoseconds window,
                               std::vector<Ticket>& batch,
                               std::vector<Ticket>& expired) {
  batch.clear();
  expired.clear();
  if (max_batch == 0) max_batch = 1;

  util::MutexLock lock(mu_);
  // Wait for the first ticket (or close+drain).
  cv_.wait(mu_, [&] {
    mu_.AssertHeld();  // wait predicates run with the lock held
    return !q_.empty() || closed_;
  });
  if (q_.empty()) return false;  // closed and drained

  // Work-conserving by default: with no window the batch is whatever
  // backlog is queued right now, so an idle worker dispatches a lone
  // ticket at once. An opt-in window opens at the FIRST ticket's arrival,
  // not at pop time: a popper that was busy with the previous batch must
  // not add a fresh window of latency on top of the queueing delay
  // already paid.
  if (window > std::chrono::nanoseconds::zero()) {
    const SteadyTime window_end = q_.front().enqueued + window;
    cv_.wait_until(mu_, window_end, [&] {
      mu_.AssertHeld();  // wait predicates run with the lock held
      return q_.size() >= max_batch || closed_;
    });
  }

  const SteadyTime now = std::chrono::steady_clock::now();
  while (!q_.empty() && batch.size() < max_batch) {
    Ticket t = std::move(q_.front());
    q_.pop_front();
    if (t.has_deadline && t.deadline <= now) {
      expired.push_back(std::move(t));  // shed: cannot answer in time
    } else {
      batch.push_back(std::move(t));
    }
  }
  // Shedding may have freed batch slots while later live tickets remain;
  // that's fine — they seed the next batch (and any window) themselves.
  if (!q_.empty()) cv_.notify_one();
  return true;
}

void AdmissionQueue::close() {
  util::MutexLock lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

std::size_t AdmissionQueue::depth() const {
  util::MutexLock lock(mu_);
  return q_.size();
}

bool AdmissionQueue::closed() const {
  util::MutexLock lock(mu_);
  return closed_;
}

std::uint64_t AdmissionQueue::admitted_total() const {
  util::MutexLock lock(mu_);
  return admitted_;
}

std::uint64_t AdmissionQueue::rejected_full_total() const {
  util::MutexLock lock(mu_);
  return rejected_full_;
}

}  // namespace gsgcn::serve
