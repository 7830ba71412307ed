#include "src/sim/executor.h"

#include <algorithm>

namespace espk {

Executor::Executor(int threads)
    : participants_(std::max(1, threads)),
      stats_(static_cast<size_t>(std::max(1, threads))) {
  const int extra = std::max(0, threads - 1);
  workers_.reserve(static_cast<size_t>(extra));
  for (int i = 0; i < extra; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i + 1); });
  }
}

Executor::~Executor() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& w : workers_) {
    w.join();
  }
}

void Executor::RunSlice(int participant, int participants, int n,
                        const std::function<void(int)>& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = participant; i < n; i += participants) {
    fn(i);
  }
  WorkerStats& stats = stats_[static_cast<size_t>(participant)];
  stats.busy_ns += static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  ++stats.slices;
}

void Executor::ParallelFor(int n, const std::function<void(int)>& fn) {
  if (n <= 0) {
    return;
  }
  if (workers_.empty() || n == 1) {
    RunSlice(0, 1, n, fn);
    return;
  }
  const int participants = thread_count();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_fn_ = &fn;
    job_n_ = n;
    outstanding_ = static_cast<int>(workers_.size());
    ++job_generation_;
  }
  work_cv_.notify_all();
  RunSlice(0, participants, n, fn);  // The caller is participant 0.
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return outstanding_ == 0; });
  job_fn_ = nullptr;
}

void Executor::WorkerLoop(int worker_index) {
  const int participants = participants_;
  uint64_t seen_generation = 0;
  for (;;) {
    const std::function<void(int)>* fn = nullptr;
    int n = 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] {
        return stopping_ || job_generation_ != seen_generation;
      });
      if (stopping_) {
        return;
      }
      seen_generation = job_generation_;
      fn = job_fn_;
      n = job_n_;
    }
    RunSlice(worker_index, participants, n, *fn);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--outstanding_ == 0) {
        done_cv_.notify_one();
      }
    }
  }
}

}  // namespace espk
