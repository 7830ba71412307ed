// Thread-per-core executor driving the sharded runtime's epochs. A fixed
// pool of workers is spawned once (unpinned: the OS scheduler places them)
// and reused for every ParallelFor — shards migrate between ParallelFor
// calls only at barriers, never mid-epoch, so each shard's state is touched
// by exactly one thread per phase.
//
// ParallelFor(n, fn) runs fn(0..n-1) distributed across the pool and does
// not return until every index completed — it IS the conservative-lookahead
// barrier of src/sim/shard.h: the mutex/condvar handshake gives
// happens-before between everything shard i wrote during one phase and
// everything any shard reads in the next, which is what lets the
// cross-shard inboxes (and the epoch bookkeeping) stay plain non-atomic
// data.
//
// With `threads <= 1` no threads are spawned and ParallelFor degenerates to
// a serial loop on the caller. That is the mode a single-core host (or a
// determinism test that wants threads out of the picture) runs in; the
// sharded runtime's speedup on such a host comes from the batched per-zone
// packet path, not from parallelism, and the executor must not tax it with
// futex traffic.
#ifndef SRC_SIM_EXECUTOR_H_
#define SRC_SIM_EXECUTOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace espk {

class Executor {
 public:
  // `threads` is the total worker count including the calling thread, which
  // participates in every ParallelFor. threads <= 1 means inline serial
  // execution (no pool).
  explicit Executor(int threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  // Including the caller; >= 1.
  int thread_count() const { return participants_; }

  // Runs fn(i) for every i in [0, n), blocking until all completed. fn must
  // be callable concurrently for distinct i. Not reentrant.
  void ParallelFor(int n, const std::function<void(int)>& fn);

  // Cumulative wall time each participant spent running slices (participant
  // 0 is the calling thread). Each entry is written only by its own thread
  // inside ParallelFor; read after a ParallelFor returned — the barrier
  // handshake publishes it.
  struct WorkerStats {
    uint64_t busy_ns = 0;
    uint64_t slices = 0;
  };
  const std::vector<WorkerStats>& worker_stats() const { return stats_; }

 private:
  void WorkerLoop(int worker_index);
  void RunSlice(int participant, int participants, int n,
                const std::function<void(int)>& fn);

  // Fixed before any worker is spawned. Workers must never derive this from
  // workers_.size(): a worker that starts while the constructor is still
  // emplacing later threads would read a smaller pool, compute a wider
  // stride for its ParallelFor slice, and collide with another worker's
  // shards — two threads then run one shard's event loop concurrently.
  const int participants_;
  std::vector<WorkerStats> stats_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  uint64_t job_generation_ = 0;  // Bumped to publish a job.
  int job_n_ = 0;
  const std::function<void(int)>* job_fn_ = nullptr;
  int outstanding_ = 0;  // Workers still running the current job.
  bool stopping_ = false;
};

}  // namespace espk

#endif  // SRC_SIM_EXECUTOR_H_
