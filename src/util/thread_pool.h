// Fixed-size worker pools.
//
// The compute layers share one process-wide pool, ComputePool(): the bitset
// RG engine's AND products and absorption levels, Monte-Carlo ranking
// shards, failure-sampling shards and the parallel per-deployment fan-outs
// of SIA and PIA audits all run on it. It starts on first use — callers
// reach for it only once their work crosses a threshold — and is never
// destroyed, so an audit never pays for creating or joining threads. The
// audit server keeps its own request pool (svc/server.h).

#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace indaas {

// A simple FIFO thread pool. Tasks are std::function<void()>; Wait() blocks
// until all submitted tasks have run. Destruction waits for queued tasks.
class ThreadPool {
 public:
  // Spawns `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task for execution.
  void Submit(std::function<void()> task);

  // Blocks until the queue is empty and all workers are idle — every task
  // of every submitter. ParallelFor callers never need it.
  void Wait();

  size_t num_threads() const { return workers_.size(); }

  // True when the calling thread is one of this pool's workers.
  bool OnWorkerThread() const;

  // Runs fn(i) for i in [0, n) across the pool and waits for completion.
  // fn must be safe to invoke concurrently.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Chunked variant for tight loops: runs fn(begin, end) over contiguous
  // chunks of [0, n), each at most `grain` indices long (grain 0 picks one
  // chunk per worker), so the per-element cost is a plain loop iteration
  // instead of a std::function dispatch. Chunk boundaries depend only on
  // n and grain, never on the worker count, so callers that merge per-chunk
  // results in chunk order get thread-count-independent output.
  //
  // The caller claims chunks alongside the helpers it submits and returns
  // once all of *its* chunks have finished; it never waits on other
  // callers' tasks, so concurrent callers may share one pool. A call made
  // from one of this pool's own workers runs every chunk inline, in order,
  // so fan-out never nests and never deadlocks.
  void ParallelForChunked(size_t n, size_t grain,
                          const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  size_t active_ = 0;
  bool shutting_down_ = false;
  std::vector<std::thread> workers_;
};

// The process-wide compute pool: hardware-concurrency workers, created by
// the first call and deliberately never destroyed.
ThreadPool& ComputePool();

}  // namespace indaas

#endif  // SRC_UTIL_THREAD_POOL_H_
