#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>

#include "src/obs/metrics.h"
#include "src/obs/profiler.h"

namespace indaas {
namespace {

// Pool instruments, resolved once per process (DESIGN.md §6). Queue depth
// and worker count are gauges with high-water marks; threads_started_total
// counts every worker ever spawned, so a steady state that creates no pools
// holds it still; task latency lands in a log-scaled histogram; busy_micros
// accumulates execution time so utilization = busy_micros / (workers x
// wall_micros).
struct PoolMetrics {
  obs::Gauge* queue_depth;
  obs::Gauge* workers;
  obs::Counter* threads_started;
  obs::Counter* tasks_total;
  obs::Counter* busy_micros;
  obs::Histogram* task_micros;
};

PoolMetrics& Metrics() {
  static PoolMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return PoolMetrics{
        registry.GetGauge("threadpool.queue_depth"),
        registry.GetGauge("threadpool.workers"),
        registry.GetCounter("threadpool.threads_started_total"),
        registry.GetCounter("threadpool.tasks_total"),
        registry.GetCounter("threadpool.busy_micros"),
        registry.GetHistogram("threadpool.task_micros",
                              {10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7}),
    };
  }();
  return metrics;
}

uint64_t NowMicros() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::microseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// The pool whose WorkerLoop runs on this thread, if any.
thread_local const ThreadPool* tls_worker_of = nullptr;

// Shared state of one ParallelForChunked call. Helpers hold it by
// shared_ptr, so one that starts after the caller returned can still look
// at `next`, find no chunk left and return without touching `fn`.
struct ChunkedCall {
  ChunkedCall(size_t n, size_t grain, const std::function<void(size_t, size_t)>* fn)
      : n(n), grain(grain), chunks((n + grain - 1) / grain), fn(fn) {}

  // Claims and runs chunks until none is left.
  void RunChunks() {
    for (;;) {
      const size_t chunk = next.fetch_add(1, std::memory_order_relaxed);
      if (chunk >= chunks) {
        return;
      }
      const size_t begin = chunk * grain;
      (*fn)(begin, std::min(begin + grain, n));
      if (finished.fetch_add(1, std::memory_order_acq_rel) + 1 == chunks) {
        std::lock_guard<std::mutex> lock(mu);
        all_finished.notify_all();
      }
    }
  }

  void AwaitAllFinished() {
    std::unique_lock<std::mutex> lock(mu);
    all_finished.wait(lock,
                      [this] { return finished.load(std::memory_order_acquire) == chunks; });
  }

  const size_t n;
  const size_t grain;
  const size_t chunks;
  // Valid while finished < chunks: the caller waits for that.
  const std::function<void(size_t, size_t)>* const fn;
  std::atomic<size_t> next{0};
  std::atomic<size_t> finished{0};
  std::mutex mu;
  std::condition_variable all_finished;
};

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  Metrics().workers->Add(static_cast<int64_t>(num_threads));
  Metrics().threads_started->Add(num_threads);
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) {
    worker.join();
  }
  Metrics().workers->Add(-static_cast<int64_t>(workers_.size()));
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
  }
  Metrics().queue_depth->Add(1);
  work_available_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  if (n == 0) {
    return;
  }
  // Chunk the index space so each worker grabs contiguous ranges.
  size_t chunks = std::min(n, workers_.size() * 4);
  size_t chunk_size = (n + chunks - 1) / chunks;
  ParallelForChunked(n, chunk_size, [&fn](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
  });
}

void ThreadPool::ParallelForChunked(size_t n, size_t grain,
                                    const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) {
    return;
  }
  if (grain == 0) {
    grain = (n + workers_.size() - 1) / workers_.size();
  }
  const size_t chunks = (n + grain - 1) / grain;
  if (chunks == 1 || OnWorkerThread()) {
    for (size_t begin = 0; begin < n; begin += grain) {
      fn(begin, std::min(begin + grain, n));
    }
    return;
  }
  // Caller-runs: the caller works through the chunks too, so it never
  // waits for a helper that is still queued behind someone else's task.
  auto call = std::make_shared<ChunkedCall>(n, grain, &fn);
  const size_t helpers = std::min(chunks - 1, workers_.size());
  for (size_t t = 0; t < helpers; ++t) {
    Submit([call] { call->RunChunks(); });
  }
  call->RunChunks();
  call->AwaitAllFinished();
}

bool ThreadPool::OnWorkerThread() const { return tls_worker_of == this; }

void ThreadPool::WorkerLoop() {
  // Pool workers run every CPU-bound RPC, so they are exactly the threads a
  // profile of a busy server must see (unregistered threads are invisible).
  obs::Profiler::Global().RegisterCurrentThread();
  tls_worker_of = this;
  PoolMetrics& metrics = Metrics();
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutting down with an empty queue.
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    metrics.queue_depth->Add(-1);
    uint64_t start = NowMicros();
    task();
    uint64_t elapsed = NowMicros() - start;
    metrics.tasks_total->Increment();
    metrics.busy_micros->Add(elapsed);
    metrics.task_micros->Record(static_cast<double>(elapsed));
    {
      std::unique_lock<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

ThreadPool& ComputePool() {
  // Leaked on purpose: joining workers during static destruction would race
  // any late task against the globals it touches.
  static ThreadPool* pool =
      new ThreadPool(std::max<unsigned>(1, std::thread::hardware_concurrency()));
  return *pool;
}

}  // namespace indaas
