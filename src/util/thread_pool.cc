#include "src/util/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <utility>

#include "src/obs/metrics.h"

namespace cloudgen {
namespace {

// Set while a thread is executing a pool task; nested parallel sections on
// such a thread run inline instead of re-entering the queue.
thread_local bool t_inside_pool_task = false;

// Pool telemetry (docs/OBSERVABILITY.md). Cached references: registration
// locks once per process, updates are relaxed atomics on the hot path.
obs::Counter& TasksRunCounter() {
  static obs::Counter& counter = obs::Registry::Global().GetCounter("pool.tasks_run");
  return counter;
}
obs::Counter& InlineTasksCounter() {
  static obs::Counter& counter =
      obs::Registry::Global().GetCounter("pool.tasks_inline");
  return counter;
}
obs::Counter& ParallelForCounter() {
  static obs::Counter& counter = obs::Registry::Global().GetCounter("pool.parallel_fors");
  return counter;
}
obs::Gauge& QueueDepthGauge() {
  static obs::Gauge& gauge = obs::Registry::Global().GetGauge("pool.queue_depth");
  return gauge;
}
obs::Gauge& BusyWorkersGauge() {
  static obs::Gauge& gauge = obs::Registry::Global().GetGauge("pool.busy_workers");
  return gauge;
}
obs::Gauge& WorkersGauge() {
  static obs::Gauge& gauge = obs::Registry::Global().GetGauge("pool.workers");
  return gauge;
}
obs::Gauge& UtilizationGauge() {
  static obs::Gauge& gauge = obs::Registry::Global().GetGauge("pool.utilization");
  return gauge;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads <= 1) {
    return;
  }
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::WorkerLoop() {
  t_inside_pool_task = true;
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // Shutdown with a drained queue.
      }
      task = std::move(queue_.front());
      queue_.pop();
      QueueDepthGauge().Set(static_cast<double>(queue_.size()));
    }
    BusyWorkersGauge().Add(1.0);
    TasksRunCounter().Add(1);
    task();
    BusyWorkersGauge().Add(-1.0);
  }
}

void ThreadPool::RunAll(const std::vector<std::function<void()>>& tasks) {
  if (tasks.empty()) {
    return;
  }
  if (workers_.empty() || tasks.size() == 1 || t_inside_pool_task) {
    InlineTasksCounter().Add(tasks.size());
    for (const auto& task : tasks) {
      task();
    }
    return;
  }

  // Completion latch + first-exception capture shared by all submitted tasks.
  struct Batch {
    std::mutex mu;
    std::condition_variable done;
    size_t remaining;
    std::exception_ptr error;
  };
  auto batch = std::make_shared<Batch>();
  batch->remaining = tasks.size();

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& task : tasks) {
      queue_.push([task, batch] {
        try {
          task();
        } catch (...) {
          std::lock_guard<std::mutex> batch_lock(batch->mu);
          if (!batch->error) {
            batch->error = std::current_exception();
          }
        }
        std::lock_guard<std::mutex> batch_lock(batch->mu);
        if (--batch->remaining == 0) {
          batch->done.notify_all();
        }
      });
    }
    QueueDepthGauge().Set(static_cast<double>(queue_.size()));
  }
  work_available_.notify_all();

  // Help drain the queue instead of blocking: the caller may hold the only
  // non-worker thread, and stealing keeps small pools busy. Stolen tasks run
  // as pool tasks (their nested sections inline) and the caller's own
  // context is restored afterwards, so a top-level caller's next section
  // still fans out.
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (!queue_.empty()) {
        task = std::move(queue_.front());
        queue_.pop();
        QueueDepthGauge().Set(static_cast<double>(queue_.size()));
      }
    }
    if (!task) {
      break;
    }
    const bool was_inside = t_inside_pool_task;
    t_inside_pool_task = true;
    TasksRunCounter().Add(1);
    task();
    t_inside_pool_task = was_inside;
  }
  {
    std::unique_lock<std::mutex> lock(batch->mu);
    batch->done.wait(lock, [&] { return batch->remaining == 0; });
    if (batch->error) {
      std::rethrow_exception(batch->error);
    }
  }
}

void ThreadPool::ParallelFor(size_t begin, size_t end,
                             const std::function<void(size_t)>& fn) {
  if (begin >= end) {
    return;
  }
  ParallelForCounter().Add(1);
  const size_t range = end - begin;
  if (workers_.empty() || range == 1 || t_inside_pool_task) {
    for (size_t i = begin; i < end; ++i) {
      fn(i);
    }
    return;
  }
  // Over-decompose mildly for load balance; chunk boundaries are irrelevant
  // to results (see determinism contract in the header).
  const size_t max_chunks = std::min(range, workers_.size() * 4);
  const size_t chunk = (range + max_chunks - 1) / max_chunks;
  std::vector<std::function<void()>> tasks;
  tasks.reserve((range + chunk - 1) / chunk);
  for (size_t lo = begin; lo < end; lo += chunk) {
    const size_t hi = std::min(end, lo + chunk);
    tasks.push_back([lo, hi, &fn] {
      for (size_t i = lo; i < hi; ++i) {
        fn(i);
      }
    });
  }
  RunAll(tasks);
}

namespace {

std::mutex g_pool_mu;
std::unique_ptr<ThreadPool> g_pool;
size_t g_parallelism = 1;

}  // namespace

ThreadPool& GlobalThreadPool() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  if (!g_pool) {
    g_pool = std::make_unique<ThreadPool>(1);
  }
  return *g_pool;
}

void ThreadPool::PublishGauges() {
  size_t depth = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    depth = queue_.size();
  }
  QueueDepthGauge().Set(static_cast<double>(depth));
  const double workers = static_cast<double>(workers_.size());
  WorkersGauge().Set(std::max(workers, 1.0));  // Inline-only pools count the caller.
  // Busy tracking is the +1/-1 gauge the worker loop maintains; clamp into
  // [0, workers] so a reader between the two writes never sees nonsense.
  const double busy =
      std::min(std::max(BusyWorkersGauge().Value(), 0.0), std::max(workers, 1.0));
  UtilizationGauge().Set(workers > 0.0 ? busy / workers : 0.0);
}

void SetGlobalThreads(size_t num_threads) {
  if (num_threads == 0) {
    num_threads = std::max<size_t>(1, std::thread::hardware_concurrency());
  }
  std::lock_guard<std::mutex> lock(g_pool_mu);
  g_pool = std::make_unique<ThreadPool>(num_threads);
  g_parallelism = num_threads;
  WorkersGauge().Set(static_cast<double>(num_threads));
}

size_t GlobalParallelism() {
  std::lock_guard<std::mutex> lock(g_pool_mu);
  return std::max<size_t>(1, g_parallelism);
}

}  // namespace cloudgen
