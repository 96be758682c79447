// Shared worker-thread pool and the ParallelFor primitive used by the
// compute substrate (data-parallel BPTT and sharded trace generation).
//
// Determinism contract: every parallel construct in cloudgen partitions its
// work into units whose per-unit arithmetic is independent of how units are
// assigned to threads (one output per trace, per-shard gradient buffers
// reduced in fixed order, seed-derived RNG streams). ParallelFor therefore
// only changes *when* a unit runs, never *what* it computes — `--threads N`
// must produce bitwise-identical results to `--threads 1` for every N.
//
// One level of parallelism: a parallel section issued from inside a pool
// task runs inline on the calling thread (no re-enqueue), so nested sections
// cannot deadlock or oversubscribe the pool; any other section fans out. A
// top-level caller joins its section by helping drain the shared queue, and
// the tasks it steals run as pool tasks.
#ifndef SRC_UTIL_THREAD_POOL_H_
#define SRC_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

namespace cloudgen {

class ThreadPool {
 public:
  // `num_threads` worker threads; 0 and 1 both mean "no workers, run
  // everything inline on the calling thread".
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Number of worker threads (0 when inline-only).
  size_t NumThreads() const { return workers_.size(); }

  // Runs fn(i) for every i in [begin, end) and returns when all calls have
  // finished. Indices are grouped into contiguous chunks; chunking never
  // affects results because callers only submit index-independent work.
  // The first exception thrown by any fn(i) is rethrown on the caller after
  // all work has drained. Called from inside a pool task, runs inline.
  void ParallelFor(size_t begin, size_t end, const std::function<void(size_t)>& fn);

  // Runs every task in `tasks` and returns when all have finished; same
  // exception and nesting semantics as ParallelFor.
  void RunAll(const std::vector<std::function<void()>>& tasks);

  // Refreshes the pool pressure gauges (`pool.queue_depth`,
  // `pool.busy_workers`, `pool.workers`, `pool.utilization`) from current
  // state. The enqueue/dequeue paths already keep the first three roughly
  // current at their own write points; this gives periodic samplers (the
  // rolling metrics exporter) a consistent reading on demand. Takes the
  // queue mutex briefly — not for hot paths.
  void PublishGauges();

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_available_;
  std::queue<std::function<void()>> queue_;
  bool shutdown_ = false;
};

// Process-wide pool used by the compute substrate. Defaults to inline-only
// (1 thread) so library consumers opt in to parallelism explicitly.
ThreadPool& GlobalThreadPool();

// Replaces the global pool with one of `num_threads` threads (0 means
// std::thread::hardware_concurrency()). Not safe to call concurrently with
// work running on the pool; intended for start-up (CLI --threads) and tests.
void SetGlobalThreads(size_t num_threads);

// Thread count the global pool would use for parallel sections (>= 1).
size_t GlobalParallelism();

}  // namespace cloudgen

#endif  // SRC_UTIL_THREAD_POOL_H_
