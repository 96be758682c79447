// Tests for the ThreadPool / ParallelFor primitive: full coverage of the
// index range, empty ranges, exception propagation, the one level of
// parallelism (a section nested in a pool task runs inline, not deadlocking,
// including in a task the caller stole while helping drain), and the global
// pool configuration knobs.
#include "src/util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"

namespace cloudgen {
namespace {

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(0, kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, ParallelForNonZeroBegin) {
  ThreadPool pool(3);
  std::atomic<size_t> sum{0};
  pool.ParallelFor(10, 20, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 145u);  // 10 + 11 + ... + 19.
}

TEST(ThreadPool, EmptyRangeNeverInvokesBody) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelFor(7, 3, [&](size_t) { calls.fetch_add(1); });  // begin > end.
  EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.NumThreads(), 0u);  // Inline-only: no worker threads spawned.
  std::vector<size_t> order;
  pool.ParallelFor(0, 8, [&](size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 8u);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(order[i], i);  // Inline execution is sequential and ordered.
  }
}

TEST(ThreadPool, ExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100,
                                [&](size_t i) {
                                  if (i == 37) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  // The pool must remain usable after an exception.
  std::atomic<int> calls{0};
  pool.ParallelFor(0, 10, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 10);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(2);  // Fewer workers than outer tasks forces queue pressure.
  constexpr size_t kOuter = 8;
  constexpr size_t kInner = 16;
  std::atomic<size_t> total{0};
  pool.ParallelFor(0, kOuter, [&](size_t) {
    // From inside a pool task, a nested submit must not wait on pool workers
    // (they may all be busy running outer tasks) — it runs inline.
    pool.ParallelFor(0, kInner, [&](size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), kOuter * kInner);
}

// The help-drain: a top-level RunAll caller runs queued tasks while it waits.
// A task it steals is a pool task, so a section nested in it runs inline; once
// RunAll returns the caller is top-level again, so its next section fans out.
// The workers' tasks wait until the caller has stolen one, so it always does.
TEST(ThreadPool, HelpDrainRunsStolenTasksAsPoolTasks) {
  ThreadPool pool(2);
  obs::Counter& tasks_run = obs::Registry::Global().GetCounter("pool.tasks_run");
  obs::Counter& tasks_inline = obs::Registry::Global().GetCounter("pool.tasks_inline");
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<bool> stolen{false};
  uint64_t nested_inline = 0;
  std::vector<size_t> nested_order;
  std::vector<std::function<void()>> outer;
  for (size_t o = 0; o < 4; ++o) {
    outer.emplace_back([&] {
      if (std::this_thread::get_id() != caller) {
        const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
        while (!stolen.load() && std::chrono::steady_clock::now() < deadline) {
          std::this_thread::yield();
        }
        return;
      }
      if (stolen.load()) {
        return;
      }
      const uint64_t before = tasks_inline.Value();
      std::vector<std::function<void()>> nested;
      for (size_t i = 0; i < 3; ++i) {
        nested.emplace_back([&nested_order, i] { nested_order.push_back(i); });
      }
      pool.RunAll(nested);
      nested_inline = tasks_inline.Value() - before;
      stolen.store(true);
    });
  }
  pool.RunAll(outer);
  ASSERT_TRUE(stolen.load());
  EXPECT_EQ(nested_inline, 3u);
  EXPECT_EQ(nested_order, (std::vector<size_t>{0, 1, 2}));

  const uint64_t run_before = tasks_run.Value();
  const uint64_t inline_before = tasks_inline.Value();
  std::atomic<int> calls{0};
  pool.RunAll(std::vector<std::function<void()>>(3, [&] { calls.fetch_add(1); }));
  EXPECT_EQ(calls.load(), 3);
  EXPECT_EQ(tasks_run.Value() - run_before, 3u);
  EXPECT_EQ(tasks_inline.Value(), inline_before);
}

TEST(ThreadPool, RunAllExecutesEveryTask) {
  ThreadPool pool(3);
  std::atomic<int> calls{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 20; ++i) {
    tasks.emplace_back([&] { calls.fetch_add(1); });
  }
  pool.RunAll(tasks);
  EXPECT_EQ(calls.load(), 20);
}

TEST(ThreadPool, GlobalPoolResizes) {
  SetGlobalThreads(3);
  EXPECT_EQ(GlobalParallelism(), 3u);
  std::atomic<int> calls{0};
  GlobalThreadPool().ParallelFor(0, 12, [&](size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 12);
  SetGlobalThreads(1);
  EXPECT_EQ(GlobalParallelism(), 1u);
}

}  // namespace
}  // namespace cloudgen
