// Tests of the shared worker pool behind the suite runner.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "perf/thread_pool.h"

namespace hcrf::perf {
namespace {

TEST(ThreadPool, RunsEveryItemExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(257);
  pool.ParallelFor(hits.size(), 4, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ThreadPool, SerialAndParallelAgree) {
  ThreadPool pool(3);
  auto run = [&](int workers) {
    std::vector<long> out(100);
    pool.ParallelFor(out.size(), workers,
                     [&](size_t i) { out[i] = static_cast<long>(i * i); });
    return std::accumulate(out.begin(), out.end(), 0L);
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(ThreadPool, ReusableAcrossManyCalls) {
  // The point of the pool: many sweeps reuse the same workers. Hammer it.
  ThreadPool pool(2);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelFor(20, 2, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50L * 20);
}

TEST(ThreadPool, EmptyAndSingleItem) {
  ThreadPool pool(2);
  std::atomic<int> n{0};
  pool.ParallelFor(0, 4, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 0);
  pool.ParallelFor(1, 4, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 1);
}

TEST(ThreadPool, SharedInstanceIsStable) {
  ThreadPool& a = ThreadPool::Shared();
  ThreadPool& b = ThreadPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  a.ParallelFor(10, a.num_workers() + 1, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 10);
}

TEST(TaskPool, WorkerlessPoolRunsEverythingInline) {
  // 0 workers is a valid configuration: RunAndWait steals the group's own
  // queued tasks and runs them on the caller, so nothing can hang.
  TaskPool pool(0);
  EXPECT_EQ(pool.num_workers(), 0);
  std::atomic<int> n{0};
  TaskGroup g(pool);
  for (int i = 0; i < 16; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 16);
}

TEST(TaskPool, GroupIsReusableAcrossRounds) {
  TaskPool pool(3);
  std::atomic<long> total{0};
  TaskGroup g(pool);
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 8; ++i) g.Submit([&] { ++total; });
    g.RunAndWait();
  }
  EXPECT_EQ(total.load(), 40L * 8);
}

TEST(TaskPool, NestedGroupsNeverDeadlock) {
  // More live groups than workers: every outer task opens its own inner
  // group while all workers are already busy running outer tasks. The
  // inner RunAndWait must make progress by stealing its own queued tasks.
  TaskPool pool(2);
  std::atomic<int> inner_runs{0};
  TaskGroup outer(pool);
  for (int i = 0; i < 6; ++i) {
    outer.Submit([&] {
      TaskGroup inner(pool);
      for (int j = 0; j < 4; ++j) inner.Submit([&] { ++inner_runs; });
      inner.RunAndWait();
    });
  }
  outer.RunAndWait();
  EXPECT_EQ(inner_runs.load(), 6 * 4);
}

TEST(TaskPool, CallerHelpsUnderSaturation) {
  // Far more tasks than workers; the submitter must chew through the
  // backlog itself instead of blocking until workers get around to it.
  TaskPool pool(1);
  std::atomic<int> n{0};
  TaskGroup g(pool);
  for (int i = 0; i < 200; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 200);
}

TEST(TaskPool, SharedInstanceIsStable) {
  TaskPool& a = TaskPool::Shared();
  TaskPool& b = TaskPool::Shared();
  EXPECT_EQ(&a, &b);
  std::atomic<int> n{0};
  TaskGroup g(a);
  for (int i = 0; i < 10; ++i) g.Submit([&] { ++n; });
  g.RunAndWait();
  EXPECT_EQ(n.load(), 10);
}

TEST(TaskPool, DestructorDrainsOutstandingTasks) {
  TaskPool pool(2);
  std::atomic<int> n{0};
  {
    TaskGroup g(pool);
    for (int i = 0; i < 32; ++i) g.Submit([&] { ++n; });
    // No explicit RunAndWait: ~TaskGroup must drain before `n` dies.
  }
  EXPECT_EQ(n.load(), 32);
}

}  // namespace
}  // namespace hcrf::perf
