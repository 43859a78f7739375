// Tests of the one executor: TaskPool / TaskGroup and ParallelFor, the
// index loop the batch path (RunBatch) fans out through.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <thread>
#include <vector>

#include "perf/thread_pool.h"

namespace hcrf::perf {
namespace {

TEST(ParallelFor, RunsEveryItemExactlyOnce) {
  TaskPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  ParallelFor(pool, hits.size(), 4, [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(ParallelFor, SerialAndParallelAgree) {
  TaskPool pool(2);
  auto run = [&](int width) {
    std::vector<long> out(100);
    ParallelFor(pool, out.size(), width,
                [&](size_t i) { out[i] = static_cast<long>(i * i); });
    return out;
  };
  EXPECT_EQ(run(1), run(3));
}

TEST(ParallelFor, ReusableAcrossManyCalls) {
  // Many batches reuse the same workers. Hammer it.
  TaskPool pool(1);
  std::atomic<long> total{0};
  for (int round = 0; round < 50; ++round) {
    ParallelFor(pool, 20, 2, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50L * 20);
}

TEST(ParallelFor, EmptyAndSingleItem) {
  TaskPool pool(1);
  std::atomic<int> n{0};
  ParallelFor(pool, 0, 4, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 0);
  ParallelFor(pool, 1, 4, [&](size_t) { ++n; });
  EXPECT_EQ(n.load(), 1);
}

TEST(ParallelFor, WorkerlessPoolRunsSeriallyOnTheCaller) {
  // The single-core sizing of TaskPool::Shared(): 0 workers, so every
  // item runs on the calling thread whatever width is asked for.
  TaskPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  ParallelFor(pool, 10, 4, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
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
