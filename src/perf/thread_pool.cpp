#include "perf/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hcrf::perf {

TaskPool& TaskPool::Shared() {
  static TaskPool* pool = [] {
    auto* p = new TaskPool();  // leaked: lives for the process
    obs::GetGauge("task_pool.workers").Set(p->num_workers());
    return p;
  }();
  return *pool;
}

TaskPool::TaskPool(int threads) {
  // Default: hardware_concurrency - 1 workers. The submitter participates
  // through TaskGroup::RunAndWait's stealing, so hw-1 workers + the caller
  // saturate the machine without oversubscribing it; on a single-core host
  // that is 0 workers and every task runs inline on the thread that waits.
  const int n =
      threads >= 0
          ? threads
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency())) -
                1;
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] {
      obs::Tracer::SetThreadName("task-worker-" + std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

TaskPool::~TaskPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void TaskPool::WorkerLoop() {
  mu_.lock();
  while (true) {
    while (!stop_ && queue_.empty()) work_cv_.Wait(mu_);
    if (stop_) break;
    Task t = std::move(queue_.front());
    queue_.pop_front();
    mu_.unlock();
    t.fn();
    mu_.lock();
    // The group outlives its tasks (RunAndWait cannot return while
    // pending_ > 0), so touching it under the pool mutex is safe.
    t.group->FinishFromWorker();
  }
  mu_.unlock();
}

void TaskGroup::Submit(std::function<void()> fn) {
  static obs::Counter& tasks = obs::GetCounter("task_pool.tasks");
  tasks.Add(1);
  {
    MutexLock lk(pool_.mu_);
    pool_.queue_.push_back(TaskPool::Task{this, std::move(fn)});
    ++pending_;
  }
  pool_.work_cv_.NotifyOne();
}

void TaskGroup::RunAndWait() {
  pool_.mu_.lock();
  while (pending_ > 0) {
    // Steal one of our own still-queued tasks and run it inline. This is
    // the no-deadlock guarantee: whatever the pool's saturation, every
    // queued task of this group is runnable by the thread that waits on it.
    auto it = pool_.queue_.begin();
    for (; it != pool_.queue_.end(); ++it) {
      if (it->group == this) break;
    }
    if (it != pool_.queue_.end()) {
      static obs::Counter& steals = obs::GetCounter("task_pool.inline_steals");
      steals.Add(1);
      std::function<void()> fn = std::move(it->fn);
      pool_.queue_.erase(it);
      pool_.mu_.unlock();
      fn();
      pool_.mu_.lock();
      --pending_;  // our own completion; no one else waits on this group
      continue;
    }
    done_cv_.Wait(pool_.mu_);
  }
  pool_.mu_.unlock();
}

void ParallelFor(TaskPool& pool, std::size_t n, int width,
                 const std::function<void(std::size_t)>& fn) {
  const std::size_t lanes = std::min<std::size_t>(
      {n, static_cast<std::size_t>(std::max(width, 1)),
       static_cast<std::size_t>(pool.num_workers()) + 1});
  if (lanes <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto lane = [&] {
    for (std::size_t i = next++; i < n; i = next++) fn(i);
  };
  TaskGroup group(pool);
  for (std::size_t l = 1; l < lanes; ++l) group.Submit(lane);
  lane();
  group.RunAndWait();
}

}  // namespace hcrf::perf
