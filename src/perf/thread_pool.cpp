#include "perf/thread_pool.h"

#include <algorithm>
#include <string>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace hcrf::perf {

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = [] {
    auto* p = new ThreadPool();  // leaked: lives for the process
    obs::GetGauge("thread_pool.workers").Set(p->num_workers());
    return p;
  }();
  return *pool;
}

ThreadPool::ThreadPool(int threads) {
  const int n =
      threads > 0
          ? threads
          : static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  // The calling thread participates in every job, so n workers give n+1-way
  // parallelism; keep the worker count at n-1 so `threads` counts the
  // caller, as BatchOptions::threads does.
  workers_.reserve(static_cast<size_t>(std::max(0, n - 1)));
  for (int i = 0; i < n - 1; ++i) {
    workers_.emplace_back([this, i] {
      obs::Tracer::SetThreadName("pool-worker-" + std::to_string(i + 1));
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::RunItems() {
  while (job_.active && job_.next < job_.n) {
    const std::size_t i = job_.next++;
    const auto* fn = job_.fn;
    mu_.unlock();
    (*fn)(i);
    mu_.lock();
    if (--job_.remaining == 0) done_cv_.NotifyAll();
  }
}

void ThreadPool::WorkerLoop() {
  std::uint64_t seen = 0;
  mu_.lock();
  while (true) {
    while (!stop_ && !(job_.active && job_.generation != seen)) {
      work_cv_.Wait(mu_);
    }
    if (stop_) break;
    seen = job_.generation;
    if (job_.entrants_left <= 0) continue;  // width cap reached
    --job_.entrants_left;
    RunItems();
  }
  mu_.unlock();
}

void ThreadPool::ParallelFor(std::size_t n, int max_workers,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  static obs::Counter& jobs = obs::GetCounter("thread_pool.jobs");
  static obs::Counter& items = obs::GetCounter("thread_pool.items");
  jobs.Add(1);
  items.Add(static_cast<long>(n));
  if (max_workers <= 1 || n == 1 || workers_.empty()) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  MutexLock session(session_mu_);
  mu_.lock();
  job_.fn = &fn;
  job_.n = n;
  job_.next = 0;
  job_.remaining = n;
  job_.entrants_left = max_workers - 1;  // the caller takes one slot
  ++job_.generation;
  job_.active = true;
  mu_.unlock();
  work_cv_.NotifyAll();
  mu_.lock();
  RunItems();
  while (job_.remaining != 0) done_cv_.Wait(mu_);
  job_.active = false;
  mu_.unlock();
}

// ---------------------------------------------------------------------------
// TaskPool / TaskGroup
// ---------------------------------------------------------------------------

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

}  // namespace hcrf::perf
