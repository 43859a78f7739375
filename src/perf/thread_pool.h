// Shared worker pool for the suite runner.
//
// The paper-reproduction benches run dozens of multi-configuration sweeps
// per process, each previously spawning (and joining) hardware_concurrency
// threads. This pool starts its workers once and feeds them a work queue;
// ParallelFor distributes item indices through an atomic cursor, the
// calling thread participates, and `max_workers` caps the parallelism of
// one call (1 = strictly serial on the caller, preserving the serial
// debugging path).
//
// Lock discipline (machine-checked under clang -Wthread-safety): `mu_`
// guards the job slot and the stop flag; `session_mu_` serializes whole
// ParallelFor sessions and is always acquired before `mu_`. Blocking
// regions use explicit Mutex::lock/unlock pairs rather than scoped locks
// because the work loops drop the mutex around each item.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace hcrf::perf {

class ThreadPool {
 public:
  /// The process-wide pool (hardware_concurrency workers, lazily started).
  static ThreadPool& Shared();

  /// `threads` = total parallelism including the calling thread (the pool
  /// starts threads-1 workers; the caller participates in every job);
  /// 0 = hardware concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(0) .. fn(n-1), distributing items across up to `max_workers`
  /// threads (including the caller; <= 1 runs serially on the caller).
  /// Returns when every item has finished. Concurrent ParallelFor calls
  /// from different threads are serialized. Must not be called from inside
  /// a pool job (the session mutex is not reentrant) — hence the EXCLUDES.
  void ParallelFor(std::size_t n, int max_workers,
                   const std::function<void(std::size_t)>& fn)
      HCRF_EXCLUDES(session_mu_, mu_);

 private:
  struct Job {
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t n = 0;
    std::size_t next = 0;       ///< Next item index to hand out.
    std::size_t remaining = 0;  ///< Items not yet finished.
    int entrants_left = 0;      ///< Worker-entry slots left (caps width).
    std::uint64_t generation = 0;
    bool active = false;
  };

  void WorkerLoop() HCRF_EXCLUDES(mu_);
  /// Pulls items until the queue drains; drops `mu_` around each item.
  void RunItems() HCRF_REQUIRES(mu_);

  Mutex session_mu_;  ///< Serializes ParallelFor sessions; outranks mu_.
  Mutex mu_;
  CondVar work_cv_;
  CondVar done_cv_;
  Job job_ HCRF_GUARDED_BY(mu_);
  bool stop_ HCRF_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< Written in ctor/dtor only.
};

class TaskGroup;

/// Multi-group task queue for work that must not wait behind a
/// ThreadPool::ParallelFor session. Its two users are the TieredCache's
/// write-behind disk Puts (process-wide Shared() instance) and the
/// daemon's connection handlers (a pool the server owns, sized to its
/// in-flight limit). ThreadPool::ParallelFor runs one job at a time behind
/// a session mutex, so submitting from one of its workers would deadlock;
/// this pool instead keeps a plain queue that any thread — including a
/// ThreadPool worker or one of its own workers — may feed through a
/// TaskGroup. Saturation can never deadlock: a thread waiting on its group
/// steals that group's still-queued tasks and runs them inline, so a fully
/// busy (or even worker-less) pool degrades to serial execution on the
/// submitter.
class TaskPool {
 public:
  /// The process-wide pool (hardware_concurrency - 1 workers — the
  /// submitting thread is the remaining lane — lazily started).
  static TaskPool& Shared();

  /// `threads` = worker-thread count. Unlike ThreadPool, the submitter is
  /// not counted here (it participates through TaskGroup::RunAndWait's
  /// stealing), so 0 is a valid, fully inline configuration; negative
  /// values select the hardware_concurrency - 1 default.
  explicit TaskPool(int threads = -1);
  ~TaskPool();

  TaskPool(const TaskPool&) = delete;
  TaskPool& operator=(const TaskPool&) = delete;

  int num_workers() const { return static_cast<int>(workers_.size()); }

 private:
  friend class TaskGroup;
  struct Task {
    TaskGroup* group;
    std::function<void()> fn;
  };

  void WorkerLoop() HCRF_EXCLUDES(mu_);

  Mutex mu_;  ///< Guards the queue and every group's pending count.
  CondVar work_cv_;
  std::deque<Task> queue_ HCRF_GUARDED_BY(mu_);
  bool stop_ HCRF_GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;  ///< Written in ctor/dtor only.
};

/// One fan-out of concurrent tasks on a TaskPool: Submit each task,
/// then RunAndWait — the calling thread runs its own still-queued tasks
/// while waiting, which is what makes nested submission (a pool task that
/// opens its own TaskGroup) safe at any saturation level. The group must
/// outlive its tasks; the destructor drains. Tasks must not Submit to
/// their own group.
class TaskGroup {
 public:
  explicit TaskGroup(TaskPool& pool) : pool_(pool) {}
  ~TaskGroup() { RunAndWait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Enqueues `fn`; an idle worker (or the waiting submitter) will run it.
  void Submit(std::function<void()> fn) HCRF_EXCLUDES(pool_.mu_);

  /// Runs queued tasks of this group on the calling thread until none are
  /// left, then blocks until the in-flight ones finish. Reentrant: the
  /// group is reusable for another Submit round afterwards.
  void RunAndWait() HCRF_EXCLUDES(pool_.mu_);

 private:
  friend class TaskPool;

  /// Completion bookkeeping for a task a pool worker just ran, called with
  /// the worker's pool mutex held. `pending_` is guarded by `pool_.mu_`,
  /// and the worker holds its own pool's `mu_` — the same object, because
  /// a task only ever sits in the queue of the pool its group was built
  /// on. The analysis cannot prove that aliasing across the Task pointer,
  /// hence the targeted opt-out; the invariant is enforced structurally
  /// (Submit pushes to `pool_.queue_` only).
  void FinishFromWorker() HCRF_NO_THREAD_SAFETY_ANALYSIS {
    if (--pending_ == 0) done_cv_.NotifyAll();
  }

  TaskPool& pool_;
  int pending_ HCRF_GUARDED_BY(pool_.mu_) = 0;  ///< Submitted, unfinished.
  CondVar done_cv_;
};

}  // namespace hcrf::perf
