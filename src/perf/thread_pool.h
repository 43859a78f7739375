// The one executor: a multi-group task queue (TaskPool), its fan-out
// handle (TaskGroup), and ParallelFor, the index loop built on the two.
//
// TaskPool::Shared() runs the lanes of
// service::SchedulerService::RunBatch, which every scheduling front end
// (run, sweep, repro, the daemon) goes through. Each TieredCache owns a
// one-worker pool for its write-behind disk Puts, and the daemon owns a
// pool for its connection handlers.
//
// Lock discipline (machine-checked under clang -Wthread-safety): the
// pool's `mu_` guards its queue, its stop flag and every group's pending
// count. Blocking regions use explicit Mutex::lock/unlock pairs rather
// than scoped locks because the work loops drop the mutex around each
// task.
#pragma once

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "core/thread_annotations.h"

namespace hcrf::perf {

class TaskGroup;

/// Multi-group FIFO task queue. Any thread — including one of its own
/// workers — may feed it through a TaskGroup, and any number of groups
/// may be live at once. Saturation can never deadlock: a thread waiting
/// on its group steals that group's still-queued tasks and runs them
/// inline, so a fully busy (or even worker-less) pool degrades to serial
/// execution on the submitter.
class TaskPool {
 public:
  /// The process-wide pool (hardware_concurrency - 1 workers — the
  /// submitting thread is the remaining lane — lazily started).
  static TaskPool& Shared();

  /// `threads` = worker-thread count. The submitter is not counted here
  /// (it participates through TaskGroup::RunAndWait's stealing), so 0 is a
  /// valid, fully inline configuration; negative values select the
  /// hardware_concurrency - 1 default.
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

/// Runs fn(0) .. fn(n-1) on up to `width` lanes: the calling thread plus
/// width-1 lane tasks on `pool` (capped at its worker count), each pulling
/// indices from one shared cursor. Returns when every item has finished.
/// `width` <= 1, n <= 1 or a worker-less pool run serially on the caller.
/// Safe to call from several threads at once and from inside a pool task:
/// concurrent calls share the workers, and a lane that finds the cursor
/// exhausted returns at once.
void ParallelFor(TaskPool& pool, std::size_t n, int width,
                 const std::function<void(std::size_t)>& fn);

}  // namespace hcrf::perf
