// SchedulerService: the resident scheduling session.
//
// Before this layer, every front-end call (`RunBatch`, `RunSweep`,
// `RunExperiments`, each CLI invocation) constructed its own
// disk cache, read its own flags and flushed its own stats — process
// state lived as locals of one run. A resident daemon inverts that: the
// cache stack, the parallelism configuration and the stats
// views are fields of one long-lived SchedulerService, and every request
// path — one-shot CLI, sweep, repro, the Unix-socket server — schedules
// through the same session object. One code path, one set of counters,
// one drain point.
//
// Ownership model:
//  * The session owns the cache stack (MemoryTier / DiskTier /
//    TieredCache, per ServiceConfig) for its whole lifetime; batch calls
//    borrow it. Its counters are session totals: a front end drains the
//    session and reads tier_stats()/memory_stats() once per leg.
//  * Batch lanes run on the process-wide perf::TaskPool::Shared(); the
//    session only carries the parallelism cap applied per batch. The
//    write-behind lane is the TieredCache's own one-worker pool.
//  * Drain() settles the write-behind queue; the destructor drains too.
//    A one-shot front end drains before reporting (exact counters), the
//    daemon drains on SIGTERM.
//
// Thread safety: RunBatch may be called from multiple threads (the server
// dispatches concurrent submissions). Concurrent calls do not serialize:
// each fans out through its own perf::ParallelFor, and their lanes share
// the shared pool's workers; the cache stack and stats snapshots are
// internally synchronized.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "service/batch.h"
#include "service/cache_tier.h"

namespace hcrf::service {

/// The one configuration of a scheduling session, fixed at construction.
struct ServiceConfig {
  /// Persistent cache directory; empty disables the disk tier.
  std::string cache_dir;
  /// Memory-tier entry bound; 0 disables the memory tier. When both
  /// tiers are on they stack as a TieredCache with write-behind to disk.
  long cache_mem_entries = 0;
  /// Memory-tier byte bound; 0 = the MemoryTier default (64 MiB).
  long cache_mem_bytes = 0;
  /// Lanes per batch on the shared TaskPool (0 = hardware concurrency,
  /// 1 = strictly serial on the caller).
  int threads = 0;
};

/// The old name of ServiceConfig, kept for callers that still spell it.
using BatchOptions = ServiceConfig;

class SchedulerService {
 public:
  explicit SchedulerService(const ServiceConfig& config);
  ~SchedulerService();  ///< Drains queued cache writes.

  SchedulerService(const SchedulerService&) = delete;
  SchedulerService& operator=(const SchedulerService&) = delete;

  const ServiceConfig& config() const { return config_; }

  /// Lanes one RunBatch fans out to: config().threads, or every worker of
  /// perf::TaskPool::Shared() plus the caller when that is 0. Front ends
  /// that post-process a batch in parallel use the same width.
  int batch_width() const;

  /// Schedules every request in parallel against the session cache stack.
  /// Never throws for per-request failures; they surface as failed items.
  /// Cache counters are the session's (tier_stats()/memory_stats()):
  /// disk `writes` may still be in flight at return, so Drain() first for
  /// exact totals.
  BatchReport RunBatch(const std::vector<BatchRequest>& requests);

  /// Loads `manifest_path`, resolves its requests and runs them through
  /// this session. Unloadable entries become failed items; a malformed
  /// manifest throws.
  BatchReport RunManifest(const std::string& manifest_path);

  /// Settles the write-behind queue (no-op for single-tier caches).
  void Drain();

  /// The stack (or single tier); nullptr when caching is disabled.
  CacheTier* cache() { return cache_.get(); }

  /// Whole-stack counters since session construction (hits from any
  /// tier; misses/rejects/writes at the durable boundary).
  TierStats tier_stats() const;
  /// Memory-tier counters since session construction; zeroes when the
  /// memory tier is not configured.
  TierStats memory_stats() const;

 private:
  ServiceConfig config_;
  std::unique_ptr<CacheTier> cache_;  ///< Null = caching disabled.
  MemoryTier* memory_ = nullptr;      ///< View into cache_ (or null).
};

/// The transient-session form: schedules `requests` on a fresh session of
/// `config`, drained before it returns.
BatchReport RunBatch(const std::vector<BatchRequest>& requests,
                     const ServiceConfig& config);

}  // namespace hcrf::service
