// Post-scheduling metrics and the process-wide MII sweep cache.
//
// Schedules come from service::SchedulerService::RunBatch (the one batch
// path: parallel over the shared ThreadPool, cache-backed). This header
// turns each result into the paper's per-loop metrics and holds the MII
// memo RunBatch consults before scheduling: the bound depends only on the
// graph, the latency table and the global FU / memory-port counts, all of
// which are shared across the RF organizations of a design-space sweep,
// so the cache turns the per-configuration ComputeMII into a hash lookup.
#pragma once

#include "ddg/mii.h"
#include "perf/metrics.h"
#include "sched/lifetime.h"
#include "workload/workload.h"

namespace hcrf::perf {

/// Derives a loop's metrics from an already-computed schedule: the
/// Section 2.3 formulas (useful cycles, memory traffic, ops executed) plus
/// the memory-simulation stall cycles (Figure 6's real-memory scenario)
/// when `simulate_memory` is set; otherwise stalls are 0 (ideal memory).
/// A cache-served result yields metrics bit-identical to a fresh one.
LoopMetrics MetricsFromResult(const workload::Loop& loop,
                              const MachineConfig& m,
                              const core::ScheduleResult& result,
                              bool simulate_memory = false);

/// Counters of the process-wide MII sweep cache (observability for the
/// sweep service and the benchmark; hits mean a configuration skipped
/// ComputeMII). `entries` is the current resident count, `evictions` how
/// many entries the size cap pushed out.
struct MiiCacheStats {
  long hits = 0;
  long misses = 0;
  long entries = 0;
  long evictions = 0;
};
MiiCacheStats GetMiiCacheStats();

/// Entry cap of the MII sweep cache. The cache is process-wide and a
/// long-lived sweep service would otherwise grow it without bound; beyond
/// the cap the oldest entry is evicted (FIFO). Returns the previous cap.
/// The default (4096) comfortably holds every (suite x latency-table)
/// combination of the paper reproduction.
long SetMiiCacheCapacity(long max_entries);

/// Shared MII sweep-cache lookup: returns the memoized MII of (g, m,
/// overrides), computing and inserting it on a miss. The key covers the
/// graph structure, the global resource counts, the latency table and the
/// producer-latency overrides. ComputeMII itself currently reads only the
/// latency table, but the key must cover everything the value *may*
/// depend on: keying the overrides guarantees a binding-prefetch run can
/// never be cross-served a base-latency entry (or vice versa), and keeps
/// the cache sound if RecMII ever honours the overridden load latencies.
MIIInfo CachedMii(const DDG& g, const MachineConfig& m,
                  const sched::LatencyOverrides& overrides = {});

}  // namespace hcrf::perf
