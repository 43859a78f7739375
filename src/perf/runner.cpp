#include "perf/runner.h"

#include <cstdint>
#include <deque>
#include <unordered_map>

#include "core/thread_annotations.h"
#include "ddg/mii.h"
#include "memsim/replay.h"
#include "obs/metrics.h"
#include "perf/dual_hash.h"

namespace hcrf::perf {

namespace {

// ---------------------------------------------------------------------------
// MII sweep cache
// ---------------------------------------------------------------------------

// The MII of a loop depends on the graph structure, the latency table and
// the global resource counts (ResMII is cluster-agnostic; RecMII ignores
// resources entirely) -- NOT on the RF organization. A design-space sweep
// therefore recomputes the exact same MII once per configuration; this
// cache keys on a structural hash and shares it process-wide, bounded by
// a FIFO entry cap so a long-lived sweep service cannot grow it without
// limit. The key also mixes the producer-latency overrides: ComputeMII
// does not read them today, but runs with binding-prefetch overrides must
// never share entries with base-latency runs (see CachedMii in runner.h).

struct MiiKeyT {
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  bool operator==(const MiiKeyT&) const = default;
};

struct MiiKeyHash {
  size_t operator()(const MiiKeyT& k) const {
    return static_cast<size_t>(k.a ^ (k.b * 0x9e3779b97f4a7c15ull));
  }
};

MiiKeyT MiiKey(const DDG& g, const MachineConfig& m,
               const sched::LatencyOverrides& overrides) {
  DualHash f;
  // Resources and latencies the bounds read.
  f.Mix(static_cast<std::uint64_t>(m.num_fus));
  f.Mix(static_cast<std::uint64_t>(m.num_mem_ports));
  const LatencyTable& lat = m.lat;
  for (int v : {lat.fadd, lat.fmul, lat.fdiv, lat.fsqrt, lat.load_hit,
                lat.store, lat.load_miss, lat.move, lat.loadr, lat.storer}) {
    f.Mix(static_cast<std::uint64_t>(v));
  }
  // Producer-latency overrides (binding prefetching). Only the positive
  // (index, value) pairs plus their count are mixed: trailing zero entries
  // are behaviorally inert, so padded vectors key identically to their
  // trimmed equivalents (and to empty for all-zero vectors).
  std::uint64_t active_overrides = 0;
  for (int v : overrides.producer_latency) {
    if (v > 0) ++active_overrides;
  }
  f.Mix(active_overrides);
  for (size_t i = 0; i < overrides.producer_latency.size(); ++i) {
    if (overrides.producer_latency[i] > 0) {
      f.Mix(static_cast<std::uint64_t>(i));
      f.Mix(static_cast<std::uint64_t>(overrides.producer_latency[i]));
    }
  }
  // Graph structure: ops and dependences (ids are stable, tombstones keep
  // their slot, so hashing alive slots in order is canonical).
  f.Mix(static_cast<std::uint64_t>(g.NumSlots()));
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (!g.IsAlive(v)) continue;
    f.Mix(static_cast<std::uint64_t>(v));
    f.Mix(static_cast<std::uint64_t>(g.node(v).op));
    for (const Edge& e : g.OutEdges(v)) {
      f.Mix(static_cast<std::uint64_t>(e.src));
      f.Mix(static_cast<std::uint64_t>(e.dst));
      f.Mix(static_cast<std::uint64_t>(e.kind));
      f.Mix(static_cast<std::uint64_t>(e.distance));
    }
  }
  return MiiKeyT{f.a, f.b};
}

class MiiCache {
 public:
  static MiiCache& Shared() {
    static MiiCache* cache = new MiiCache();
    return *cache;
  }

  MIIInfo Get(const DDG& g, const MachineConfig& m,
              const sched::LatencyOverrides& overrides) HCRF_EXCLUDES(mu_) {
    const MiiKeyT key = MiiKey(g, m, overrides);
    {
      MutexLock lk(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) {
        hits_.Add(1);
        return it->second;
      }
    }
    const MIIInfo mii = ComputeMII(g, m);
    MutexLock lk(mu_);
    misses_.Add(1);
    if (map_.emplace(key, mii).second) {
      fifo_.push_back(key);
      while (static_cast<long>(map_.size()) > capacity_) {
        map_.erase(fifo_.front());
        fifo_.pop_front();
        evictions_.Add(1);
      }
      entries_.Set(static_cast<long>(map_.size()));
    }
    return mii;
  }

  long SetCapacity(long max_entries) HCRF_EXCLUDES(mu_) {
    MutexLock lk(mu_);
    const long previous = capacity_;
    capacity_ = max_entries > 0 ? max_entries : 1;
    while (static_cast<long>(map_.size()) > capacity_) {
      map_.erase(fifo_.front());
      fifo_.pop_front();
      evictions_.Add(1);
    }
    entries_.Set(static_cast<long>(map_.size()));
    return previous;
  }

  // The hit/miss/eviction counters live in the process-wide metrics
  // registry (sharded atomics, not fields guarded by mu_) so that
  // GetMiiCacheStats never races with — or contends against — batch
  // workers in the middle of a sweep; the entry count takes the lock (it
  // reads the map).
  MiiCacheStats stats() const HCRF_EXCLUDES(mu_) {
    MiiCacheStats s;
    s.hits = hits_.value();
    s.misses = misses_.value();
    s.evictions = evictions_.value();
    MutexLock lk(mu_);
    s.entries = static_cast<long>(map_.size());
    return s;
  }

 private:
  MiiCache()
      : hits_(obs::GetCounter("mii_cache.hits")),
        misses_(obs::GetCounter("mii_cache.misses")),
        evictions_(obs::GetCounter("mii_cache.evictions")),
        entries_(obs::GetGauge("mii_cache.entries")) {}

  mutable Mutex mu_;
  std::unordered_map<MiiKeyT, MIIInfo, MiiKeyHash> map_ HCRF_GUARDED_BY(mu_);
  /// Insertion order; front is evicted first.
  std::deque<MiiKeyT> fifo_ HCRF_GUARDED_BY(mu_);
  long capacity_ HCRF_GUARDED_BY(mu_) = 4096;
  obs::Counter& hits_;
  obs::Counter& misses_;
  obs::Counter& evictions_;
  obs::Gauge& entries_;
};

}  // namespace

LoopMetrics MetricsFromResult(const workload::Loop& loop,
                              const MachineConfig& m,
                              const core::ScheduleResult& sr,
                              bool simulate_memory) {
  LoopMetrics lm;
  lm.ok = sr.ok;
  if (!sr.ok) return lm;

  lm.ii = sr.ii;
  lm.sc = sr.sc;
  lm.mii = sr.mii;
  lm.bound = sr.bound;
  lm.trf = sr.mem_ops_per_iter;
  lm.comm_ops = sr.stats.comm_ops;
  lm.loadr_ops = sr.stats.loadr_ops;
  lm.storer_ops = sr.stats.storer_ops;
  lm.spill_memory_ops = sr.stats.spill_loads + sr.stats.spill_stores;
  lm.ejections = sr.stats.ejections;
  lm.spills_inserted = sr.stats.spills_inserted;
  lm.ii_restarts = sr.stats.restarts;
  lm.budget_spent = sr.stats.budget_spent;

  const long n_total = loop.TotalIterations();
  lm.useful_cycles =
      static_cast<long>(sr.ii) *
      (n_total + static_cast<long>(sr.sc - 1) * loop.invocations);
  lm.mem_traffic = n_total * lm.trf;
  lm.ops_executed = static_cast<long>(loop.ddg.NumNodes()) * n_total;

  if (simulate_memory) {
    const memsim::ReplayResult rr = memsim::ReplayLoop(loop, sr, m);
    lm.stall_cycles = rr.stall_cycles;
  }
  return lm;
}

MiiCacheStats GetMiiCacheStats() { return MiiCache::Shared().stats(); }

long SetMiiCacheCapacity(long max_entries) {
  return MiiCache::Shared().SetCapacity(max_entries);
}

MIIInfo CachedMii(const DDG& g, const MachineConfig& m,
                  const sched::LatencyOverrides& overrides) {
  return MiiCache::Shared().Get(g, m, overrides);
}

}  // namespace hcrf::perf
