#include "memsim/replay.h"

#include <algorithm>
#include <limits>
#include <vector>

#include "core/check.h"

namespace hcrf::memsim {

namespace {

/// Address-space layout: each array id gets its own 1 MiB region, offset by
/// a per-array scatter so regions do not alias to the same cache sets.
std::uint64_t ArrayBase(std::int32_t array_id) {
  const std::uint64_t id = static_cast<std::uint32_t>(array_id);
  return (id << 20) + ((id * 7919u) % 997u) * 32u;
}

struct MemOp {
  int cycle;          ///< Issue cycle within the (normalized) kernel body.
  bool is_load;
  bool bound_miss;    ///< Scheduled assuming miss latency (prefetched).
  std::uint64_t addr0;  ///< Address of iteration 0: array base + offset.
  std::uint64_t stride;  ///< Two's complement: adding it wraps like + stride.
  std::uint64_t addr;    ///< Address of the current iteration.
};

/// Completion times of the outstanding misses, ascending: a fixed array
/// rather than a heap, since there are at most kMaxMshrs of them.
class Mshrs {
 public:
  static constexpr int kMaxMshrs = 32;

  int size() const { return n_; }
  long earliest() const { return t_[0]; }

  /// Frees every slot whose miss completed by `cycle`.
  void RetireUpTo(long cycle) {
    if (n_ == 0 || t_[0] > cycle) return;
    int k = 1;
    while (k < n_ && t_[k] <= cycle) ++k;
    std::copy(t_ + k, t_ + n_, t_);
    n_ -= k;
  }

  void PopEarliest() {
    std::copy(t_ + 1, t_ + n_, t_);
    --n_;
  }

  void Insert(long completion) {
    int k = n_++;
    for (; k > 0 && t_[k - 1] > completion; --k) t_[k] = t_[k - 1];
    t_[k] = completion;
  }

 private:
  long t_[kMaxMshrs] = {};
  int n_ = 0;
};

}  // namespace

ReplayResult ReplayLoop(const workload::Loop& loop,
                        const core::ScheduleResult& sr,
                        const MachineConfig& m,
                        const CacheConfig& cache_cfg) {
  ReplayResult out;
  const int ii = sr.ii;
  const long n_total = loop.TotalIterations();
  out.useful_cycles =
      static_cast<long>(ii) *
      (n_total + static_cast<long>(sr.sc - 1) * loop.invocations);

  // Collect memory operations of the kernel, ordered by issue cycle.
  std::vector<MemOp> ops;
  for (NodeId v = 0; v < sr.graph.NumSlots(); ++v) {
    if (!sr.graph.IsAlive(v)) continue;
    const Node& n = sr.graph.node(v);
    if (!IsMemory(n.op) || !n.mem.has_value()) continue;
    MemOp op;
    op.cycle = sr.schedule.CycleOf(v);
    op.is_load = n.op == OpClass::kLoad;
    op.bound_miss =
        op.is_load && sr.overrides.For(v, m.lat.load_hit) >= m.lat.load_miss;
    op.addr0 = ArrayBase(n.mem->array_id) +
               static_cast<std::uint64_t>(n.mem->base);
    op.stride = static_cast<std::uint64_t>(n.mem->stride);
    op.addr = op.addr0;
    ops.push_back(op);
  }
  // The order of ops that share a cycle is whatever this unstable sort
  // leaves (libstdc++'s introsort over graph order), and the stall cycles
  // depend on it: the first of two same-cycle misses takes the free MSHR.
  // Keep the call and its comparator as they are: a std::stable_sort
  // changes repro.csv from line 53 on (all references still pass).
  std::sort(ops.begin(), ops.end(),
            [](const MemOp& a, const MemOp& b) { return a.cycle < b.cycle; });
  if (ops.empty()) return out;

  Cache cache(cache_cfg);
  const int miss_lat = m.lat.load_miss;
  const int hit_lat = m.lat.load_hit;
  const int mshrs = cache_cfg.mshrs;
  HCRF_CHECK(mshrs >= 1 && mshrs <= Mshrs::kMaxMshrs,
             "%d MSHRs: the replay models 1 to %d", mshrs, Mshrs::kMaxMshrs);

  // One invocation against the current cache state; returns stall cycles.
  //
  // MSHRs retire lazily. The occupancy is read only at a miss, and
  // retiring up to cycle a and then b equals retiring up to max(a, b), so
  // a miss retires up to the largest issue cycle since the previous miss.
  // Ops are sorted by cycle and an iteration's base never decreases, so
  // that largest cycle is this access's issue or the previous iteration's
  // last issue (`tail`), when that access came after the previous miss.
  // A tail that was itself the previous miss is harmless: that miss left
  // only completions later than its issue.
  const long trip = loop.trip;
  const int last_cycle = ops.back().cycle;
  constexpr long kNothingPending = std::numeric_limits<long>::min();
  auto run_invocation = [&]() -> long {
    long stall = 0;
    long misses = 0;
    long tail = kNothingPending;
    Mshrs inflight;  // completion times, in absolute cycles
    for (MemOp& op : ops) op.addr = op.addr0;
    for (long i = 0; i < trip; ++i) {
      const long iter_base = i * ii + stall;
      for (MemOp& op : ops) {
        const bool hit = cache.Access(op.addr);
        op.addr += op.stride;
        if (hit) continue;
        const long issue = iter_base + op.cycle;
        inflight.RetireUpTo(std::max(issue, tail));
        tail = kNothingPending;
        ++misses;
        // MSHR pressure: stall until a slot frees.
        long extra = 0;
        if (inflight.size() >= mshrs) {
          extra = std::max(extra, inflight.earliest() - issue);
          inflight.PopEarliest();
        }
        inflight.Insert(issue + extra + miss_lat);
        if (op.is_load && !op.bound_miss) {
          // The core expects the value hit_lat cycles after issue.
          extra += miss_lat - hit_lat;
        }
        stall += extra;
      }
      tail = iter_base + last_cycle;
    }
    out.accesses += trip * static_cast<long>(ops.size());
    out.misses += misses;
    return stall;
  };

  const long cold = run_invocation();
  long warm = 0;
  if (loop.invocations > 1) {
    warm = run_invocation();
  }
  out.stall_cycles = cold + warm * (loop.invocations - 1);
  return out;
}

}  // namespace hcrf::memsim
