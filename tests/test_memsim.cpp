// Unit tests for the cache model, the loop replay and the binding-prefetch
// classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <queue>
#include <random>
#include <set>
#include <vector>

#include "core/mirs.h"
#include "experiment/experiment.h"
#include "memsim/cache.h"
#include "memsim/prefetch.h"
#include "memsim/replay.h"
#include "workload/kernels.h"
#include "workload/suite_cache.h"

namespace hcrf::memsim {
namespace {

TEST(Cache, HitAfterFill) {
  Cache c;
  EXPECT_FALSE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x1000));
  EXPECT_TRUE(c.Access(0x1008));  // same 32B line
  EXPECT_FALSE(c.Access(0x1020)); // next line
  EXPECT_EQ(c.misses(), 2);
  EXPECT_EQ(c.hits(), 2);
}

TEST(Cache, LruEviction) {
  CacheConfig cfg;
  cfg.size_bytes = 2 * 32 * 2;  // 2 sets, 2-way, 32B lines
  cfg.associativity = 2;
  Cache c(cfg);
  // Three lines mapping to set 0 (set stride = 2 lines = 64B).
  const std::uint64_t a = 0 * 64;
  const std::uint64_t b = 1 * 64 + 32;  // set 1 actually; use multiples of 64
  (void)b;
  const std::uint64_t l0 = 0;
  const std::uint64_t l1 = 64;
  const std::uint64_t l2 = 128;
  (void)a;
  EXPECT_FALSE(c.Access(l0));
  EXPECT_FALSE(c.Access(l1));
  EXPECT_FALSE(c.Access(l2));  // evicts l0 (LRU)
  EXPECT_FALSE(c.Access(l0)); // miss again
  EXPECT_TRUE(c.Access(l2));  // still resident
}

TEST(Cache, ProbeDoesNotMutate) {
  Cache c;
  EXPECT_FALSE(c.Probe(0x40));
  EXPECT_FALSE(c.Probe(0x40));
  c.Access(0x40);
  EXPECT_TRUE(c.Probe(0x40));
  EXPECT_EQ(c.misses(), 1);
}

TEST(Cache, ResetClears) {
  Cache c;
  c.Access(0x80);
  c.Reset();
  EXPECT_FALSE(c.Probe(0x80));
  EXPECT_EQ(c.misses(), 0);
}

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

TEST(Replay, UnitStrideLoopMostlyHits) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(1024);
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);
  // 3 arrays * 8B stride: one miss per 4 accesses per array.
  EXPECT_GT(rr.accesses, 3000);
  EXPECT_NEAR(static_cast<double>(rr.misses) / rr.accesses, 0.25, 0.05);
  EXPECT_GT(rr.stall_cycles, 0);  // no prefetching: loads stall on miss
  EXPECT_GT(rr.useful_cycles, 0);
}

TEST(Replay, BindingPrefetchRemovesLoadStalls) {
  MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(1024);
  const sched::LatencyOverrides ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kAll);
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, ov);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);
  EXPECT_EQ(rr.stall_cycles, 0);  // all loads bound to miss latency
}

TEST(Replay, WarmInvocationsStallLess) {
  const MachineConfig m = MachineConfig::Baseline();
  // Small working set: fits in 32KB, so invocations after the first hit.
  workload::Loop loop = workload::MakeVadd(256);
  loop.invocations = 10;
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  const ReplayResult rr = ReplayLoop(loop, sr, m);

  workload::Loop once = loop;
  once.invocations = 1;
  const ReplayResult r1 = ReplayLoop(once, sr, m);
  // Stalls grow far slower than 10x: the warm invocations hit.
  EXPECT_LT(rr.stall_cycles, 3 * r1.stall_cycles + 1);
}

TEST(Replay, StridedLoopMissesMore) {
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop unit = workload::MakeVadd(512);
  workload::Loop strided = workload::MakeVadd(512);
  for (NodeId v = 0; v < strided.ddg.NumSlots(); ++v) {
    Node& n = strided.ddg.node(v);
    if (n.mem.has_value()) n.mem->stride = 256;  // one line per access
  }
  const core::ScheduleResult s1 = core::MirsHC(unit.ddg, m);
  const core::ScheduleResult s2 = core::MirsHC(strided.ddg, m);
  ASSERT_TRUE(s1.ok);
  ASSERT_TRUE(s2.ok);
  const ReplayResult r1 = ReplayLoop(unit, s1, m);
  const ReplayResult r2 = ReplayLoop(strided, s2, m);
  EXPECT_GT(r2.misses, 3 * r1.misses);
}

// The naive reference the replay kernel must match exactly: division
// indexing, a valid flag per way, and a heap of MSHR completion times.
class NaiveCache {
 public:
  explicit NaiveCache(const CacheConfig& cfg)
      : cfg_(cfg),
        ways_(static_cast<size_t>(cfg.NumSets()) *
              static_cast<size_t>(cfg.associativity)) {}

  bool Access(std::uint64_t addr) {
    const std::uint64_t line =
        addr / static_cast<std::uint64_t>(cfg_.line_bytes);
    const std::uint64_t set =
        line % static_cast<std::uint64_t>(cfg_.NumSets());
    const std::uint64_t tag =
        line / static_cast<std::uint64_t>(cfg_.NumSets());
    Way* base = &ways_[static_cast<size_t>(set) *
                       static_cast<size_t>(cfg_.associativity)];
    ++tick_;
    Way* victim = base;
    for (int a = 0; a < cfg_.associativity; ++a) {
      Way& w = base[a];
      if (w.valid && w.tag == tag) {
        w.lru = tick_;
        return true;
      }
      if (!w.valid || w.lru < victim->lru) {
        if (!victim->valid && w.valid) continue;  // prefer invalid victims
        victim = &w;
      }
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = tick_;
    return false;
  }

 private:
  struct Way {
    std::uint64_t tag = 0;
    bool valid = false;
    std::uint64_t lru = 0;
  };
  CacheConfig cfg_;
  std::vector<Way> ways_;
  std::uint64_t tick_ = 0;
};

ReplayResult NaiveReplay(const workload::Loop& loop,
                         const core::ScheduleResult& sr,
                         const MachineConfig& m, const CacheConfig& cfg) {
  struct Op {
    int cycle;
    bool is_load;
    bool bound_miss;
    std::int32_t array;
    std::int64_t base;
    std::int64_t stride;
  };
  const auto array_base = [](std::int32_t array_id) {
    const std::uint64_t id = static_cast<std::uint32_t>(array_id);
    return (id << 20) + ((id * 7919u) % 997u) * 32u;
  };
  ReplayResult out;
  out.useful_cycles =
      static_cast<long>(sr.ii) * (loop.TotalIterations() +
                                  static_cast<long>(sr.sc - 1) *
                                      loop.invocations);
  std::vector<Op> ops;
  for (NodeId v = 0; v < sr.graph.NumSlots(); ++v) {
    if (!sr.graph.IsAlive(v)) continue;
    const Node& n = sr.graph.node(v);
    if (!IsMemory(n.op) || !n.mem.has_value()) continue;
    const bool is_load = n.op == OpClass::kLoad;
    ops.push_back({sr.schedule.CycleOf(v), is_load,
                   is_load && sr.overrides.For(v, m.lat.load_hit) >=
                                  m.lat.load_miss,
                   n.mem->array_id, n.mem->base, n.mem->stride});
  }
  std::sort(ops.begin(), ops.end(),
            [](const Op& a, const Op& b) { return a.cycle < b.cycle; });
  if (ops.empty()) return out;
  NaiveCache cache(cfg);
  const auto run_invocation = [&]() -> long {
    long stall = 0;
    std::priority_queue<long, std::vector<long>, std::greater<>> inflight;
    for (long i = 0; i < loop.trip; ++i) {
      const long iter_base = i * sr.ii + stall;
      for (const Op& op : ops) {
        const long issue = iter_base + op.cycle;
        while (!inflight.empty() && inflight.top() <= issue) inflight.pop();
        const std::uint64_t addr =
            array_base(op.array) +
            static_cast<std::uint64_t>(op.base + op.stride * i);
        ++out.accesses;
        if (cache.Access(addr)) continue;
        ++out.misses;
        long extra = 0;
        if (static_cast<int>(inflight.size()) >= cfg.mshrs) {
          extra = std::max(extra, inflight.top() - issue);
          inflight.pop();
        }
        inflight.push(issue + extra + m.lat.load_miss);
        if (op.is_load && !op.bound_miss) {
          extra += m.lat.load_miss - m.lat.load_hit;
        }
        stall += extra;
      }
    }
    return stall;
  };
  const long cold = run_invocation();
  const long warm = loop.invocations > 1 ? run_invocation() : 0;
  out.stall_cycles = cold + warm * (loop.invocations - 1);
  return out;
}

// The replay kernel (shift indexing, packed ways, the fixed MSHR array) is
// exact: on a seeded sample of the synthetic suite, scheduled with
// selective binding prefetching on Figure 6's seven organizations, it
// reports the reference's stall cycles, accesses and misses under the
// paper's cache.
TEST(Replay, MatchesNaiveReference) {
  const workload::Suite& synth = workload::SharedSyntheticSuite();
  std::mt19937 rng(20030422u);
  std::set<size_t> sample;
  while (sample.size() < 150) sample.insert(rng() % synth.size());

  const experiment::Experiment* fig6 = experiment::FindExperiment("fig6");
  ASSERT_NE(fig6, nullptr);
  const CacheConfig cfg;
  int compared = 0;
  long stalls = 0;
  for (const experiment::MachineVariant& mv : fig6->machines) {
    for (const size_t index : sample) {
      const workload::Loop& loop = synth[index];
      const core::ScheduleResult sr = core::MirsHC(
          loop.ddg, mv.machine, {},
          ClassifyBindingPrefetch(loop.ddg, mv.machine, loop.trip,
                                  PrefetchMode::kSelective));
      if (!sr.ok) continue;
      SCOPED_TRACE(mv.label + " loop " + std::to_string(index));
      const ReplayResult want = NaiveReplay(loop, sr, mv.machine, cfg);
      const ReplayResult got = ReplayLoop(loop, sr, mv.machine, cfg);
      ASSERT_EQ(got.stall_cycles, want.stall_cycles);
      ASSERT_EQ(got.accesses, want.accesses);
      ASSERT_EQ(got.misses, want.misses);
      ASSERT_EQ(got.useful_cycles, want.useful_cycles);
      stalls += want.stall_cycles;
      ++compared;
    }
  }
  EXPECT_GT(compared, 7 * 140);
  EXPECT_GT(stalls, 0);
}

// Indexing is shifts and masks only: a geometry whose line size or set
// count is not a power of two is refused rather than mis-indexed.
TEST(CacheDeathTest, RefusesNonPowerOfTwoGeometry) {
  CacheConfig odd_line;
  odd_line.line_bytes = 48;  // 341 sets
  EXPECT_DEATH(Cache{odd_line}, "powers of two");
  CacheConfig odd_sets;
  odd_sets.size_bytes = 3 * 32 * 2;  // 3 sets of 32-byte lines
  EXPECT_DEATH(Cache{odd_sets}, "powers of two");
}

// ---------------------------------------------------------------------------
// Prefetch classifier
// ---------------------------------------------------------------------------

TEST(Prefetch, NoneLeavesEverything) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeDot();
  const auto ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kNone);
  EXPECT_TRUE(ov.producer_latency.empty());
}

TEST(Prefetch, AllMarksEveryLoad) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeVadd();
  const auto ov =
      ClassifyBindingPrefetch(loop.ddg, m, loop.trip, PrefetchMode::kAll);
  int marked = 0;
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    if (loop.ddg.node(v).op == OpClass::kLoad) {
      EXPECT_EQ(ov.For(v, 0), m.lat.load_miss);
      ++marked;
    }
  }
  EXPECT_EQ(marked, 2);
}

TEST(Prefetch, SelectiveSkipsRecurrenceLoads) {
  const MachineConfig m = MachineConfig::Baseline();
  // Memory-carried recurrence: store -> load cycle; its load must keep hit
  // latency under the selective policy.
  DDG g;
  Node ld;
  ld.op = OpClass::kLoad;
  ld.mem = MemRef{0, -8, 8};
  const NodeId l = g.AddNode(std::move(ld));
  const NodeId add = g.AddNode(OpClass::kFAdd);
  Node st;
  st.op = OpClass::kStore;
  st.mem = MemRef{0, 0, 8};
  const NodeId sid = g.AddNode(std::move(st));
  g.AddFlow(l, add, 0);
  g.AddFlow(add, sid, 0);
  g.AddEdge(sid, l, DepKind::kMem, 1);
  // A second, independent load.
  Node ld2;
  ld2.op = OpClass::kLoad;
  ld2.mem = MemRef{1, 0, 8};
  const NodeId l2 = g.AddNode(std::move(ld2));
  const NodeId add2 = g.AddNode(OpClass::kFAdd);
  g.AddFlow(l2, add2, 0);
  g.AddFlow(add, add2, 0);

  const auto ov = ClassifyBindingPrefetch(g, m, 1000, PrefetchMode::kSelective);
  EXPECT_EQ(ov.For(l, m.lat.load_hit), m.lat.load_hit);    // on recurrence
  EXPECT_EQ(ov.For(l2, m.lat.load_hit), m.lat.load_miss);  // free load
}

TEST(Prefetch, SelectiveSkipsShortTrips) {
  const MachineConfig m = MachineConfig::Baseline();
  const auto loop = workload::MakeVadd();
  const auto ov = ClassifyBindingPrefetch(loop.ddg, m, /*trip=*/8,
                                          PrefetchMode::kSelective);
  for (NodeId v = 0; v < loop.ddg.NumSlots(); ++v) {
    EXPECT_EQ(ov.For(v, 0), 0);  // nothing bound: trip below threshold
  }
}

}  // namespace
}  // namespace hcrf::memsim
