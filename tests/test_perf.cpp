// Tests of the performance-metric layer: the paper's formulas, the
// aggregation, the real-memory and prefetch stall accounting, and the MII
// sweep cache.
#include <gtest/gtest.h>

#include "memsim/prefetch.h"
#include "perf/runner.h"
#include "perf/tables.h"
#include "workload/kernels.h"

namespace hcrf::perf {
namespace {

/// Schedules `loop` on `m` (with the binding-prefetch overrides of
/// `prefetch`) and derives its metrics.
LoopMetrics ScheduleMetrics(const workload::Loop& loop, const MachineConfig& m,
                            bool simulate_memory,
                            memsim::PrefetchMode prefetch =
                                memsim::PrefetchMode::kNone) {
  const sched::LatencyOverrides overrides =
      memsim::ClassifyBindingPrefetch(loop.ddg, m, loop.trip, prefetch);
  const core::ScheduleResult sr = core::MirsHC(loop.ddg, m, {}, overrides);
  return MetricsFromResult(loop, m, sr, simulate_memory);
}

TEST(Metrics, ExecCycleFormula) {
  // ExecCycles = II*(N + (SC-1)*E) + Stall.
  const MachineConfig m = MachineConfig::Baseline();
  workload::Loop loop = workload::MakeVadd(100);
  loop.invocations = 3;
  const LoopMetrics lm = ScheduleMetrics(loop, m, /*simulate_memory=*/false);
  ASSERT_TRUE(lm.ok);
  const long expected =
      static_cast<long>(lm.ii) * (300 + static_cast<long>(lm.sc - 1) * 3);
  EXPECT_EQ(lm.useful_cycles, expected);
  EXPECT_EQ(lm.stall_cycles, 0);  // ideal memory
  EXPECT_EQ(lm.mem_traffic, 300L * lm.trf);
  EXPECT_EQ(lm.trf, 3);  // 2 loads + 1 store, no spill on S128
}

TEST(Metrics, AggregateSumsAndClassifies) {
  std::vector<LoopMetrics> loops(3);
  loops[0].ok = true;
  loops[0].ii = 2;
  loops[0].mii = 2;
  loops[0].useful_cycles = 100;
  loops[0].bound = core::BoundClass::kMemPort;
  loops[1].ok = true;
  loops[1].ii = 5;
  loops[1].mii = 4;
  loops[1].useful_cycles = 50;
  loops[1].bound = core::BoundClass::kRecurrence;
  loops[2].ok = false;
  const SuiteMetrics sm = Aggregate(loops);
  EXPECT_EQ(sm.num_loops, 3);
  EXPECT_EQ(sm.failed, 1);
  EXPECT_EQ(sm.sum_ii, 7);
  EXPECT_EQ(sm.loops_at_mii, 1);
  EXPECT_DOUBLE_EQ(sm.PctAtMII(), 100.0 / 3.0);
  EXPECT_EQ(sm.ExecCycles(), 150);
  EXPECT_EQ(sm.bound_count[1], 1);  // MemPort
  EXPECT_EQ(sm.bound_count[2], 1);  // Rec
  EXPECT_EQ(sm.bound_cycles[1], 100);
}

TEST(Metrics, IPCUsesOriginalOps) {
  SuiteMetrics sm;
  sm.ops_executed = 600;
  sm.useful_cycles = 100;
  EXPECT_DOUBLE_EQ(sm.IPC(), 6.0);
}

TEST(Metrics, RealMemoryAddsStalls) {
  const workload::Loop loop = workload::MakeVadd(512);
  const MachineConfig m = MachineConfig::Baseline();
  const LoopMetrics ideal = ScheduleMetrics(loop, m, false);
  const LoopMetrics real = ScheduleMetrics(loop, m, true);
  ASSERT_TRUE(ideal.ok);
  ASSERT_TRUE(real.ok);
  EXPECT_EQ(ideal.stall_cycles, 0);
  EXPECT_GT(real.stall_cycles, 0);
  EXPECT_EQ(ideal.useful_cycles, real.useful_cycles);
}

TEST(Metrics, PrefetchCutsStalls) {
  const workload::Loop loop = workload::MakeVadd(512);
  const MachineConfig m = MachineConfig::Baseline();
  const LoopMetrics none = ScheduleMetrics(loop, m, true);
  const LoopMetrics sel =
      ScheduleMetrics(loop, m, true, memsim::PrefetchMode::kSelective);
  ASSERT_TRUE(none.ok);
  ASSERT_TRUE(sel.ok);
  EXPECT_LT(sel.stall_cycles, none.stall_cycles);
}

// The MII sweep cache must key producer-latency overrides: a binding-
// prefetch run must never share an entry with — and so never be
// cross-served from — a base-latency run of the same loop and machine.
TEST(MiiCache, OverridesArePartOfTheKey) {
  // A latency no other test uses keeps this test's keys to itself (the
  // cache is process-wide; all assertions are deltas).
  MachineConfig m = MachineConfig::Baseline();
  m.lat.fadd = 6;
  const workload::Loop loop = workload::MakeVadd(512);
  const sched::LatencyOverrides all = memsim::ClassifyBindingPrefetch(
      loop.ddg, m, loop.trip, memsim::PrefetchMode::kAll);
  ASSERT_FALSE(all.producer_latency.empty());

  const MiiCacheStats s0 = GetMiiCacheStats();
  CachedMii(loop.ddg, m);
  const MiiCacheStats s1 = GetMiiCacheStats();
  EXPECT_EQ(s1.misses, s0.misses + 1);

  // Non-empty overrides -> a distinct entry, not a hit on the plain one.
  CachedMii(loop.ddg, m, all);
  const MiiCacheStats s2 = GetMiiCacheStats();
  EXPECT_EQ(s2.misses, s1.misses + 1);
  EXPECT_EQ(s2.hits, s1.hits);

  // Looking up the same overrides again is served from its own entry.
  CachedMii(loop.ddg, m, all);
  const MiiCacheStats s3 = GetMiiCacheStats();
  EXPECT_EQ(s3.misses, s2.misses);
  EXPECT_EQ(s3.hits, s2.hits + 1);
}

TEST(MiiCache, CapacityBoundsResidencyWithEviction) {
  const long old_cap = SetMiiCacheCapacity(4);
  const MiiCacheStats trimmed = GetMiiCacheStats();
  EXPECT_LE(trimmed.entries, 4);

  const workload::Loop loop = workload::MakeDot();
  for (int i = 0; i < 6; ++i) {
    MachineConfig m = MachineConfig::Baseline();
    m.lat.fmul = 40 + i;  // six distinct latency tables -> six keys
    CachedMii(loop.ddg, m);
  }
  const MiiCacheStats after = GetMiiCacheStats();
  EXPECT_EQ(after.misses, trimmed.misses + 6);
  EXPECT_EQ(after.entries, 4);  // six inserts into a cap of four
  EXPECT_GE(after.evictions, trimmed.evictions + 2);
  SetMiiCacheCapacity(old_cap);
}

TEST(Tables, Formatting) {
  EXPECT_EQ(Table::Num(1.2345, 2), "1.23");
  EXPECT_EQ(Table::VsPaper(1.5, 2.0, 1), "1.5 (2.0)");
  Table t({"a", "bb"});
  t.AddRow({"1", "2"});
  std::ostringstream os;
  t.Print(os);
  EXPECT_NE(os.str().find("bb"), std::string::npos);
  EXPECT_NE(os.str().find("---"), std::string::npos);
}

}  // namespace
}  // namespace hcrf::perf
