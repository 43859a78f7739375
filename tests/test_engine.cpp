// Engine-driver accounting and bookkeeping invariants: the Budget_Ratio
// grant cap boundary, the force-and-eject path never leaving stale
// placements for garbage-collected nodes in a final schedule, and the
// counters of a failed II-escalation walk.
#include <gtest/gtest.h>

#include <string>

#include "core/engine.h"
#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "io/hcl.h"
#include "workload/suite_cache.h"

namespace hcrf {
namespace {

// Mirrors the manifest/bench construction: paper-notation RF applied to the
// baseline resources, run through the hardware model when register counts
// are bounded.
MachineConfig OrgMachine(const std::string& rf) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf));
  if (!m.rf.UnboundedClusterRegs() && !m.rf.UnboundedSharedRegs()) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

void ExpectStatsEq(const core::ScheduleStats& a, const core::ScheduleStats& b,
                   const std::string& what) {
  EXPECT_EQ(a.attempts, b.attempts) << what;
  EXPECT_EQ(a.ejections, b.ejections) << what;
  EXPECT_EQ(a.force_places, b.force_places) << what;
  EXPECT_EQ(a.restarts, b.restarts) << what;
  EXPECT_EQ(a.comm_ops, b.comm_ops) << what;
  EXPECT_EQ(a.spill_stores, b.spill_stores) << what;
  EXPECT_EQ(a.spill_loads, b.spill_loads) << what;
  EXPECT_EQ(a.storer_ops, b.storer_ops) << what;
  EXPECT_EQ(a.loadr_ops, b.loadr_ops) << what;
  EXPECT_EQ(a.move_ops, b.move_ops) << what;
  EXPECT_EQ(a.spills_inserted, b.spills_inserted) << what;
  EXPECT_EQ(a.chains_built, b.chains_built) << what;
  EXPECT_EQ(a.chains_undone, b.chains_undone) << what;
  EXPECT_DOUBLE_EQ(a.budget_spent, b.budget_spent) << what;
  EXPECT_DOUBLE_EQ(a.budget_granted, b.budget_granted) << what;
}

TEST(BudgetAccount, GrantClampsToTheCapHeadroom) {
  core::BudgetAccount b;
  b.Start(10.0, 5.0);
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 3.0);  // plenty of headroom
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 2.0);  // clamped: only 2 of 5 remain
  EXPECT_DOUBLE_EQ(b.Grant(3.0), 0.0);  // cap reached
  EXPECT_DOUBLE_EQ(b.granted, 5.0);     // never overshoots grant_cap
  EXPECT_DOUBLE_EQ(b.remaining, 15.0);  // initial 10 + the 5 granted
  b.Spend(1.0);
  EXPECT_DOUBLE_EQ(b.remaining, 14.0);
}

TEST(BudgetAccount, ExactCapGrantThenNothing) {
  core::BudgetAccount b;
  b.Start(0.0, 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(6.0), 6.0);
  EXPECT_DOUBLE_EQ(b.Grant(0.5), 0.0);
  EXPECT_DOUBLE_EQ(b.granted, 6.0);
}

// Regression: on pure clustered organizations, force-placing a Move could
// eject a victim whose ejection cascade dissolved the very chain the Move
// belonged to (comm GC tombstones it) — and the tombstone was then placed
// anyway. The stale placement serialized as a "placement of undefined
// node" that the strict result parser (and so the schedule cache) rejects.
TEST(EngineDriver, NoPlacementsForTombstonedNodes) {
  const workload::Suite& suite = workload::SharedSyntheticSuite();
  const workload::Loop* loop = nullptr;
  for (size_t i = 0; i < suite.size(); ++i) {
    if (suite[i].ddg.name() == "synth-stream-138") loop = &suite[i];
  }
  ASSERT_NE(loop, nullptr);
  const MachineConfig m = hw::ApplyCharacterization(
      MachineConfig::WithRF(RFConfig::Parse("4C32")),
      hw::RFModelMode::kPaperTable);
  const core::ScheduleResult r = core::MirsHC(loop->ddg, m, {});
  ASSERT_TRUE(r.ok);
  for (NodeId v = 0; v < r.graph.NumSlots(); ++v) {
    EXPECT_FALSE(r.schedule.IsScheduled(v) && !r.graph.IsAlive(v))
        << "tombstoned node " << v << " still scheduled";
  }
  // The canonical dump must survive its own strict re-parse bit-exactly —
  // the property every schedule-cache hit depends on.
  const std::string dump = io::DumpResult(r);
  EXPECT_EQ(io::DumpResult(io::ParseResult(dump)), dump);
}

// A failing serial walk after real escalation: when no II up to max_ii
// admits a schedule, the driver reports the failure with the probe's MII
// and the counters accumulated over every attempted II, deterministically.
TEST(EngineDriver, FailedEscalationWalkAccumulatesStats) {
  const workload::Suite& kernels = workload::SharedKernelSuite();
  const MachineConfig m = OrgMachine("4C16S64/2-1");
  int exercised = 0;
  for (size_t i = 0; i < kernels.size(); ++i) {
    const core::ScheduleResult probe = core::MirsHC(kernels[i].ddg, m, {});
    ASSERT_TRUE(probe.ok);
    if (probe.ii == probe.mii) continue;  // needs a real escalation walk
    core::MirsOptions opt;
    opt.max_ii = probe.ii - 1;  // every candidate must now fail
    const core::ScheduleResult a = core::MirsHC(kernels[i].ddg, m, opt);
    const core::ScheduleResult b = core::MirsHC(kernels[i].ddg, m, opt);
    const std::string what = kernels[i].ddg.name();
    ASSERT_FALSE(a.ok) << what;
    EXPECT_EQ(a.mii, probe.mii) << what;
    EXPECT_GT(a.stats.attempts, 0) << what;
    ASSERT_FALSE(b.ok) << what;
    ExpectStatsEq(a.stats, b.stats, what);
    ++exercised;
  }
  // The hierarchical proposal's kernel runs are ejection-heavy; at least
  // one loop must escalate past its MII or this test checks nothing.
  EXPECT_GT(exercised, 0);
}

}  // namespace
}  // namespace hcrf
