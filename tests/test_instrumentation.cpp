// Tests of the scheduler instrumentation layer: counters surfaced through
// ScheduleResult, the EventSink observer, the internal consistency between
// the two, and the aggregation into perf::SuiteMetrics.
#include <gtest/gtest.h>

#include <array>

#include "core/mirs.h"
#include "hwmodel/characterize.h"
#include "perf/runner.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"

namespace hcrf::core {
namespace {

MachineConfig Machine(const std::string& rf) {
  MachineConfig m = MachineConfig::WithRF(RFConfig::Parse(rf));
  if (!m.rf.UnboundedClusterRegs() && !m.rf.UnboundedSharedRegs()) {
    m = hw::ApplyCharacterization(m, hw::RFModelMode::kPaperTable);
  }
  return m;
}

TEST(Instrumentation, CountersNonzeroOnConstrainedSuite) {
  // The tightest clustered organization forces force-and-eject churn and
  // II escalation across a synthetic slice; the counters must see it.
  const MachineConfig m = Machine("8C16S16/1-1");
  workload::SynthParams p;
  p.num_loops = 40;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  long ejections = 0;
  long restarts = 0;
  double budget = 0;
  long attempts = 0;
  int scheduled = 0;
  for (const auto& loop : suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, m);
    if (!sr.ok) continue;
    ++scheduled;
    ejections += sr.stats.ejections;
    restarts += sr.stats.restarts;
    budget += sr.stats.budget_spent;
    attempts += sr.stats.attempts;
    // Every scheduled loop spent at least one attempt per node.
    EXPECT_GE(sr.stats.attempts, loop.ddg.NumNodes());
  }
  ASSERT_GT(scheduled, 0);
  EXPECT_GT(ejections, 0);
  EXPECT_GT(restarts, 0);
  EXPECT_GT(budget, 0.0);
  EXPECT_GT(attempts, 0);
}

TEST(Instrumentation, SpillCountersFireOnSmallRegisterFile) {
  // 32 registers cannot hold the synthetic suite's pressure: the spill
  // engine must report decisions, and the memory-op recount must agree
  // that traffic was added.
  const MachineConfig s32 = Machine("S32");
  workload::SynthParams p;
  p.num_loops = 80;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  long spill_decisions = 0;
  long spill_mem_ops = 0;
  for (const auto& loop : suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, s32);
    if (!sr.ok) continue;
    spill_decisions += sr.stats.spills_inserted;
    spill_mem_ops += sr.stats.spill_loads + sr.stats.spill_stores;
  }
  EXPECT_GT(spill_decisions, 0);
  EXPECT_GT(spill_mem_ops, 0);
}

class CountingSink : public EventSink {
 public:
  void OnEvent(SchedEvent e, NodeId node, int ii) override {
    (void)node;
    (void)ii;
    ++counts_[static_cast<size_t>(e)];
  }
  long Of(SchedEvent e) const { return counts_[static_cast<size_t>(e)]; }

 private:
  std::array<long, 8> counts_{};
};

TEST(Instrumentation, EventStreamMatchesCounters) {
  // Events and counters are two views of the same funnel; they must agree
  // on every loop, including budget-constrained ones.
  const MachineConfig m = Machine("8C16S16/1-1");
  workload::SynthParams p;
  p.num_loops = 15;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  for (const auto& loop : suite.loops()) {
    CountingSink sink;
    MirsOptions opt;
    opt.event_sink = &sink;
    const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
    EXPECT_EQ(sink.Of(SchedEvent::kNodePlaced) +
                  sink.Of(SchedEvent::kNodeForced) +
                  sink.Of(SchedEvent::kChainBuilt),
              sr.stats.attempts)
        << loop.ddg.name();
    EXPECT_EQ(sink.Of(SchedEvent::kNodeEjected), sr.stats.ejections)
        << loop.ddg.name();
    EXPECT_EQ(sink.Of(SchedEvent::kNodeForced), sr.stats.force_places)
        << loop.ddg.name();
    EXPECT_EQ(sink.Of(SchedEvent::kSpillInserted), sr.stats.spills_inserted)
        << loop.ddg.name();
    EXPECT_EQ(sink.Of(SchedEvent::kChainUndone), sr.stats.chains_undone)
        << loop.ddg.name();
  }
}

TEST(Instrumentation, BudgetSpendEqualsPlacementAttempts) {
  // Each placement (found or forced) spends 1.0 budget; communication
  // chains charge an attempt without spending budget. So budget_spent ==
  // attempts - chains_built, and the grant never exceeds its cap.
  const MachineConfig m = Machine("4C16S16/2-1");
  workload::SynthParams p;
  p.num_loops = 25;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  for (const auto& loop : suite.loops()) {
    const ScheduleResult sr = MirsHC(loop.ddg, m);
    EXPECT_DOUBLE_EQ(sr.stats.budget_spent,
                     static_cast<double>(sr.stats.attempts) -
                         static_cast<double>(sr.stats.chains_built))
        << loop.ddg.name();
    // The grant cap is per II attempt and a successful run makes at most
    // restarts + 1 attempts (each attempt advances the II by >= 1).
    // Failed runs report restarts = 0, so the bound only applies to ok.
    if (sr.ok) {
      const double cap = 8.0 * 6.0 * std::max(4, loop.ddg.NumNodes());
      EXPECT_LE(sr.stats.budget_granted,
                cap * (sr.stats.restarts + 1) + 1e-9)
          << loop.ddg.name();
    }
  }
}

TEST(Instrumentation, QuietOnUnconstrainedMachine) {
  // Unbounded monolithic RF with ample resources: no ejections, no spills,
  // no restarts on a simple kernel.
  const MachineConfig m = Machine("S128");
  const auto loop = workload::MakeDaxpy();
  const ScheduleResult sr = MirsHC(loop.ddg, m);
  ASSERT_TRUE(sr.ok);
  EXPECT_EQ(sr.stats.ejections, 0);
  EXPECT_EQ(sr.stats.spills_inserted, 0);
  EXPECT_EQ(sr.stats.restarts, 0);
  EXPECT_EQ(sr.stats.force_places, 0);
}

TEST(Instrumentation, SuiteMetricsAggregateSchedulerCounters) {
  const MachineConfig m = Machine("8C16S16/1-1");
  workload::SynthParams p;
  p.num_loops = 40;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  std::vector<perf::LoopMetrics> det;
  for (size_t i = 0; i < suite.size(); ++i) {
    det.push_back(
        perf::MetricsFromResult(suite[i], m, MirsHC(suite[i].ddg, m)));
  }
  const perf::SuiteMetrics sm = perf::Aggregate(det);
  EXPECT_GT(sm.ejections, 0);
  EXPECT_GT(sm.ii_restarts, 0);
  EXPECT_GT(sm.budget_spent, 0.0);

  // The aggregate equals the sum of the per-loop metrics.
  long ej = 0;
  long rs = 0;
  for (const auto& lm : det) {
    if (!lm.ok) continue;
    ej += lm.ejections;
    rs += lm.ii_restarts;
  }
  EXPECT_EQ(sm.ejections, ej);
  EXPECT_EQ(sm.ii_restarts, rs);
}

}  // namespace
}  // namespace hcrf::core
