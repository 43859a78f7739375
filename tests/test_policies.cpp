// Tests of the engine's fixed heuristics: every ClusterPolicy value yields
// valid schedules on pure clustered and hierarchical organizations, and
// the attempt machinery stays correct under a worst-case node order.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.h"
#include "core/mirs.h"
#include "ddg/mii.h"
#include "hwmodel/characterize.h"
#include "sched/validate.h"
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

TEST(Policies, EveryClusterPolicyValidates) {
  workload::SynthParams p;
  p.num_loops = 20;
  const workload::Suite suite = workload::PerfectSynthetic(p);
  for (const char* rf : {"4C32/1-1", "4C16S64/2-1"}) {
    const MachineConfig m = Machine(rf);
    for (ClusterPolicy pol : {ClusterPolicy::kBalanced,
                              ClusterPolicy::kRoundRobin,
                              ClusterPolicy::kFirstFit}) {
      MirsOptions opt;
      opt.cluster_policy = pol;
      int scheduled = 0;
      for (const auto& loop : suite.loops()) {
        const ScheduleResult sr = MirsHC(loop.ddg, m, opt);
        if (!sr.ok) continue;
        ++scheduled;
        const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
        EXPECT_TRUE(vr.ok) << rf << " " << ToString(pol) << " "
                           << loop.ddg.name() << ": " << vr.error;
      }
      EXPECT_GT(scheduled, 0) << rf << " " << ToString(pol);
    }
  }
}

TEST(Policies, CustomOrderingStillSchedulesValidly) {
  // Worst-case ordering: ascending node id, ignoring the dependence shape.
  // The engine always uses the HRMS order, so drive the attempt machinery
  // directly with the id order, stepping the II up from MII.
  const MachineConfig m = Machine("1C32S64/4-2");
  const MirsOptions opt;
  const sched::LatencyOverrides no_overrides;
  for (const auto& loop :
       {workload::MakeDaxpy(), workload::MakeFir4(), workload::MakeDot()}) {
    const std::vector<NodeId> order = loop.ddg.AliveNodes();
    const MIIInfo mii = ComputeMII(loop.ddg, m);
    AttemptContext ctx(loop.ddg, m, opt, no_overrides, order);
    int ii = mii.MII();
    while (ii <= opt.max_ii && ctx.TryII(ii) != AttemptStatus::kScheduled) {
      ++ii;
    }
    ASSERT_LE(ii, opt.max_ii) << loop.ddg.name();
    const ScheduleResult sr = ctx.Finalize(mii, ii);
    const auto vr = sched::Validate(sr.graph, sr.schedule, m, sr.overrides);
    EXPECT_TRUE(vr.ok) << loop.ddg.name() << ": " << vr.error;
  }
}

}  // namespace
}  // namespace hcrf::core
