// The fixed heuristics of MIRS_HC that the engine calls directly:
//
//  * BalancedCluster -- the paper's Select_Cluster (Section 5.1): which
//                       cluster a structurally unconstrained node goes to.
//  * FirstFitCluster -- ablation: lowest-index cluster with a free slot.
//                       (The round-robin ablation is a cursor the engine
//                       keeps per attempt; see AttemptContext.)
//  * LongestPerUse   -- which lifetime to split when a bank overflows.
//
// MirsOptions::cluster_policy picks among the cluster heuristics; the node
// order is always the HRMS ordering (sched/ordering.h).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "core/sched_state.h"
#include "ddg/ddg.h"
#include "sched/lifetime.h"

namespace hcrf::core {

enum class ClusterPolicy : std::uint8_t {
  kBalanced,    ///< Paper's heuristic: slots + communication + registers.
  kRoundRobin,  ///< Ablation: cyclic assignment.
  kFirstFit,    ///< Ablation: lowest-index cluster with a free slot.
};

std::string_view ToString(ClusterPolicy p);

/// Paper Section 5.1: cost = communication ops the placement would create,
/// a penalty for having no free slot in the dependence window, and soft
/// FU-usage / register-pressure balancing terms. Also the engine's
/// fallback for copies whose serving endpoint is not scheduled yet.
int BalancedCluster(const SchedState& st, NodeId u);

/// Lowest-index cluster with a free slot in the dependence window
/// (cluster 0 when none has one).
int FirstFitCluster(const SchedState& st, NodeId u);

/// The paper's spill-victim heuristic: maximize lifetime length per use
/// (long, rarely read values free the most registers per added memory/copy
/// op). `candidates` are already filtered to legal victims of the
/// overflowing bank; nullptr when there are none.
const sched::ValueLifetime* LongestPerUse(
    const std::vector<const sched::ValueLifetime*>& candidates);

}  // namespace hcrf::core
