// Shared mutable state of one II attempt of the iterative engine.
//
// Everything the engine layers (driver, cluster/spill policies,
// communication rewriter, spill engine) read and write while scheduling
// lives here: the working graph (original nodes plus inserted
// communication/spill copies), the partial schedule and reservation table,
// the priority list, and the per-node bookkeeping that force-and-eject
// needs (last placement cycle, ejection counts). The layers communicate
// only through this state and the NodePlacer interface (comm_rewrite.h), so
// each can be tested in isolation.
#pragma once

#include <limits>
#include <memory>
#include <queue>
#include <utility>
#include <vector>

#include "ddg/ddg.h"
#include "machine/machine_config.h"
#include "sched/lifetime.h"
#include "sched/mrt.h"
#include "sched/pressure_tracker.h"
#include "sched/schedule.h"

namespace hcrf::core {

inline constexpr int kNoCycle = std::numeric_limits<int>::min();

/// Dependence window of a node w.r.t. its scheduled neighbours.
struct Window {
  int early = kNoCycle;  ///< max over scheduled predecessors.
  int late = kNoCycle;   ///< min over scheduled successors (kNoCycle=none).
  bool has_pred = false;
  bool has_succ = false;
};

struct SchedState {
  explicit SchedState(const MachineConfig& machine) : m(machine) {}

  // Non-copyable: the layers hold references into this state.
  SchedState(const SchedState&) = delete;
  SchedState& operator=(const SchedState&) = delete;

  /// Rebuilds the state for a fresh attempt at the given II: working graph
  /// reset to the original, empty schedule/MRT, bookkeeping cleared. The
  /// caller (engine driver) fills in priorities and the unscheduled set
  /// from its ordering policy. `incremental` selects the incremental
  /// pressure tracker + indexed priority pick; false is the reference path
  /// (full ComputePressure per spill check, linear priority scan) that the
  /// tests run to prove both produce bit-identical schedules.
  void Reset(const DDG& original, const sched::LatencyOverrides& base, int ii,
             bool use_incremental = true);

  int ii() const { return sched->ii(); }

  /// Dependence latency of an edge under the active latency overrides.
  int LatOf(const Edge& e) const {
    return sched::DependenceLatency(g, e, m.lat, overrides);
  }

  Window ComputeWindow(NodeId u) const;

  /// Grows the per-node arrays to cover `id` (newly inserted nodes).
  void GrowTo(NodeId id);

  void MarkUnscheduled(NodeId v);
  void MarkScheduled(NodeId v);

  /// Schedule-mutation funnels: every placement and removal goes through
  /// these so the incremental pressure tracker and the per-cluster usage
  /// counters can never miss a delta.
  void Assign(NodeId u, sched::Placement p) {
    sched->Assign(u, p);
    BumpClusterUse(u, p.cluster, +1);
    pressure.OnPlaced(u);
  }
  void Unassign(NodeId u) {
    if (!sched->IsScheduled(u)) return;
    const int cluster = sched->ClusterOf(u);
    sched->Unassign(u);
    BumpClusterUse(u, cluster, -1);
    pressure.OnUnplaced(u);
  }

  /// Removes `v` from the MRT and schedule, remembering its last cycle so a
  /// forced re-placement makes progress.
  void Unplace(NodeId v);

  NodeId PickHighestPriority() const;

  /// True for scheduler-inserted communication chain nodes (owned by the
  /// communication rewriter; spill copies are not chain nodes).
  bool IsCommChainNode(NodeId v) const {
    const Node& n = g.node(v);
    return IsCommunication(n.op) && n.inserted && !n.spill;
  }

  // ---- immutable over the attempt --------------------------------------
  const MachineConfig& m;

  // ---- per-attempt state -----------------------------------------------
  DDG g;
  sched::LatencyOverrides overrides;
  std::unique_ptr<sched::ModuloReservationTable> mrt;
  std::unique_ptr<sched::PartialSchedule> sched;
  std::vector<double> priority;
  std::vector<char> unscheduled;
  int num_unscheduled = 0;
  std::vector<int> prev_cycle;  ///< Last placement cycle (kNoCycle = never).
  std::vector<long> eject_count;
  bool churning = false;  ///< Livelocked eject ping-pong detected.

  /// Scheduled compute ops / cluster-bank defs per cluster, maintained by
  /// the Assign/Unassign funnels. The balanced cluster selector's soft
  /// balancing terms used to rescan every slot per selection; these are
  /// the same sums kept incrementally.
  std::vector<int> cluster_fu_use;
  std::vector<int> cluster_defs;

  /// Incremental per-bank MaxLive (attached to `g`/`sched` while
  /// `incremental` is set; detached and inert on the reference path).
  sched::PressureTracker pressure;
  /// Incremental fast paths enabled (see Reset).
  bool incremental = true;
  /// Use the lazy pick-heap instead of the linear priority scan. Both pick
  /// the same node always; the heap only pays off once the linear scan has
  /// enough slots to walk, so small graphs keep the scan (set by Reset).
  bool indexed_pick = false;

 private:
  void BumpClusterUse(NodeId u, int cluster, int delta) {
    if (cluster < 0 || static_cast<size_t>(cluster) >= cluster_fu_use.size()) {
      return;
    }
    const OpClass op = g.node(u).op;
    if (IsCompute(op)) cluster_fu_use[static_cast<size_t>(cluster)] += delta;
    if (DefinesValue(op) &&
        sched::DefBank(op, cluster, m.rf) == static_cast<sched::BankId>(cluster)) {
      cluster_defs[static_cast<size_t>(cluster)] += delta;
    }
  }

  /// Lazy max-heap over (priority, node): top is the highest-priority,
  /// lowest-id unscheduled node — exactly what the reference linear scan
  /// picks. Entries are pushed by MarkUnscheduled and validated against
  /// the live state on pop, so stale entries (scheduled or tombstoned
  /// since) are simply discarded.
  struct PickOrder {
    bool operator()(const std::pair<double, NodeId>& a,
                    const std::pair<double, NodeId>& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second > b.second;
    }
  };
  mutable std::priority_queue<std::pair<double, NodeId>,
                              std::vector<std::pair<double, NodeId>>,
                              PickOrder>
      pick_heap_;
};

}  // namespace hcrf::core
