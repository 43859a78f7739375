// Performance metrics (paper Section 2.3):
//   ExecCycles = II * (N + (SC-1) * E) + StallCycles
//   MemTraffic = N * trf    (trf = memory ops per iteration, incl. spill)
//   ExecTime   = ExecCycles * clock
// plus the aggregate suite metrics the paper's tables report: sum of II,
// fraction of loops scheduled at MII, bound-class breakdown, IPC.
#pragma once

#include <array>
#include <vector>

#include "core/mirs.h"
#include "machine/machine_config.h"

namespace hcrf::perf {

struct LoopMetrics {
  bool ok = false;
  int ii = 0;
  int sc = 0;
  int mii = 0;
  core::BoundClass bound = core::BoundClass::kFU;
  long useful_cycles = 0;  ///< II*(N + (SC-1)*E).
  long stall_cycles = 0;   ///< From the memory simulation (0 when ideal).
  long mem_traffic = 0;    ///< N * trf.
  int trf = 0;             ///< Memory ops per iteration in the final graph.
  long ops_executed = 0;   ///< Original (useful) ops * N, for IPC.
  int comm_ops = 0;
  int loadr_ops = 0;   ///< LoadR nodes (shared->cluster copies).
  int storer_ops = 0;  ///< StoreR nodes (cluster->shared copies).
  int spill_memory_ops = 0;

  // Scheduler-effort counters (core::ScheduleStats, see instrument.h).
  long ejections = 0;       ///< Force-and-eject victims.
  int spills_inserted = 0;  ///< Spill decisions (incl. reg-to-reg).
  int ii_restarts = 0;      ///< Achieved II minus MII.
  double budget_spent = 0;  ///< Attempts charged against the budget.

  long ExecCycles() const { return useful_cycles + stall_cycles; }
};

struct SuiteMetrics {
  int num_loops = 0;
  int failed = 0;
  long sum_ii = 0;           ///< The paper's Sigma-II.
  int loops_at_mii = 0;
  long useful_cycles = 0;
  long stall_cycles = 0;
  long mem_traffic = 0;
  long ops_executed = 0;

  // Aggregated scheduler-effort counters (over scheduled loops).
  long ejections = 0;
  long spills_inserted = 0;
  long ii_restarts = 0;
  double budget_spent = 0;

  /// Per bound class: [FU, MemPort, Rec, Comm] loop counts and cycles.
  std::array<int, 4> bound_count{};
  std::array<long, 4> bound_cycles{};

  long ExecCycles() const { return useful_cycles + stall_cycles; }
  double PctAtMII() const {
    return num_loops > 0 ? 100.0 * loops_at_mii / num_loops : 0.0;
  }
  double IPC() const {
    return ExecCycles() > 0
               ? static_cast<double>(ops_executed) / ExecCycles()
               : 0.0;
  }
  double ExecTimeSeconds(double clock_ns) const {
    return static_cast<double>(ExecCycles()) * clock_ns * 1e-9;
  }
};

SuiteMetrics Aggregate(const std::vector<LoopMetrics>& loops);

}  // namespace hcrf::perf
