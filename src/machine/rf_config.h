// Register-file organization descriptor: the paper's xCy-Sz taxonomy.
//
// A configuration has x clusters of y registers each plus an optional shared
// second-level bank of z registers:
//   * "S128"     - monolithic: one shared bank feeds all FUs and mem ports;
//   * "4C32"     - pure clustered: 4 banks of 32 registers, FUs and memory
//                  ports split evenly among the clusters, inter-cluster
//                  communication over buses (Move operations);
//   * "1C64S64"  - hierarchical (non-clustered): all FUs on one 64-register
//                  first-level bank, a 64-register shared bank above it owns
//                  the memory ports (LoadR/StoreR traffic between levels);
//   * "4C16S64"  - hierarchical clustered: the paper's proposal.
//
// `lp` and `sp` are the per-cluster-bank input (LoadR) and output (StoreR)
// port counts towards the shared bank; for pure clustered organizations they
// are the per-bank bus-input/bus-output port counts used by Move operations.
#pragma once

#include <limits>
#include <string>
#include <string_view>

namespace hcrf {

/// The four organization families distinguished by the paper.
enum class RFKind {
  kMonolithic,            ///< Sz: one shared bank, no clusters.
  kClustered,             ///< xCy: clusters only, bus communication.
  kHierarchical,          ///< 1CySz: one cluster plus shared bank.
  kHierarchicalClustered  ///< xCySz, x>1: the proposed organization.
};

std::string_view ToString(RFKind kind);

/// Number of read/write ports of one physical register bank; the input to
/// the hardware timing/area model.
struct BankPorts {
  int reads = 0;
  int writes = 0;
  int Total() const { return reads + writes; }
};

/// A parsed register-file configuration.
///
/// Register counts may be `kUnbounded` to reproduce the paper's "infinite
/// registers" static experiments (Table 3, Figure 4); port counts may be
/// `kUnbounded` for the unbounded-bandwidth columns.
struct RFConfig {
  /// Sentinel for "infinite" capacities/bandwidth in static experiments.
  static constexpr int kUnbounded = std::numeric_limits<int>::max() / 4;

  int clusters = 0;      ///< x; 0 for a monolithic organization.
  int cluster_regs = 0;  ///< y, registers per first-level bank.
  int shared_regs = 0;   ///< z, registers in the shared bank (0 = none).
  int lp = 0;            ///< LoadR (bank-input) ports per cluster bank.
  int sp = 0;            ///< StoreR (bank-output) ports per cluster bank.
  /// Number of inter-cluster buses for pure clustered organizations.
  /// The paper does not publish nb; we default to max(1, x/2), which
  /// reproduces Table 1's qualitative effect (clustering converts
  /// compute-bound loops into communication-bound ones). Exposed as an
  /// ablation knob (the `ablation_buses` experiment, `hcrf_sched repro`).
  int buses = 0;

  RFKind Kind() const;

  bool IsMonolithic() const { return clusters == 0; }
  bool HasSharedBank() const { return shared_regs > 0 || clusters == 0; }
  bool HasClusters() const { return clusters > 0; }
  /// Pure clustered organization: communication by Move over buses and the
  /// memory ports are distributed among the clusters.
  bool IsPureClustered() const { return clusters > 0 && shared_regs == 0; }
  /// Any organization with a shared bank above cluster banks (LoadR/StoreR).
  bool IsHierarchical() const { return clusters > 0 && shared_regs > 0; }

  bool UnboundedClusterRegs() const { return cluster_regs >= kUnbounded; }
  bool UnboundedSharedRegs() const { return shared_regs >= kUnbounded; }
  bool UnboundedPorts() const { return lp >= kUnbounded || sp >= kUnbounded; }

  /// Parses the paper's notation. Accepts:
  ///   "S128", "4C32", "1C64S64", "4C16S64"
  ///   "inf" for any register count ("Sinf", "2CinfSinf", "4Cinf"),
  ///   an optional "/lp-sp" suffix ("1C64S32/3-2"); "inf" also allowed
  ///   there ("2CinfSinf/inf-inf").
  /// Without a suffix, DefaultLp/DefaultSp for the cluster count are used.
  /// Throws std::invalid_argument on malformed names.
  static RFConfig Parse(std::string_view name);

  /// Canonical name in the paper's notation ("4C16S64/2-1").
  std::string Name() const;
  /// Name without the port suffix ("4C16S64"), as printed in paper tables.
  std::string ShortName() const;

  /// The paper's design rule (Section 4, Figure 4): ports chosen so >95% of
  /// loops are not communication limited: 1 cluster -> lp=4 sp=2,
  /// 2 -> 3/1, 4 -> 2/1, 8 -> 1/1. Pure clustered organizations use 1/1.
  static int DefaultLp(int clusters, bool hierarchical);
  static int DefaultSp(int clusters, bool hierarchical);

  /// Port counts of a first-level (cluster) bank given the machine shape.
  /// Reads: 2 per FU in the cluster (+1 per local memory port in pure
  /// clustered organizations) + sp outputs. Writes: 1 per FU (+1 per local
  /// memory port in pure clustered) + lp inputs.
  BankPorts ClusterBankPorts(int num_fus, int num_mem_ports) const;

  /// Port counts of the shared bank.
  /// Monolithic: 2 reads/FU + 1 read/mem port; 1 write/FU + 1 write/port.
  /// Hierarchical: x*lp reads + mem-port reads (stores); x*sp writes +
  /// mem-port writes (loads).
  BankPorts SharedBankPorts(int num_fus, int num_mem_ports) const;

  /// Total registers across all banks (the paper compares equal-capacity
  /// organizations in Section 3). Unbounded counts saturate at kUnbounded.
  long TotalRegs() const;

  bool operator==(const RFConfig&) const = default;
};

}  // namespace hcrf
