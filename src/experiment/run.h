// Experiment runner: executes registered experiments through the batch
// scheduling service and renders the paper-reproduction report.
//
// All scheduling cells of the selected experiments are expanded into ONE
// flat service::RunBatch call — deduplicated by schedule-cache key, so a
// cell shared between experiments (e.g. the characterized S128 baseline
// appears in Tables 1 and 6) is scheduled once — and backed by the
// persistent DiskTier: a warm rerun of the whole paper is served
// from disk. Binding-prefetch cells carry their per-loop latency
// overrides in the BatchRequest (part of the cache key). After the batch,
// the per-cell metrics (memory-system stall cycles included) are derived
// in one parallel pass at the batch's width, once per distinct (request,
// trip, invocations, memory) job: cells that share a job share its
// deterministic result.
//
// Reports are deterministic: rows, reference deltas and verdicts only, no
// timings or cache flags — a cold and a warm run emit byte-identical CSV
// and markdown, which is the subsystem's acceptance check (`repro
// --smoke` and CI enforce it).
#pragma once

#include <string>
#include <vector>

#include "experiment/experiment.h"
#include "experiment/paper_ref.h"
#include "service/batch.h"
#include "service/sched_cache.h"

namespace hcrf::service {
class SchedulerService;
}

namespace hcrf::experiment {

/// Per-call options; the cache stack and the parallelism are the
/// session's (service::ServiceConfig).
struct ReproOptions {
  /// Not read by RunExperiments: the session sets every width
  /// (SchedulerService::batch_width). Kept only because perfbench sets it
  /// to its session's ServiceConfig::threads.
  int threads = 0;
  /// Run each experiment on its bounded smoke slice instead of the full
  /// workload. Workload-dependent reference values are reported but not
  /// enforced (the slice shifts them by construction).
  bool smoke = false;
};

/// One reference value checked against a report row.
struct RefCheck {
  const PaperRef* ref = nullptr;
  double measured = 0.0;
  double delta = 0.0;   ///< measured - paper.
  bool found = false;   ///< The aggregation emitted the (row, metric).
  bool enforced = false;  ///< Counts toward ref_failures when failing.
  bool passed = false;
  /// "pass", "FAIL", "n/a" (workload-dependent ref on a smoke slice) or
  /// "missing" (no matching report row; always a failure).
  std::string verdict;
};

struct ExperimentResult {
  std::string name;
  std::string title;
  std::size_t num_loops = 0;
  int cells = 0;       ///< Scheduling cells (0 for hardware-model-only).
  int cells_failed = 0;
  /// Per-(machine, engine) scheduling-failure accounting: one line per
  /// variant with failures ("<machine>/<engine>: N of L loops failed").
  /// Failures are experiment data, never silently dropped rows.
  std::vector<std::string> failure_notes;
  std::vector<MetricValue> rows;
  std::vector<RefCheck> refs;  ///< In paper_ref table order.
};

struct ReproReport {
  bool smoke = false;
  std::vector<ExperimentResult> experiments;
  /// Batch/cache run metadata (stdout summary only; never in reports).
  service::TierStats cache;
  int requests = 0;   ///< Deduplicated scheduling requests dispatched.
  int scheduled = 0;  ///< Fresh MirsHC runs.
  int hits = 0;       ///< Requests served from the persistent cache.
  int ref_failures = 0;  ///< Enforced reference values out of tolerance.
  double seconds = 0.0;  ///< The scheduling batch only.
  /// The parallel metric-derivation pass after the batch (memory replays
  /// included).
  double metrics_seconds = 0.0;
  /// Memory replays run: distinct (request, trip, invocations) among the
  /// cells that simulate memory and whose schedule succeeded.
  int replays = 0;
  /// Summed per-request phase timings of the scheduling batch (stdout
  /// summary only, like `cache`: reports stay byte-identical cold/warm).
  service::RequestTiming timing;

  int RefChecks() const;
  int RefPasses() const;
};

/// Runs the selected experiments (every registry entry when `selection`
/// is empty) through `session`. Throws on an unknown suite name; per-cell
/// scheduling failures are data and surface in the results. report.cache
/// is the per-call delta; disk writes may still be in flight at return
/// (session.Drain() for exact totals).
ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt,
                           service::SchedulerService& session);

/// Deterministic renderings (identical cold and warm).
/// CSV: experiment,row,metric,value,paper,delta,verdict — one line per
/// report row, plus a line per unmatched reference value.
std::string ReproCsv(const ReproReport& report);
std::string ReproMarkdown(const ReproReport& report);

}  // namespace hcrf::experiment
