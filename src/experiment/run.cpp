#include "experiment/run.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <unordered_map>
#include <utility>

#include "memsim/prefetch.h"
#include "obs/trace.h"
#include "perf/runner.h"
#include "perf/thread_pool.h"
#include "service/batch.h"
#include "service/session.h"
#include "workload/suite_cache.h"

namespace hcrf::experiment {

namespace {

/// Deterministic short rendering for report cells ("%.6g": enough digits
/// for the paper's precision, stable across cold/warm runs because the
/// underlying doubles are bit-identical).
std::string Fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return std::string(buf);
}

std::string FmtDelta(double v) {
  if (v > -1e-12 && v < 1e-12) v = 0.0;  // don't print rounding noise
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%+.6g", v);
  return std::string(buf);
}

/// Per-experiment expansion plan: the resolved workload plus, for every
/// (machine, engine, loop) cell, the index of its metric job.
struct Plan {
  const Experiment* def = nullptr;
  std::shared_ptr<const workload::Suite> owned;  ///< Slice storage.
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  std::vector<std::size_t> cell_job;
};

/// One metric derivation: perf::MetricsFromResult of a batch result. The
/// metrics read the schedule, the machine's latencies and the loop's node
/// count, all covered by the request's cache key, and the loop's trip and
/// invocation counts, which are not: two loops with one graph but
/// different profiles share a request. Cells share a job only when the
/// request, both counts and the memory flag agree.
struct MetricJob {
  std::size_t request = 0;
  const workload::Loop* loop = nullptr;      ///< The first cell's loop.
  const MachineConfig* machine = nullptr;    ///< The first cell's machine.
  bool simulate_memory = false;
};

std::vector<std::shared_ptr<const workload::Loop>> ResolveWorkload(
    const WorkloadSpec& spec, bool smoke,
    std::shared_ptr<const workload::Suite>* owned) {
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  if (spec.suite.empty()) return loops;
  const workload::Suite* base = workload::SharedSuiteByName(spec.suite);
  if (base == nullptr) {
    throw std::runtime_error("experiment references unknown suite '" +
                             spec.suite + "'");
  }
  std::size_t n = smoke ? spec.smoke_slice : spec.slice;
  if (smoke && spec.slice != 0 && spec.slice < n) n = spec.slice;
  if (n == 0 || n >= base->size()) {
    // Whole suite: the shared suites are process-static, so alias.
    loops.reserve(base->size());
    for (std::size_t i = 0; i < base->size(); ++i) {
      loops.emplace_back(std::shared_ptr<const void>(), &(*base)[i]);
    }
  } else {
    *owned =
        std::make_shared<const workload::Suite>(workload::SuiteSlice(*base, n));
    loops.reserve((*owned)->size());
    for (std::size_t i = 0; i < (*owned)->size(); ++i) {
      loops.emplace_back(*owned, &(**owned)[i]);
    }
  }
  return loops;
}

std::string LoopLabel(const workload::Loop& loop, std::size_t index) {
  return loop.ddg.name().empty() ? "loop-" + std::to_string(index)
                                 : loop.ddg.name();
}

}  // namespace

int ReproReport::RefChecks() const {
  int n = 0;
  for (const ExperimentResult& e : experiments) {
    n += static_cast<int>(e.refs.size());
  }
  return n;
}

int ReproReport::RefPasses() const {
  // Enforced passes only: non-enforced (n/a) refs are their own bucket,
  // so pass + fail + n/a partitions RefChecks().
  int n = 0;
  for (const ExperimentResult& e : experiments) {
    for (const RefCheck& c : e.refs) {
      if (c.enforced && c.passed) ++n;
    }
  }
  return n;
}

ReproReport RunExperiments(const std::vector<const Experiment*>& selection,
                           const ReproOptions& opt,
                           service::SchedulerService& session) {
  std::vector<const Experiment*> sel = selection;
  if (sel.empty()) {
    for (const Experiment& e : Registry()) sel.push_back(&e);
  }

  // Expand every scheduling cell of every experiment into one flat batch,
  // deduplicated by schedule-cache key (identical (loop, machine, options,
  // overrides) cells — within or across experiments — schedule once).
  // Each cell also names its metric job, deduplicated on the full tuple
  // the metrics depend on (see MetricJob). The cells' overrides and keys
  // are pure functions of the cell, so they are derived in one parallel
  // pass at the batch's width; deduplication then walks the cells in
  // order, so request order, ids and keys do not depend on the width.
  const auto expand_start = std::chrono::steady_clock::now();
  struct Cell {
    std::size_t plan = 0;
    std::size_t loop = 0;  ///< Index into the plan's loops.
    const MachineVariant* mv = nullptr;
    const EngineVariant* ev = nullptr;
    sched::LatencyOverrides overrides;
    std::string key;
  };
  std::vector<Plan> plans;
  std::vector<Cell> cells;
  for (const Experiment* def : sel) {
    Plan plan;
    plan.def = def;
    plan.loops = ResolveWorkload(def->workload, opt.smoke, &plan.owned);
    plan.cell_job.reserve(def->CellsPerLoop() * plan.loops.size());
    for (const MachineVariant& mv : def->machines) {
      for (const EngineVariant& ev : def->engines) {
        for (std::size_t l = 0; l < plan.loops.size(); ++l) {
          cells.push_back({plans.size(), l, &mv, &ev, {}, {}});
        }
      }
    }
    plans.push_back(std::move(plan));
  }
  perf::ParallelFor(
      perf::TaskPool::Shared(), cells.size(), session.batch_width(),
      [&](std::size_t c) {
        Cell& cell = cells[c];
        const workload::Loop& loop = *plans[cell.plan].loops[cell.loop];
        if (cell.ev->prefetch != memsim::PrefetchMode::kNone) {
          cell.overrides = memsim::ClassifyBindingPrefetch(
              loop.ddg, cell.mv->machine, loop.trip, cell.ev->prefetch);
        }
        cell.key = service::MakeCacheKey(loop.ddg, cell.mv->machine,
                                         cell.ev->options, cell.overrides)
                       .Hex();
      });

  std::vector<service::BatchRequest> requests;
  std::unordered_map<std::string, std::size_t> dedup;
  std::vector<MetricJob> jobs;
  std::map<std::tuple<std::size_t, long, long, bool>, std::size_t> job_of;
  for (Cell& cell : cells) {
    Plan& plan = plans[cell.plan];
    const std::shared_ptr<const workload::Loop>& loop = plan.loops[cell.loop];
    const auto [it, inserted] = dedup.emplace(cell.key, requests.size());
    if (inserted) {
      service::BatchRequest req;
      req.id = plan.def->name + "/" + cell.mv->label + "/" + cell.ev->label +
               "/" + LoopLabel(*loop, cell.loop);
      req.loop = loop;
      req.machine = cell.mv->machine;
      req.options = cell.ev->options;
      req.overrides = std::move(cell.overrides);
      requests.push_back(std::move(req));
    }
    const std::size_t request = it->second;
    const bool simulate_memory = cell.ev->simulate_memory;
    const auto [job, fresh] = job_of.emplace(
        std::make_tuple(request, loop->trip, loop->invocations,
                        simulate_memory),
        jobs.size());
    if (fresh) {
      jobs.push_back(
          {request, loop.get(), &cell.mv->machine, simulate_memory});
    }
    plan.cell_job.push_back(job->second);
  }
  // The keys are dead once deduplicated; free them before the batch.
  cells.clear();
  cells.shrink_to_fit();
  const double expand_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    expand_start)
          .count();

  service::BatchReport batch;
  if (!requests.empty()) batch = session.RunBatch(requests);

  ReproReport report;
  report.smoke = opt.smoke;
  report.requests = static_cast<int>(requests.size());
  report.scheduled = batch.scheduled;
  report.hits = batch.hits;
  report.expand_seconds = expand_seconds;
  report.seconds = batch.seconds;
  report.timing = batch.timing;

  // Derive every job's metrics in one parallel pass at the batch's width:
  // jobs are independent and deterministic, each writes only its own slot,
  // so the cells come out identical at any width. Metrics derive from the
  // schedule alone (cache-served results are bit-identical to fresh
  // ones), so a warm run reproduces the memory replay's stall cycles
  // exactly.
  std::vector<perf::LoopMetrics> job_metrics(jobs.size());
  {
    obs::TraceSpan span("experiment", "metrics");
    const auto t0 = std::chrono::steady_clock::now();
    perf::ParallelFor(
        perf::TaskPool::Shared(), jobs.size(), session.batch_width(),
        [&](std::size_t j) {
          const MetricJob& job = jobs[j];
          job_metrics[j] = perf::MetricsFromResult(
              *job.loop, *job.machine, batch.items[job.request].result,
              job.simulate_memory);
        });
    report.metrics_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  for (const MetricJob& job : jobs) {
    // A failed schedule has nothing to replay (MetricsFromResult returns
    // before the replay).
    if (job.simulate_memory && batch.items[job.request].result.ok) {
      ++report.replays;
    }
  }

  for (const Plan& plan : plans) {
    const Experiment* def = plan.def;
    ExperimentData data;
    data.def = def;
    data.smoke = opt.smoke;
    data.loops.reserve(plan.loops.size());
    for (const auto& loop : plan.loops) data.loops.push_back(loop.get());
    data.cells.reserve(plan.cell_job.size());
    for (const std::size_t j : plan.cell_job) {
      data.cells.push_back(job_metrics[j]);
    }

    ExperimentResult res;
    res.name = def->name;
    res.title = def->title;
    res.num_loops = plan.loops.size();
    res.cells = static_cast<int>(data.cells.size());
    for (const perf::LoopMetrics& lm : data.cells) {
      if (!lm.ok) ++res.cells_failed;
    }
    // Per-(machine, engine) failure accounting: every engine's failures
    // are counted and reported — never only one side of a comparison.
    for (std::size_t m = 0; m < def->machines.size(); ++m) {
      for (std::size_t e = 0; e < def->engines.size(); ++e) {
        int failed = 0;
        for (std::size_t l = 0; l < plan.loops.size(); ++l) {
          if (!data.At(m, e, l).ok) ++failed;
        }
        if (failed > 0) {
          res.failure_notes.push_back(
              def->machines[m].label + "/" + def->engines[e].label + ": " +
              std::to_string(failed) + " of " +
              std::to_string(plan.loops.size()) + " loops failed");
        }
      }
    }

    res.rows = def->aggregate != nullptr ? def->aggregate(data)
                                         : std::vector<MetricValue>{};

    std::map<std::pair<std::string, std::string>, double> row_values;
    for (const MetricValue& mv : res.rows) {
      row_values[{mv.row, mv.metric}] = mv.value;
    }
    for (const PaperRef* ref : RefsFor(def->name)) {
      RefCheck c;
      c.ref = ref;
      const auto it = row_values.find({ref->row, ref->metric});
      c.found = it != row_values.end();
      if (!c.found) {
        // A reference with no matching report row is a registry bug, not
        // a tolerance question: always enforced, always a failure.
        c.enforced = true;
        c.passed = false;
        c.verdict = "missing";
      } else {
        c.measured = it->second;
        c.delta = c.measured - ref->paper;
        c.passed = ref->Pass(c.measured);
        c.enforced = !(opt.smoke && ref->workload_dependent);
        c.verdict = !c.enforced ? "n/a" : (c.passed ? "pass" : "FAIL");
      }
      if (c.enforced && !c.passed) ++report.ref_failures;
      res.refs.push_back(std::move(c));
    }
    report.experiments.push_back(std::move(res));
  }
  return report;
}

std::string ReproCsv(const ReproReport& report) {
  std::string out = "experiment,row,metric,value,paper,delta,verdict\n";
  for (const ExperimentResult& e : report.experiments) {
    std::map<std::pair<std::string, std::string>, const RefCheck*> by_cell;
    for (const RefCheck& c : e.refs) {
      if (c.found) by_cell[{c.ref->row, c.ref->metric}] = &c;
    }
    for (const MetricValue& mv : e.rows) {
      out += e.name + "," + mv.row + "," + mv.metric + "," + Fmt(mv.value);
      const auto it = by_cell.find({mv.row, mv.metric});
      if (it != by_cell.end()) {
        const RefCheck& c = *it->second;
        out += "," + Fmt(c.ref->paper) + "," + FmtDelta(c.delta) + "," +
               c.verdict;
      } else {
        out += ",,,";
      }
      out += "\n";
    }
    for (const RefCheck& c : e.refs) {
      if (!c.found) {
        out += e.name + "," + c.ref->row + "," + c.ref->metric + ",," +
               Fmt(c.ref->paper) + ",,missing\n";
      }
    }
  }
  return out;
}

std::string ReproMarkdown(const ReproReport& report) {
  std::string out = "# Paper reproduction: conf_ipps_ZalameaLAV03\n\n";
  if (report.smoke) {
    out += "Smoke mode: bounded workload slices; workload-dependent "
           "reference values are reported as n/a.\n\n";
  }

  int pass = 0, fail = 0, na = 0;
  for (const ExperimentResult& e : report.experiments) {
    for (const RefCheck& c : e.refs) {
      if (c.verdict == "n/a") {
        ++na;
      } else if (c.found && c.passed) {
        ++pass;
      } else {
        ++fail;
      }
    }
  }
  out += std::to_string(report.experiments.size()) + " experiments, " +
         std::to_string(pass + fail + na) + " reference values: " +
         std::to_string(pass) + " pass, " + std::to_string(fail) +
         " fail, " + std::to_string(na) + " n/a.\n\n";

  out += "| experiment | loops | cells | failed cells | refs | pass | fail "
         "| n/a |\n|---|---|---|---|---|---|---|---|\n";
  for (const ExperimentResult& e : report.experiments) {
    int ep = 0, ef = 0, en = 0;
    for (const RefCheck& c : e.refs) {
      if (c.verdict == "n/a") {
        ++en;
      } else if (c.found && c.passed) {
        ++ep;
      } else {
        ++ef;
      }
    }
    out += "| " + e.name + " | " + std::to_string(e.num_loops) + " | " +
           std::to_string(e.cells) + " | " + std::to_string(e.cells_failed) +
           " | " + std::to_string(e.refs.size()) + " | " +
           std::to_string(ep) + " | " + std::to_string(ef) + " | " +
           std::to_string(en) + " |\n";
  }

  for (const ExperimentResult& e : report.experiments) {
    out += "\n## " + e.name + " — " + e.title + "\n\n";
    if (!e.failure_notes.empty()) {
      out += "Scheduling failures (failures are experiment data; rows are "
             "never dropped silently):\n";
      for (const std::string& note : e.failure_notes) {
        out += "* " + note + "\n";
      }
      out += "\n";
    }
    std::map<std::pair<std::string, std::string>, const RefCheck*> by_cell;
    for (const RefCheck& c : e.refs) {
      if (c.found) by_cell[{c.ref->row, c.ref->metric}] = &c;
    }
    out += "| row | metric | measured | paper | delta | verdict |\n"
           "|---|---|---|---|---|---|\n";
    for (const MetricValue& mv : e.rows) {
      out += "| " + mv.row + " | " + mv.metric + " | " + Fmt(mv.value);
      const auto it = by_cell.find({mv.row, mv.metric});
      if (it != by_cell.end()) {
        const RefCheck& c = *it->second;
        out += " | " + Fmt(c.ref->paper) + " | " + FmtDelta(c.delta) +
               " | " + c.verdict + " |\n";
      } else {
        out += " | - | - | - |\n";
      }
    }
    for (const RefCheck& c : e.refs) {
      if (!c.found) {
        out += "| " + c.ref->row + " | " + c.ref->metric + " | - | " +
               Fmt(c.ref->paper) + " | - | missing |\n";
      }
    }
  }
  return out;
}

}  // namespace hcrf::experiment
