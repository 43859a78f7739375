// Shared pieces of the benchmark program (see bench.h): order statistics,
// metric output, the repro request expansion and the seeded per-request
// layer replay of the traced run.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <unordered_set>

#include "bench.h"
#include "ddg/mii.h"
#include "experiment/experiment.h"
#include "io/hcl.h"
#include "memsim/prefetch.h"
#include "sched/ordering.h"
#include "sched/validate.h"
#include "service/cache_tier.h"
#include "service/sched_cache.h"
#include "workload/suite_cache.h"

namespace perfbench {

using namespace hcrf;

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void MetricSet::Set(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) value = 0.0;  // JSON has no NaN/Inf.
  if (values_.find(name) == values_.end()) order_.push_back(name);
  values_[name] = {value, unit};
}

std::string MetricSet::Json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const auto& [value, unit] = values_.at(order_[i]);
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += (i > 0 ? ", \"" : "\"") + order_[i] + "\": {\"value\": " + buf +
           ", \"unit\": \"" + unit + "\"}";
  }
  return out + "}";
}

std::string MetricSet::Table() const {
  std::string out;
  for (const std::string& name : order_) {
    const auto& [value, unit] = values_.at(name);
    char buf[160];
    std::snprintf(buf, sizeof(buf), "  %-36s %14.6g %s\n", name.c_str(), value,
                  unit.c_str());
    out += buf;
  }
  return out;
}

std::vector<service::BatchRequest> ExpandReproRequests(bool smoke) {
  std::vector<service::BatchRequest> requests;
  std::unordered_set<std::string> seen;
  for (const experiment::Experiment& def : experiment::Registry()) {
    const experiment::WorkloadSpec& spec = def.workload;
    if (spec.suite.empty()) continue;
    const workload::Suite* base = workload::SharedSuiteByName(spec.suite);
    std::size_t n = smoke ? spec.smoke_slice : spec.slice;
    if (smoke && spec.slice != 0 && spec.slice < n) n = spec.slice;
    std::shared_ptr<const workload::Suite> suite;
    if (n == 0 || n >= base->size()) {
      suite = std::shared_ptr<const workload::Suite>(
          std::shared_ptr<const void>(), base);
    } else {
      suite = std::make_shared<const workload::Suite>(
          workload::SuiteSlice(*base, n));
    }
    for (const experiment::MachineVariant& mv : def.machines) {
      for (const experiment::EngineVariant& ev : def.engines) {
        for (std::size_t l = 0; l < suite->size(); ++l) {
          service::BatchRequest req;
          req.loop = std::shared_ptr<const workload::Loop>(suite, &(*suite)[l]);
          req.id = def.name + "/" + mv.label + "/" + ev.label + "/" +
                   req.loop->ddg.name();
          req.machine = mv.machine;
          req.options = ev.options;
          if (ev.prefetch != memsim::PrefetchMode::kNone) {
            req.overrides = memsim::ClassifyBindingPrefetch(
                req.loop->ddg, mv.machine, req.loop->trip, ev.prefetch);
          }
          const std::string key =
              service::MakeCacheKey(req.loop->ddg, req.machine, req.options,
                                    req.overrides)
                  .Hex();
          if (seen.insert(key).second) requests.push_back(std::move(req));
        }
      }
    }
  }
  return requests;
}

ReplayResult Replay(const std::vector<service::BatchRequest>& population,
                    std::size_t count, std::uint64_t seed,
                    const std::string& cache_dir, SpanLog& log) {
  ReplayResult out;
  if (population.empty()) return out;
  service::DiskTier disk(cache_dir);
  service::MemoryTier::Config mc;
  mc.max_entries = static_cast<long>(count) + 1;
  service::MemoryTier memory(mc);
  // Draws without replacement: the population is deduplicated by cache
  // key, so every first Get below is a genuine miss.
  Rng rng(seed ^ 0x7265706c6179ull);
  count = std::min(count, population.size());
  std::vector<std::size_t> picks;
  std::unordered_set<std::size_t> picked;
  while (picks.size() < count) {
    const std::size_t i = rng.Below(population.size());
    if (picked.insert(i).second) picks.push_back(i);
  }

  for (std::size_t r = 0; r < count; ++r) {
    const service::BatchRequest& req = population[picks[r]];
    const long id = static_cast<long>(r);
    const DDG& g = req.loop->ddg;
    bool ok = true;
    ScopedSpan request_span(log, "replay.request", id);
    {
      ScopedSpan s(log, "service.wire.encode", id);
      const std::string docs = io::DumpLoop(*req.loop) +
                               io::DumpMachine(req.machine) +
                               io::DumpOptions(req.options);
      ok = ok && !docs.empty();
    }
    service::CacheKey key;
    {
      ScopedSpan s(log, "service.MakeCacheKey", id);
      key = service::MakeCacheKey(g, req.machine, req.options, req.overrides);
    }
    {
      ScopedSpan s(log, "service.cache.disk_get_miss", id);
      ok = ok && !disk.Get(key).has_value();
    }
    MIIInfo mii;
    {
      ScopedSpan s(log, "ddg.ComputeMII", id);
      mii = ComputeMII(g, req.machine);
    }
    {
      ScopedSpan s(log, "sched.HrmsOrder", id);
      const std::vector<NodeId> order = sched::HrmsOrder(g, req.machine.lat);
      ok = ok && static_cast<int>(order.size()) == g.NumNodes();
    }
    core::MirsOptions mirs = req.options;
    mirs.precomputed_mii = mii;
    core::ScheduleResult result;
    {
      ScopedSpan s(log, "core.MirsHC", id);
      const Clock::time_point t0 = Clock::now();
      result = core::MirsHC(g, req.machine, mirs, req.overrides);
      out.mirs_s.push_back(SecondsSince(t0));
    }
    out.attempts += result.stats.attempts;
    if (result.ok) {
      ScopedSpan s(log, "sched.Validate", id);
      ok = ok && sched::Validate(result.graph, result.schedule, req.machine,
                                 result.overrides)
                     .ok;
      out.placements += result.schedule.NumScheduled();
    }
    std::string dump;
    {
      ScopedSpan s(log, "io.DumpResult", id);
      dump = io::DumpResult(result);
    }
    out.result_bytes += static_cast<long>(dump.size());
    {
      ScopedSpan s(log, "service.cache.disk_put", id);
      disk.Put(key, result);
    }
    {
      ScopedSpan s(log, "service.cache.mem_put", id);
      memory.Put(key, result);
    }
    {
      ScopedSpan s(log, "service.cache.disk_get_hit", id);
      std::optional<core::ScheduleResult> hit = disk.Get(key);
      ok = ok && hit.has_value() && hit->ii == result.ii;
    }
    {
      ScopedSpan s(log, "service.cache.mem_get_hit", id);
      std::optional<core::ScheduleResult> hit = memory.Get(key);
      ok = ok && hit.has_value() && hit->ii == result.ii;
    }
    core::ScheduleResult parsed;
    {
      ScopedSpan s(log, "io.ParseResult", id);
      const Clock::time_point t0 = Clock::now();
      parsed = io::ParseResult(dump, "<replay>");
      out.parse_s += SecondsSince(t0);
    }
    ok = ok && io::DumpResult(parsed) == dump;
    ++out.requests;
    if (!ok) ++out.failed;
  }
  return out;
}

}  // namespace perfbench
