// The repository benchmark program. Links the hcrf library and times calls
// into its public functions from outside.
//
//   perfbench --workload <repro_cold|repro_warm|daemon_mixed>
//             --seed N --seconds S --trace 0|1 [--tiny]
//             [--serve-binary PATH/hcrf_sched]
//   perfbench --fill-warm-tier [--tiny]
//
// Each workload has a fixed unit of work (one "iteration"); a run repeats
// it while one more still fits in --seconds (always at least once) and
// reports medians over the iterations. daemon_mixed drives `hcrf_sched serve` in a
// child process. --trace 0 prints the end-to-end metrics; --trace 1 runs one
// traced iteration (daemon_mixed: one untraced and one traced, for the
// client latency figures) plus the seeded per-request layer replay, and
// prints the per-layer metrics. The last line of stdout is the
// JSON result object. Run state lives under .bench_run/ in the working
// directory (the checkout root). See README.md for the metric map.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "experiment/run.h"
#include "io/hcl.h"
#include "obs/metrics.h"
#include "perf/runner.h"
#include "sched/validate.h"
#include "service/client.h"
#include "service/sched_cache.h"
#include "service/session.h"
#include "service/sweep.h"
#include "workload/kernels.h"
#include "workload/perfect_synth.h"
#include "workload/suite_cache.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using namespace hcrf;

constexpr const char* kRunRoot = ".bench_run";
constexpr const char* kOrgSpec = "corpus/sweeps/paper-organizations.hcl";
/// Setup repetitions whose median is setup_s.
constexpr int kSetupReps = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string serve_binary;  ///< hcrf_sched, for the daemon under test.
  std::string self;  ///< This program, to run the repro_warm tier fill.
  bool fill_warm_tier = false;
};

/// Everything one run accumulates.
struct Run {
  Args args;
  int threads = 1;
  MetricSet metrics;
  long attempted = 0;
  long failed = 0;
  bool correct = true;
  SpanLog spans;
  fs::path dir;  ///< .bench_run/<workload>

  void Fail(const std::string& why) {
    correct = false;
    std::printf("CHECK FAILED: %s\n", why.c_str());
  }
};

// ---------------------------------------------------------------------------
// Process and registry probes
// ---------------------------------------------------------------------------

/// Peak resident memory of this process.
double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

/// CPU time of this process and its exited children.
double CpuSeconds() {
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  double total = 0;
  for (const int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage ru{};
    getrusage(who, &ru);
    total += sec(ru.ru_utime) + sec(ru.ru_stime);
  }
  return total;
}

/// The obs registry counters the benchmark reads as deltas around calls.
const std::vector<std::string>& ObsCounterNames() {
  static const std::vector<std::string> names = {
      "engine.attempts",      "engine.ejections",     "engine.force_places",
      "engine.restarts",      "engine.spills_inserted", "engine.chains_built",
      "engine.chains_undone", "engine.warm.used",
      "engine.warm.fallback", "mii_cache.hits",       "mii_cache.misses",
      "service.requests",     "service.cache_hits",   "sched_cache.rejects",
      "mem_cache.near_hits",  "mem_cache.near_misses", "server.busy"};
  return names;
}

struct ObsSnapshot {
  std::map<std::string, long> counters;
  double request_seconds = 0;  ///< service.request_seconds histogram sum.
  double cpu_s = 0;
  Clock::time_point at;

  static ObsSnapshot Take() {
    ObsSnapshot s;
    for (const std::string& n : ObsCounterNames()) {
      s.counters[n] = obs::GetCounter(n).value();
    }
    s.request_seconds =
        obs::GetHistogram("service.request_seconds").sum_seconds();
    s.cpu_s = CpuSeconds();
    s.at = Clock::now();
    return s;
  }
};

/// A number following `"key": ` in `json` after position `from`; 0 when
/// absent. Enough for the registry dump's flat, deterministic layout.
double JsonNumber(const std::string& json, const std::string& key,
                  std::size_t from = 0) {
  const std::size_t at = json.find("\"" + key + "\": ", from);
  if (at == std::string::npos) return 0.0;
  return std::strtod(json.c_str() + at + key.size() + 4, nullptr);
}

/// The same snapshot read from a daemon's `stats` reply (its own registry).
ObsSnapshot SnapshotFromStats(const std::string& json) {
  ObsSnapshot s;
  for (const std::string& n : ObsCounterNames()) {
    s.counters[n] = static_cast<long>(JsonNumber(json, n));
  }
  const std::size_t hist = json.find("\"service.request_seconds\"");
  if (hist != std::string::npos) {
    s.request_seconds = JsonNumber(json, "sum_seconds", hist);
  }
  s.cpu_s = CpuSeconds();
  s.at = Clock::now();
  return s;
}

struct ObsDelta {
  std::map<std::string, long> counters;
  double request_seconds = 0;
  double cpu_s = 0;
  double wall_s = 0;

  ObsDelta() = default;
  ObsDelta(const ObsSnapshot& a, const ObsSnapshot& b) {
    // A counter that went backwards belongs to a restarted daemon: count
    // what the new one did.
    for (const auto& [name, v] : b.counters) {
      const long before = a.counters.at(name);
      counters[name] = v >= before ? v - before : v;
    }
    request_seconds = b.request_seconds >= a.request_seconds
                          ? b.request_seconds - a.request_seconds
                          : b.request_seconds;
    cpu_s = b.cpu_s - a.cpu_s;
    wall_s = std::chrono::duration<double>(b.at - a.at).count();
  }
  double operator[](const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : static_cast<double>(it->second);
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// CPU time the hypervisor gave to other guests ("steal") while the host's
/// vCPUs wanted to run, as a share of all CPU time since Start(). On a
/// shared host it comes in episodes, and during one the daemon's
/// sub-millisecond round trips slowed 2-3x (one run: 25% steal, iteration
/// walls 4.5-5.3 s against 1.6-2.0 s). 0 where /proc/stat is absent.
class HostSteal {
 public:
  void Start() { Read(&steal_, &total_); }
  double Share() const {
    long steal = 0;
    long total = 0;
    Read(&steal, &total);
    return Ratio(static_cast<double>(steal - steal_), static_cast<double>(total - total_));
  }

 private:
  /// The aggregate "cpu" line: user nice system idle iowait irq softirq
  /// steal ... (USER_HZ ticks).
  static void Read(long* steal, long* total) {
    std::ifstream in("/proc/stat");
    std::string cpu;
    in >> cpu;
    *steal = 0;
    *total = 0;
    for (int f = 0; f < 8 && in; ++f) {
      long v = 0;
      in >> v;
      *total += v;
      if (f == 7) *steal = v;
    }
  }

  long steal_ = 0;
  long total_ = 0;
};

/// Iterations with more steal than this are disturbed: measured and
/// printed, but left out of wall_s; when fewer than kMinSteady are
/// undisturbed, wall_s takes the kMinSteady least disturbed.
constexpr double kMaxSteal = 0.05;
constexpr std::size_t kMinSteady = 3;

// ---------------------------------------------------------------------------
// Helpers shared by the workloads
// ---------------------------------------------------------------------------

void ResetDir(const fs::path& p) {
  fs::remove_all(p);
  fs::create_directories(p);
}

/// Whether one more iteration, taking as long as the `done` ones since
/// `start` did on average, ends within `seconds`: a run measures for at
/// most --seconds (or one iteration, when that is longer).
bool NextIterationFits(Clock::time_point start, int done, double seconds) {
  const double elapsed = SecondsSince(start);
  return elapsed + elapsed / done <= seconds;
}

/// Commits the filesystem's pending work (dirty pages, journal, the
/// deletes of a previous iteration's tier) before a timed section, so a
/// run does not pay for the last one's writes. Untimed.
void Settle() { ::sync(); }

std::uint64_t Fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex64(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// The first repro run in a checkout records the repro.csv digest; every
/// later iteration and run, of either repro workload, must match it.
void CheckCsvDigest(Run& run, const std::string& csv) {
  const fs::path file = fs::path(kRunRoot) /
                        (run.args.tiny ? "repro-smoke.csv.digest"
                                       : "repro.csv.digest");
  const std::string digest = Hex64(Fnv1a(csv));
  std::ifstream in(file);
  std::string recorded;
  if (in >> recorded) {
    if (recorded != digest) {
      run.Fail("repro.csv digest " + digest + " differs from the recorded " +
               recorded + " (" + file.string() + ")");
    }
    return;
  }
  const fs::path tmp = file.string() + ".tmp";
  std::ofstream(tmp) << digest << "\n";
  fs::rename(tmp, file);
  std::printf("recorded repro.csv digest %s\n", digest.c_str());
}

/// Geometric-mean II/MII over a fixed stride sample of the requests a
/// repro tier holds: the schedule quality of the batch. Reads happen after
/// the timed work.
double ReproIiOverMii(const std::vector<service::BatchRequest>& requests,
                      service::CacheTier& tier, Run& run) {
  const std::size_t stride = std::max<std::size_t>(1, requests.size() / 2048);
  double log_sum = 0;
  long n = 0;
  long missing = 0;
  for (std::size_t i = 0; i < requests.size(); i += stride) {
    const service::BatchRequest& r = requests[i];
    const std::optional<core::ScheduleResult> res = tier.Get(
        service::MakeCacheKey(r.loop->ddg, r.machine, r.options, r.overrides));
    if (!res) {
      ++missing;
      continue;
    }
    if (res->ok && res->mii > 0) {
      log_sum += std::log(static_cast<double>(res->ii) / res->mii);
      ++n;
    }
  }
  if (missing > 0) {
    run.Fail(std::to_string(missing) + " sampled repro requests missing from the tier");
  }
  return n > 0 ? std::exp(log_sum / static_cast<double>(n)) : 0.0;
}

/// Builds the standard workload suites from scratch (the construction the
/// process-wide shared suites pay once).
void BuildSuites() {
  const workload::Suite synth = workload::PerfectSynthetic();
  const workload::Suite kernels = workload::KernelSuite();
  if (synth.size() == 0 || kernels.size() == 0) {
    throw std::runtime_error("empty standard suite");
  }
}

void EmitBatchLayer(Run& run, const service::RequestTiming& t, double batch_s,
                    int threads) {
  MetricSet& m = run.metrics;
  m.Set("service.batch.queue_s", t.queue_seconds, "s");
  m.Set("service.batch.probe_s", t.cache_probe_seconds, "s");
  m.Set("service.batch.mii_s", t.mii_seconds, "s");
  m.Set("service.batch.schedule_s", t.schedule_seconds, "s");
  m.Set("service.batch.serialize_s", t.serialize_seconds, "s");
  m.Set("service.batch.parallel_eff",
        Ratio(t.Total() - t.queue_seconds, batch_s * threads), "ratio");
}

/// Per-layer metrics read from obs registry deltas around the traced
/// iteration's calls.
void EmitObsLayer(Run& run, const ObsDelta& d) {
  MetricSet& m = run.metrics;
  for (const char* c : {"attempts", "ejections", "force_places", "restarts",
                        "spills_inserted", "chains_built", "chains_undone"}) {
    m.Set(std::string("core.") + c, d[std::string("engine.") + c], "count");
  }
  const double used = d["engine.warm.used"];
  const double fallback = d["engine.warm.fallback"];
  m.Set("core.warm_used", used, "count");
  m.Set("core.warm_fallback", fallback, "count");
  m.Set("core.warm_yield", Ratio(used, used + fallback), "ratio");
  m.Set("ddg.mii_cache_hit_ratio",
        Ratio(d["mii_cache.hits"], d["mii_cache.hits"] + d["mii_cache.misses"]),
        "ratio");
  m.Set("service.cache.hit_ratio",
        Ratio(d["service.cache_hits"], d["service.requests"]), "ratio");
  m.Set("service.cache.near_hits", d["mem_cache.near_hits"], "count");
  m.Set("service.cache.near_misses", d["mem_cache.near_misses"], "count");
  m.Set("service.cache.rejects", d["sched_cache.rejects"], "count");
  m.Set("proc.cpu_s", d.cpu_s, "s");
  m.Set("proc.cpu_util", Ratio(d.cpu_s, d.wall_s * run.threads), "ratio");
}

struct ClientSummary {
  long submits = 0;
  long busy = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  double per_s = 0;
  double shares[3] = {0, 0, 0};  ///< repeat, first-seen, delta.
  double log_ii_mii = 0;
  long ii_samples = 0;
  long replies = 0;
  long unscheduled = 0;
  long sampled = 0;
  long divergent = 0;  ///< Sampled replies differing from in-memory loops.
  long crashes = 0;    ///< Daemon deaths (each restarted).
  long known_aborts = 0;  ///< ProbeKnownAbort what-ifs that abort the daemon.
  // Wire layer of the traced iteration.
  double server_s = 0;
  double client_gap_us = 0;
};

/// Seconds one span costs to record: the mean over many on a scratch log.
double SpanCostSeconds() {
  constexpr int kSpans = 100000;
  SpanLog log;
  log.set_enabled(true);
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    ScopedSpan span(log, "service.cache.disk_get_hit", i);
  }
  return SecondsSince(t0) / kSpans;
}

/// Client and wire per-layer metrics; all zero on the repro workloads,
/// which make no submissions.
void EmitClientLayer(Run& run, const ClientSummary& s) {
  MetricSet& m = run.metrics;
  m.Set("service.wire.server_s", s.server_s, "s");
  m.Set("service.wire.client_gap_us", s.client_gap_us, "us");
  m.Set("service.wire.busy", static_cast<double>(s.busy), "count");
  m.Set("service.wire.roundtrip_divergent", static_cast<double>(s.divergent),
        "count");
  m.Set("service.server.known_aborts", static_cast<double>(s.known_aborts),
        "count");
  m.Set("client.submits_per_s", s.per_s, "1/s");
  m.Set("client.submit_p50_ms", s.p50_ms, "ms");
  m.Set("client.submit_p99_ms", s.p99_ms, "ms");
  m.Set("client.submit_samples", static_cast<double>(s.submits), "count");
  m.Set("client.mix_repeat_frac", s.shares[0], "ratio");
  m.Set("client.mix_first_frac", s.shares[1], "ratio");
  m.Set("client.mix_delta_frac", s.shares[2], "ratio");
}

/// Per-layer metrics of the seeded per-request replay.
void RunReplay(Run& run, const std::vector<service::BatchRequest>& population) {
  const std::size_t count = run.args.tiny ? 48 : 1024;
  const fs::path cache = run.dir / "replay-cache";
  fs::remove_all(cache);
  Settle();
  run.spans.set_enabled(true);
  const ReplayResult r =
      Replay(population, count, run.args.seed, cache.string(), run.spans);
  run.spans.set_enabled(false);
  fs::remove_all(cache);
  run.attempted += r.requests;
  run.failed += r.failed;
  if (r.failed > 0) {
    run.Fail(std::to_string(r.failed) + " replayed requests failed a check");
  }
  const auto med_us = [&](const char* span) {
    return 1e6 * Median(run.spans.Durations(span));
  };
  MetricSet& m = run.metrics;
  double mirs_total = 0;
  for (const double s : r.mirs_s) mirs_total += s;
  m.Set("core.placement_yield",
        Ratio(static_cast<double>(r.placements), static_cast<double>(r.attempts)),
        "ratio");
  m.Set("core.attempts_per_s", Ratio(static_cast<double>(r.attempts), mirs_total),
        "1/s");
  m.Set("core.mirs_us_p50", 1e6 * Quantile(r.mirs_s, 0.50), "us");
  m.Set("core.mirs_us_p99", 1e6 * Quantile(r.mirs_s, 0.99), "us");
  m.Set("ddg.mii_us", med_us("ddg.ComputeMII"), "us");
  m.Set("sched.order_us", med_us("sched.HrmsOrder"), "us");
  m.Set("sched.validate_us", med_us("sched.Validate"), "us");
  m.Set("io.dump_result_us", med_us("io.DumpResult"), "us");
  m.Set("io.parse_result_us", med_us("io.ParseResult"), "us");
  m.Set("io.result_bytes",
        Ratio(static_cast<double>(r.result_bytes), static_cast<double>(r.requests)),
        "bytes");
  m.Set("io.parse_mb_s", Ratio(1e-6 * static_cast<double>(r.result_bytes), r.parse_s),
        "MB/s");
  m.Set("service.cache.disk_get_hit_us", med_us("service.cache.disk_get_hit"), "us");
  m.Set("service.cache.disk_get_miss_us", med_us("service.cache.disk_get_miss"),
        "us");
  m.Set("service.cache.disk_put_us", med_us("service.cache.disk_put"), "us");
  m.Set("service.cache.mem_get_hit_us", med_us("service.cache.mem_get_hit"), "us");
  m.Set("service.wire.encode_us", med_us("service.wire.encode"), "us");
}

// ---------------------------------------------------------------------------
// repro_cold / repro_warm
// ---------------------------------------------------------------------------

// The repro_warm tier is filled by the first repro_warm run in a checkout
// and reused by later ones (see README.md): its fill writes 55,568 files,
// whose time on a shared disk varied 13-28 s run to run. A stamp file in
// it holds a digest of the request keys it was filled for.
constexpr const char* kWarmStamp = "FILLED";

fs::path WarmTierDir() { return fs::path(kRunRoot) / "repro_warm-tier"; }

std::string WarmTierStamp(const std::vector<service::BatchRequest>& requests,
                          bool tiny) {
  std::string keys;
  for (const service::BatchRequest& r : requests) {
    keys += service::MakeCacheKey(r.loop->ddg, r.machine, r.options, r.overrides).Hex();
  }
  return Hex64(Fnv1a(keys)) + " " + std::to_string(requests.size()) +
         (tiny ? " smoke" : " full");
}

std::string ReadWarmTierStamp() {
  std::string have;
  std::getline(std::ifstream(WarmTierDir() / kWarmStamp), have);
  return have;
}

/// `perfbench --fill-warm-tier`: schedules the repro requests into an empty
/// disk tier and stamps it when every request was scheduled.
int FillWarmTier(bool tiny) {
  BuildSuites();
  const std::vector<service::BatchRequest> requests = ExpandReproRequests(tiny);
  const fs::path dir = WarmTierDir();
  fs::remove_all(dir);
  Settle();
  const Clock::time_point t0 = Clock::now();
  service::ServiceConfig c;
  c.cache_dir = dir.string();
  const unsigned hw = std::thread::hardware_concurrency();
  c.threads = hw > 0 ? static_cast<int>(hw) : 1;
  service::SchedulerService fill(c);
  const service::BatchReport r = fill.RunBatch(requests);
  fill.Drain();
  Settle();
  std::printf("setup: filled %zu requests into the disk tier in %.3f s, %d scheduled\n",
              requests.size(), SecondsSince(t0), r.scheduled);
  if (r.scheduled != static_cast<int>(requests.size())) return 1;
  std::ofstream(dir / kWarmStamp) << WarmTierStamp(requests, tiny) << "\n";
  return 0;
}

/// Runs `args` (args[0] is the program) to its end; its wait status.
int RunChild(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  std::fflush(stdout);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, argv[0], nullptr, nullptr, argv.data(), environ);
  if (rc != 0) throw std::runtime_error("cannot start " + args[0] + ": " + std::strerror(rc));
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return status;
}

struct ReproIteration {
  double wall_s = 0;
  experiment::ReproReport report;
  ObsDelta obs;
  double unscheduled_frac = 0;
  double cache_mb = 0;  ///< First iteration only.
  double ii_over_mii = 0;  ///< First iteration only.
};

void RunRepro(Run& run, bool warm) {
  const bool tiny = run.args.tiny;
  std::vector<service::BatchRequest> requests;
  std::vector<double> prep_s;
  for (int k = 0; k < kSetupReps; ++k) {
    const Clock::time_point t0 = Clock::now();
    BuildSuites();
    requests = ExpandReproRequests(tiny);
    ResetDir(run.dir);
    prep_s.push_back(SecondsSince(t0));
  }
  const double setup_s = Median(prep_s);

  experiment::ReproOptions opt;
  opt.threads = run.threads;
  opt.smoke = tiny;
  const fs::path warm_cache = WarmTierDir();
  if (warm) {
    const std::string want = WarmTierStamp(requests, tiny);
    if (ReadWarmTierStamp() == want) {
      std::printf("setup: reusing the filled disk tier %s\n", warm_cache.c_str());
    } else {
      // A process of its own, so that its memory is not in this one's
      // peak_rss_mb.
      std::vector<std::string> args = {run.args.self, "--fill-warm-tier"};
      if (tiny) args.push_back("--tiny");
      const int status = RunChild(args);
      if (ReadWarmTierStamp() != want) {
        run.Fail("disk-tier fill failed (status " + std::to_string(status) + ")");
      }
    }
  }
  if (!run.args.trace) run.metrics.Set("setup_s", setup_s, "s");

  // One iteration of the fixed work. The first also records the size and
  // schedule quality of what its tier holds.
  const auto iterate = [&](int i, bool traced) {
    service::ServiceConfig c;
    c.threads = run.threads;
    if (warm) {
      c.cache_dir = warm_cache.string();
    } else {
      // An empty memory-only stack large enough to keep every result:
      // the cold run's cache writes stay off the filesystem, whose noise
      // on a shared disk swamps the program (see README.md).
      c.cache_mem_entries = 1L << 17;
      c.cache_mem_bytes = 1L << 31;
      // The process-wide MII sweep cache would otherwise serve a second
      // cold iteration what the first one computed.
      perf::SetMiiCacheCapacity(perf::SetMiiCacheCapacity(1));
    }
    Settle();
    run.spans.set_enabled(traced);
    ReproIteration it;
    const ObsSnapshot before = ObsSnapshot::Take();
    HostSteal steal;
    steal.Start();
    const Clock::time_point t0 = Clock::now();
    auto session = std::make_unique<service::SchedulerService>(c);
    {
      ScopedSpan span(run.spans, "experiment.RunExperiments", i);
      it.report = experiment::RunExperiments({}, opt, *session);
      session->Drain();
    }
    it.wall_s = SecondsSince(t0);
    it.obs = ObsDelta(before, ObsSnapshot::Take());
    run.spans.set_enabled(false);

    const experiment::ReproReport& rep = it.report;
    bool ok = true;
    const auto check = [&](bool cond, const std::string& why) {
      if (!cond) {
        run.Fail(why);
        ok = false;
      }
    };
    check(rep.ref_failures == 0 && rep.RefChecks() > 0 &&
              (tiny || rep.RefPasses() == rep.RefChecks()),
          "references: " + std::to_string(rep.RefPasses()) + "/" +
              std::to_string(rep.RefChecks()) + " pass, " +
              std::to_string(rep.ref_failures) + " out of tolerance");
    check(rep.requests == static_cast<int>(requests.size()),
          "RunExperiments dispatched " + std::to_string(rep.requests) +
              " requests, the expansion has " + std::to_string(requests.size()));
    if (warm) {
      // A tier that no longer serves every request is refilled next run.
      if (rep.scheduled != 0) fs::remove(warm_cache / kWarmStamp);
      check(rep.scheduled == 0 && rep.hits == rep.requests,
            "repro_warm scheduled " + std::to_string(rep.scheduled) +
                " requests (expected every request served by the disk tier)");
    } else {
      const service::TierStats mem = session->memory_stats();
      check(rep.scheduled == rep.requests && mem.entries == rep.requests &&
                mem.evictions == 0 && mem.oversize == 0,
            "repro_cold: " + std::to_string(rep.hits) + " cache hits, " +
                std::to_string(mem.entries) + " resident entries, " +
                std::to_string(mem.evictions + mem.oversize) + " not kept");
    }
    const bool digest_ok = run.correct;
    CheckCsvDigest(run, experiment::ReproCsv(rep));
    ok = ok && run.correct == digest_ok;
    run.attempted += rep.requests;
    if (!ok) run.failed += rep.requests;
    long cells = 0;
    long cells_failed = 0;
    for (const experiment::ExperimentResult& e : rep.experiments) {
      cells += e.cells;
      cells_failed += e.cells_failed;
    }
    std::printf(
        "iteration %d%s: wall %.3f s (batch %.3f s), host steal %.1f%%, %d "
        "requests, %d scheduled, %d hits, refs %d/%d, unscheduled %ld/%ld cells\n"
        "  summed request phases: queue %.3f s, probe %.3f s, mii %.3f s, "
        "schedule %.3f s, serialize %.3f s\n",
        i, traced ? " (traced)" : "", it.wall_s, rep.seconds, 100 * steal.Share(),
        rep.requests,
        rep.scheduled, rep.hits, rep.RefPasses(), rep.RefChecks(), cells_failed,
        cells, rep.timing.queue_seconds, rep.timing.cache_probe_seconds,
        rep.timing.mii_seconds, rep.timing.schedule_seconds,
        rep.timing.serialize_seconds);
    it.unscheduled_frac =
        Ratio(static_cast<double>(cells_failed), static_cast<double>(cells));
    if (i == 0) {
      const long bytes =
          warm ? service::DiskTier::Scan(warm_cache.string()).bytes
               : session->memory_stats().bytes;
      it.cache_mb = 1e-6 * static_cast<double>(bytes);
      it.ii_over_mii = ReproIiOverMii(requests, *session->cache(), run);
      std::printf("%s tier: %.3f MB of entries, unscheduled_frac %.6f\n",
                  warm ? "disk" : "memory", it.cache_mb, it.unscheduled_frac);
    }
    return it;
  };

  MetricSet& m = run.metrics;
  if (!run.args.trace) {
    std::vector<double> walls;
    const Clock::time_point start = Clock::now();
    for (int i = 0; i == 0 || NextIterationFits(start, i, run.args.seconds); ++i) {
      const ReproIteration it = iterate(i, false);
      walls.push_back(it.wall_s);
      if (i == 0) {
        m.Set("cache_mb", it.cache_mb, "MB");
        m.Set("ii_over_mii", it.ii_over_mii, "ratio");
      }
    }
    m.Set("wall_s", Median(walls), "s");
  } else {
    const ReproIteration traced = iterate(0, true);
    const experiment::ReproReport& rep = traced.report;
    EmitBatchLayer(run, rep.timing, rep.seconds, run.threads);
    m.Set("experiment.post_batch_s", traced.wall_s - rep.seconds, "s");
    m.Set("experiment.unscheduled_frac", traced.unscheduled_frac, "ratio");
    EmitObsLayer(run, traced.obs);
    EmitClientLayer(run, ClientSummary{});
    RunReplay(run, requests);
  }
}

// ---------------------------------------------------------------------------
// daemon_mixed
// ---------------------------------------------------------------------------

enum class Kind { kRepeat, kFirst, kDelta };

struct DaemonInputs {
  /// The loops as clients hold them: parsed from their `hcl 1 loop`
  /// documents, which is what the daemon receives and what a local run
  /// of the same documents schedules.
  std::vector<std::shared_ptr<const workload::Loop>> loops;
  /// The same loops as generated in memory, before serialization.
  std::vector<std::shared_ptr<const workload::Loop>> generated;
  std::vector<service::SweepMachine> orgs;
  /// (loop, org) pairs, loop-major.
  std::size_t NumPairs() const { return loops.size() * orgs.size(); }
};

DaemonInputs LoadDaemonInputs() {
  DaemonInputs in;
  const service::SweepSpec spec = service::LoadSweepSpecFile(kOrgSpec);
  for (const std::string& name : spec.suites) {
    const workload::Suite* suite = workload::SharedSuiteByName(name);
    if (suite == nullptr) throw std::runtime_error("unknown suite " + name);
    for (std::size_t i = 0; i < suite->size(); ++i) {
      const workload::Loop& loop = (*suite)[i];
      in.generated.emplace_back(std::shared_ptr<const void>(), &loop);
      in.loops.push_back(std::make_shared<const workload::Loop>(
          io::ParseLoop(io::DumpLoop(loop), loop.ddg.name())));
    }
  }
  in.orgs = service::ExpandSweepMachines(spec, hw::RFModelMode::kPaperTable).machines;
  if (in.loops.empty() || in.orgs.empty()) {
    throw std::runtime_error(std::string(kOrgSpec) + " expands to no pairs");
  }
  return in;
}

/// One answered (or failed) submission of a daemon client.
struct Submission {
  Kind kind = Kind::kRepeat;
  std::size_t pair = 0;
  double seconds = 0;
  bool failed = false;  ///< Error, busy or timeout.
  bool busy = false;
  std::optional<service::wire::ReplyItem> item;
  service::BatchRequest request;
};

service::BatchRequest PairRequest(const DaemonInputs& in, std::size_t pair,
                                  const std::string& id) {
  service::BatchRequest req;
  req.id = id;
  req.loop = in.loops[pair / in.orgs.size()];
  req.machine = in.orgs[pair % in.orgs.size()].machine;
  return req;
}

std::string PairName(const DaemonInputs& in, std::size_t pair) {
  return in.loops[pair / in.orgs.size()]->ddg.name() + " x " +
         in.orgs[pair % in.orgs.size()].org;
}

std::vector<NodeId> Loads(const DDG& g) {
  std::vector<NodeId> loads;
  for (NodeId v = 0; v < g.NumSlots(); ++v) {
    if (g.IsAlive(v) && g.node(v).op == OpClass::kLoad) loads.push_back(v);
  }
  return loads;
}

/// Makes `req` a what-if: load `load` of its loop hardened toward its miss
/// latency.
void HardenLoad(service::BatchRequest& req, NodeId load) {
  const LatencyTable& lat = req.machine.lat;
  req.overrides.producer_latency.assign(
      static_cast<std::size_t>(req.loop->ddg.NumSlots()), 0);
  req.overrides.producer_latency[static_cast<std::size_t>(load)] =
      std::max(lat.load_miss, lat.load_hit + 1);
}

/// Known defect: a what-if on this pair (one load hardened to its miss
/// latency, seeded with the pair's cold schedule) aborts the daemon
/// (`src/ddg/ddg.cpp` AddEdge touching a dead node); no other of the
/// 7,620 pairs does. The timed stream draws no what-ifs on it, so a run
/// measures the daemon serving rather than the daemon restarting, and
/// ProbeKnownAbort submits them to a daemon of its own in every run and
/// reports how many still abort.
constexpr const char* kAbortLoop = "synth-stream-46";
constexpr const char* kAbortOrg = "4C16S64/2-1";

/// The pair of kAbortLoop x kAbortOrg; NumPairs() when absent.
std::size_t AbortPair(const DaemonInputs& in) {
  for (std::size_t p = 0; p < in.NumPairs(); ++p) {
    if (in.loops[p / in.orgs.size()]->ddg.name() == kAbortLoop &&
        in.orgs[p % in.orgs.size()].org == kAbortOrg) {
      return p;
    }
  }
  return in.NumPairs();
}

/// The daemon under test: `hcrf_sched serve` in a child process, with a
/// memory tier, a disk tier under `dir` and 2 scheduling threads. A daemon
/// that dies mid-run is restarted on the same socket and cache directory,
/// so a crash shows as failed submissions instead of ending the benchmark.
class Daemon {
 public:
  Daemon(std::string binary, const fs::path& dir)
      : binary_(std::move(binary)),
        socket_((dir / "d.sock").string()),
        cache_((dir / "cache").string()),
        log_((dir / "daemon.log").string()) {}
  ~Daemon() {
    std::lock_guard<std::mutex> lk(mu_);
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  const std::string& socket() const { return socket_; }
  const std::string& cache_dir() const { return cache_; }

  /// Spawns the daemon and waits until it answers a ping.
  void Start() {
    std::lock_guard<std::mutex> lk(mu_);
    StartLocked();
  }

  /// Waits until the daemon serves again after a failed submission,
  /// restarting it if it died. Thread safe; throws if it cannot recover.
  void Recover() {
    std::lock_guard<std::mutex> lk(mu_);
    const Clock::time_point t0 = Clock::now();
    while (SecondsSince(t0) < 10.0) {
      int status = 0;
      if (pid_ > 0 && Reap(WNOHANG, &status)) {
        ++crashes_;
        std::printf("daemon died (%s %d); restarting it\n",
                    WIFSIGNALED(status) ? "signal" : "exit status",
                    WIFSIGNALED(status) ? WTERMSIG(status) : WEXITSTATUS(status));
        StartLocked();
        return;
      }
      if (Answers()) return;
      ::usleep(1000);
    }
    throw std::runtime_error("daemon stopped answering");
  }

  /// Requests a drain (SIGTERM) and waits for the exit; false when the
  /// daemon did not exit cleanly.
  bool Stop() {
    std::lock_guard<std::mutex> lk(mu_);
    if (pid_ <= 0) return false;
    peak_rss_kib_ = std::max(peak_rss_kib_, HighWaterKib(pid_));
    ::kill(pid_, SIGTERM);
    int status = 0;
    Reap(0, &status);
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

  int crashes() const {
    std::lock_guard<std::mutex> lk(mu_);
    return crashes_;
  }

  /// Peak resident memory of the daemon, read as it was stopped. (The
  /// wait4 rusage of a spawned child also counts the spawning process's
  /// own peak, which the kernel carries over the exec.)
  double peak_rss_mb() const {
    std::lock_guard<std::mutex> lk(mu_);
    return static_cast<double>(peak_rss_kib_) / 1024.0;
  }

 private:
  /// VmHWM of a live process, in KiB; 0 when it cannot be read.
  static long HighWaterKib(pid_t pid) {
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::atol(line.c_str() + 6);
    }
    return 0;
  }

  /// waitpid for the daemon; true when it was reaped (then pid_ is
  /// cleared).
  bool Reap(int options, int* status) {
    if (::waitpid(pid_, status, options) != pid_) return false;
    pid_ = -1;
    return true;
  }

  bool Answers() const {
    try {
      return service::Client(socket_, 1000).Ping();
    } catch (const std::exception&) {
      return false;
    }
  }

  void StartLocked() {
    fs::remove(socket_);  // left behind by a daemon that died
    const std::vector<std::string> args = {
        binary_, "serve", "--socket=" + socket_, "--cache=" + cache_,
        "--cache-mem=65536", "--threads=2",
        // Two slots per client: a client's next connection can be accepted
        // before the handler of its previous one has released its slot.
        "--max-inflight=4"};
    std::vector<char*> argv;
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_addopen(&fa, 1, log_.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&fa, 1, 2);
    const int rc = posix_spawn(&pid_, binary_.c_str(), &fa, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&fa);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + binary_ + ": " + std::strerror(rc));
    }
    const Clock::time_point t0 = Clock::now();
    while (!Answers()) {
      int status = 0;
      if (Reap(WNOHANG, &status)) {
        throw std::runtime_error("daemon exited during start; see " + log_);
      }
      if (SecondsSince(t0) > 10.0) throw std::runtime_error("daemon did not start");
      ::usleep(500);
    }
  }

  std::string binary_;
  std::string socket_;
  std::string cache_;
  std::string log_;
  mutable std::mutex mu_;
  pid_t pid_ = -1;
  int crashes_ = 0;
  long peak_rss_kib_ = 0;
};

/// A client's first-seen pairs: its share of the pairs (the loops are
/// partitioned between clients, so a client's first-seen pair is new to
/// the daemon too) in a seeded, stratified order. The share is ranked by
/// loop size (the engine's cost grows with it) and cut into strata of
/// kRounds neighbours; round r takes one pair of every stratum, and the
/// order is round 0, round 1, ... An iteration takes about one round, so
/// every iteration schedules a like mix of small and large loops (a plain
/// shuffle let a few large loops decide an iteration's wall time), and
/// successive iterations sweep the whole population.
struct PairStream {
  static constexpr std::size_t kRounds = 10;
  std::vector<std::size_t> order;
  std::size_t next = 0;

  PairStream(const DaemonInputs& in, int client, int clients, std::uint64_t seed) {
    Rng rng(seed);
    const auto shuffle = [&rng](auto first, auto last) {
      for (auto n = static_cast<std::size_t>(last - first); n > 1; --n) {
        std::swap(first[n - 1], first[rng.Below(n)]);
      }
    };
    // By loop, so that every client has all organizations (the clustered
    // ones cost the engine the most).
    std::vector<std::size_t> share;
    for (std::size_t p = 0; p < in.NumPairs(); ++p) {
      if ((p / in.orgs.size()) % static_cast<std::size_t>(clients) ==
          static_cast<std::size_t>(client)) {
        share.push_back(p);
      }
    }
    std::stable_sort(share.begin(), share.end(), [&in](std::size_t a, std::size_t b) {
      return in.loops[a / in.orgs.size()]->ddg.NumNodes() <
             in.loops[b / in.orgs.size()]->ddg.NumNodes();
    });
    for (std::size_t b = 0; b < share.size(); b += kRounds) {
      shuffle(share.begin() + static_cast<std::ptrdiff_t>(b),
              share.begin() + static_cast<std::ptrdiff_t>(std::min(b + kRounds, share.size())));
    }
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::size_t from = order.size();
      for (std::size_t b = r; b < share.size(); b += kRounds) order.push_back(share[b]);
      shuffle(order.begin() + static_cast<std::ptrdiff_t>(from), order.end());
    }
  }
  std::size_t Take() {
    const std::size_t p = order[next];
    next = (next + 1) % order.size();
    return p;
  }
};

/// Closed loop of one client: each submission waits for its reply before
/// the next is drawn.
std::vector<Submission> ClientLoop(const DaemonInputs& in, Daemon& daemon,
                                   int client, PairStream& fresh, long submits,
                                   std::uint64_t seed, SpanLog& spans,
                                   long request_base) {
  const std::size_t abort_pair = AbortPair(in);
  Rng rng(seed);
  std::vector<std::size_t> seen;  ///< Answered first-seen pairs.
  /// Of those, the ones a what-if can start from: the daemon holds a
  /// schedule to seed it (a what-if on an unscheduled pair is a second
  /// failing search from MII, not a warm start) and the loop has a load.
  std::vector<std::size_t> seeds;
  service::Client cli(daemon.socket(), /*read_timeout_ms=*/30000);
  std::vector<Submission> out;
  out.reserve(static_cast<std::size_t>(submits));
  for (long k = 0; k < submits; ++k) {
    Submission s;
    const double u = rng.Uniform();
    if (seen.empty() || (u >= 0.60 && u < 0.85)) s.kind = Kind::kFirst;
    else if (u >= 0.85 && !seeds.empty()) s.kind = Kind::kDelta;
    s.pair = s.kind == Kind::kFirst   ? fresh.Take()
             : s.kind == Kind::kDelta ? seeds[rng.Below(seeds.size())]
                                      : seen[rng.Below(seen.size())];
    std::string id = "c";
    id += std::to_string(client);
    id += '-';
    id += std::to_string(k);
    s.request = PairRequest(in, s.pair, id);
    if (s.kind == Kind::kDelta) {
      const std::vector<NodeId> loads = Loads(s.request.loop->ddg);
      HardenLoad(s.request, loads[rng.Below(loads.size())]);
    }
    const long request_id = request_base + k;
    const Clock::time_point t0 = Clock::now();
    try {
      ScopedSpan span(spans,
                      s.kind == Kind::kDelta ? "service.Client.SubmitDelta"
                                             : "service.Client.Submit",
                      request_id);
      service::SubmitReply reply = s.kind == Kind::kDelta
                                       ? cli.SubmitDelta({s.request})
                                       : cli.Submit({s.request});
      s.seconds = SecondsSince(t0);
      if (reply.busy) {
        s.busy = s.failed = true;
      } else if (reply.items.size() != 1) {
        s.failed = true;
      } else {
        s.item = std::move(reply.items[0]);
      }
    } catch (const std::exception& e) {
      s.seconds = SecondsSince(t0);
      s.failed = true;
      std::printf("client %d submit %s (%s %s): %s\n", client,
                  s.request.id.c_str(), PairName(in, s.pair).c_str(),
                  s.kind == Kind::kDelta ? "what-if" : "request", e.what());
      daemon.Recover();
    }
    if (s.kind == Kind::kFirst && s.item) {
      seen.push_back(s.pair);
      if (s.item->ok && s.pair != abort_pair && !Loads(s.request.loop->ddg).empty()) {
        seeds.push_back(s.pair);
      }
    }
    out.push_back(std::move(s));
  }
  return out;
}

struct DaemonIteration {
  double start_s = 0;  ///< Daemon construction + bind + first ping.
  double wall_s = 0;   ///< Both clients' fixed work.
  std::vector<Submission> subs;
  ObsDelta obs;
  double disk_mb = 0;
  service::BatchReport verify;  ///< Local RunBatch of the sampled replies.
  long sampled = 0;    ///< Replies checked against a local RunBatch.
  long divergent = 0;  ///< Of those, differing from the in-memory loops.
  int crashes = 0;     ///< Daemon deaths (each restarted).
  double peak_rss_mb = 0;  ///< Peak memory of the iteration's daemon.
  double steal = 0;        ///< HostSteal share over the timed clients.
};

constexpr int kClients = 2;

DaemonIteration RunDaemonIteration(Run& run, const DaemonInputs& in, int i,
                                   bool traced, long submits_per_client,
                                   std::vector<PairStream>& streams) {
  DaemonIteration it;
  const fs::path dir = run.dir / ("it" + std::to_string(i));
  ResetDir(dir);
  Daemon daemon(run.args.serve_binary, dir);
  Settle();
  const Clock::time_point t_start = Clock::now();
  daemon.Start();
  it.start_s = SecondsSince(t_start);

  run.spans.set_enabled(traced);
  const ObsSnapshot before = SnapshotFromStats(service::Client(daemon.socket()).Stats());
  std::vector<std::vector<Submission>> per_client(kClients);
  HostSteal steal;
  steal.Start();
  const Clock::time_point t0 = Clock::now();
  {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      // Each iteration draws its mix afresh from the run's seed.
      const std::uint64_t seed =
          (run.args.seed * 0x100000001b3ull + static_cast<std::uint64_t>(i)) *
              0x9e3779b97f4a7c15ull +
          static_cast<std::uint64_t>(c);
      clients.emplace_back([&, c, seed] {
        per_client[static_cast<std::size_t>(c)] =
            ClientLoop(in, daemon, c, streams[static_cast<std::size_t>(c)],
                       submits_per_client, seed, run.spans,
                       c * submits_per_client);
      });
    }
    for (std::thread& t : clients) t.join();
  }
  it.wall_s = SecondsSince(t0);
  it.steal = steal.Share();
  std::string stats;
  {
    ScopedSpan span(run.spans, "service.Client.Stats");
    stats = service::Client(daemon.socket()).Stats();
  }
  run.spans.set_enabled(false);
  ObsSnapshot after = SnapshotFromStats(stats);
  if (!daemon.Stop()) std::printf("daemon did not drain cleanly\n");
  after.cpu_s = CpuSeconds();  // now including the reaped daemon
  it.obs = ObsDelta(before, after);
  it.obs.wall_s = it.wall_s;
  it.crashes = daemon.crashes();
  it.peak_rss_mb = daemon.peak_rss_mb();
  it.disk_mb = 1e-6 * static_cast<double>(
                          service::DiskTier::Scan(daemon.cache_dir()).bytes);
  for (auto& v : per_client) {
    for (Submission& s : v) it.subs.push_back(std::move(s));
  }

  // Checks, after the timed work: every reply validates, and a seeded
  // sample of non-delta replies is byte-identical to a local RunBatch.
  Rng pick(run.args.seed ^ (0x5eedull + static_cast<std::uint64_t>(i)));
  std::vector<std::size_t> sample;
  std::vector<service::BatchRequest> sample_requests;
  for (std::size_t j = 0; j < it.subs.size(); ++j) {
    Submission& s = it.subs[j];
    ++run.attempted;
    if (s.failed) {
      ++run.failed;
      continue;
    }
    const service::wire::ReplyItem& item = *s.item;
    if (item.ok) {
      const sched::ValidationResult v =
          sched::Validate(item.result.graph, item.result.schedule,
                          s.request.machine, item.result.overrides);
      if (!v.ok) {
        s.failed = true;
        ++run.failed;
        run.Fail("reply " + s.request.id + " fails Validate: " + v.error);
        continue;
      }
    }
    if (s.kind != Kind::kDelta && pick.Below(it.subs.size()) < 64) {
      sample.push_back(j);
      sample_requests.push_back(s.request);
    }
  }
  service::BatchOptions local;
  local.threads = 2;
  it.verify = service::RunBatch(sample_requests, local);
  // Failed items travel as an error line without a result document, so
  // for them only the outcome is compared.
  const auto same = [](const service::BatchItem& mine,
                       const service::wire::ReplyItem& reply) {
    return mine.ok == reply.ok &&
           (!reply.ok || io::DumpResult(mine.result) == io::DumpResult(reply.result));
  };
  for (std::size_t k = 0; k < sample.size(); ++k) {
    Submission& s = it.subs[sample[k]];
    if (!same(it.verify.items[k], *s.item)) {
      s.failed = true;
      ++run.failed;
      run.Fail("reply " + s.request.id + " differs from a local RunBatch");
    }
  }
  // Known defect, reported and not counted as a failure: the same
  // requests built from the loops as generated in memory (before the
  // document round trip) can schedule with different search statistics,
  // because ParseLoop(DumpLoop(loop)) reorders in-edges and the engine's
  // search depends on in-edge order. Replies match the documents the
  // client sent (checked above), not the unserialized loops.
  std::vector<service::BatchRequest> generated = sample_requests;
  for (std::size_t k = 0; k < sample.size(); ++k) {
    generated[k].loop = in.generated[it.subs[sample[k]].pair / in.orgs.size()];
  }
  const service::BatchReport gen = service::RunBatch(generated, local);
  it.sampled = static_cast<long>(sample.size());
  for (std::size_t k = 0; k < sample.size(); ++k) {
    if (!same(gen.items[k], *it.subs[sample[k]].item)) {
      ++it.divergent;
    }
  }
  fs::remove_all(dir);
  return it;
}

/// Submits every what-if of the known-abort pair (see kAbortLoop) to a
/// daemon of its own, each after the pair's cold request so that the cold
/// schedule seeds it, and counts the what-ifs that abort the daemon.
/// Untimed, and outside `attempted`: it checks a known defect, not the
/// workload.
long ProbeKnownAbort(const Run& run, const DaemonInputs& in) {
  const std::size_t pair = AbortPair(in);
  if (pair == in.NumPairs()) return 0;
  const fs::path dir = run.dir / "probe";
  ResetDir(dir);
  long whatifs = 0;
  int aborts = 0;
  {
    Daemon daemon(run.args.serve_binary, dir);
    daemon.Start();
    const service::BatchRequest cold = PairRequest(in, pair, "probe-cold");
    for (const NodeId load : Loads(cold.loop->ddg)) {
      service::BatchRequest whatif = cold;
      whatif.id = "probe-" + std::to_string(load);
      HardenLoad(whatif, load);
      ++whatifs;
      try {
        service::Client cli(daemon.socket(), /*read_timeout_ms=*/30000);
        cli.Submit({cold});
        cli.SubmitDelta({whatif});
      } catch (const std::exception&) {
        daemon.Recover();
      }
    }
    aborts = daemon.crashes();
    daemon.Stop();
  }
  fs::remove_all(dir);
  std::printf("known defect: %d of %ld what-ifs on %s abort the daemon (the "
              "timed stream draws none of them)\n",
              aborts, whatifs, PairName(in, pair).c_str());
  return aborts;
}

ClientSummary Summarize(const std::vector<DaemonIteration>& its) {
  ClientSummary s;
  std::vector<double> lat;
  double wall = 0;
  for (const DaemonIteration& it : its) {
    wall += it.wall_s;
    s.sampled += it.sampled;
    s.divergent += it.divergent;
    s.crashes += it.crashes;
    for (const Submission& sub : it.subs) {
      ++s.submits;
      lat.push_back(sub.seconds);
      s.shares[static_cast<int>(sub.kind)] += 1;
      if (sub.busy) ++s.busy;
      if (!sub.item) continue;
      ++s.replies;
      if (!sub.item->ok) {
        ++s.unscheduled;
      } else if (sub.kind != Kind::kRepeat && sub.item->result.mii > 0) {
        // Repeats return a schedule already counted at its first sight.
        s.log_ii_mii += std::log(static_cast<double>(sub.item->result.ii) /
                                 sub.item->result.mii);
        ++s.ii_samples;
      }
    }
  }
  s.p50_ms = 1e3 * Quantile(lat, 0.50);
  s.p99_ms = 1e3 * Quantile(lat, 0.99);
  s.per_s = Ratio(static_cast<double>(s.submits), wall);
  for (double& share : s.shares) share = Ratio(share, static_cast<double>(s.submits));
  return s;
}

void PrintClientSummary(const ClientSummary& s) {
  std::printf(
      "daemon: %ld submits (%.3f repeat / %.3f first-seen / %.3f delta), "
      "%.1f submits/s, round trip p50 %.4f ms p99 %.4f ms over %ld samples, "
      "%ld busy, %ld unscheduled replies, %ld daemon crashes\n",
      s.submits, s.shares[0], s.shares[1], s.shares[2], s.per_s, s.p50_ms,
      s.p99_ms, s.submits, s.busy, s.unscheduled, s.crashes);
  std::printf(
      "known defect: %ld of %ld sampled replies differ from a local RunBatch "
      "of the loops as generated in memory (ParseLoop reorders in-edges; the "
      "engine's search depends on their order)\n",
      s.divergent, s.sampled);
}

void RunDaemon(Run& run) {
  // A daemon that aborts (see kAbortLoop) leaves no core file in the
  // checkout: the limit is inherited by the daemons this process spawns.
  const rlimit no_core{0, 0};
  ::setrlimit(RLIMIT_CORE, &no_core);
  const long submits_per_client = run.args.tiny ? 40 : 1500;
  DaemonInputs in;
  std::vector<double> prep_s;
  for (int k = 0; k < kSetupReps; ++k) {
    const Clock::time_point t0 = Clock::now();
    BuildSuites();
    in = LoadDaemonInputs();
    ResetDir(run.dir);
    prep_s.push_back(SecondsSince(t0));
  }
  std::printf("daemon pairs: %zu loops x %zu organizations\n", in.loops.size(),
              in.orgs.size());

  std::vector<PairStream> streams;
  for (int c = 0; c < kClients; ++c) {
    streams.emplace_back(in, c, kClients, run.args.seed * 0x9e3779b97f4a7c15ull +
                                              static_cast<std::uint64_t>(c));
  }
  std::vector<DaemonIteration> its;
  MetricSet& m = run.metrics;
  if (!run.args.trace) {
    const Clock::time_point start = Clock::now();
    for (int i = 0; i == 0 || NextIterationFits(start, i, run.args.seconds); ++i) {
      its.push_back(
          RunDaemonIteration(run, in, i, false, submits_per_client, streams));
      std::printf("iteration %d: wall %.3f s, daemon start %.4f s, daemon peak "
                  "%.1f MB, host steal %.1f%%%s\n",
                  i, its.back().wall_s, its.back().start_s, its.back().peak_rss_mb,
                  100 * its.back().steal, its.back().steal > kMaxSteal ? " (disturbed)" : "");
    }
    std::vector<double> starts;
    std::vector<double> disk;
    double peak_rss_mb = 0;
    for (const DaemonIteration& it : its) {
      starts.push_back(it.start_s);
      disk.push_back(it.disk_mb);
      peak_rss_mb = std::max(peak_rss_mb, it.peak_rss_mb);
    }
    // wall_s: the undisturbed iterations, or the kMinSteady least disturbed.
    std::vector<const DaemonIteration*> by_steal;
    for (const DaemonIteration& it : its) by_steal.push_back(&it);
    std::stable_sort(by_steal.begin(), by_steal.end(),
                     [](const DaemonIteration* a, const DaemonIteration* b) {
                       return a->steal < b->steal;
                     });
    std::vector<double> walls;
    for (const DaemonIteration* it : by_steal) {
      if (it->steal > kMaxSteal && walls.size() >= kMinSteady) break;
      walls.push_back(it->wall_s);
    }
    std::printf("wall_s: median of %zu of %zu iterations (%s)\n", walls.size(),
                its.size(),
                walls.size() > kMinSteady || by_steal[walls.size() - 1]->steal <= kMaxSteal
                    ? "the undisturbed ones"
                    : "too few undisturbed: the least disturbed");
    const ClientSummary s = Summarize(its);
    PrintClientSummary(s);
    ProbeKnownAbort(run, in);
    m.Set("setup_s", Median(prep_s) + Median(starts), "s");
    m.Set("wall_s", Median(walls), "s");
    m.Set("cache_mb", Median(disk), "MB");
    m.Set("peak_rss_mb", peak_rss_mb, "MB");
    m.Set("ii_over_mii",
          s.ii_samples > 0 ? std::exp(s.log_ii_mii / static_cast<double>(s.ii_samples)) : 0,
          "ratio");
    return;
  }

  // Traced run: the same fixed work untraced, then traced.
  const std::vector<PairStream> start = streams;
  its.push_back(RunDaemonIteration(run, in, 0, false, submits_per_client, streams));
  streams = start;
  its.push_back(RunDaemonIteration(run, in, 0, true, submits_per_client, streams));
  const DaemonIteration& plain = its[0];
  const DaemonIteration& traced = its[1];
  const ClientSummary s = Summarize({plain});
  PrintClientSummary(s);
  EmitBatchLayer(run, traced.verify.timing, traced.verify.seconds, 2);
  m.Set("experiment.post_batch_s", 0, "s");
  m.Set("experiment.unscheduled_frac",
        Ratio(static_cast<double>(s.unscheduled), static_cast<double>(s.replies)),
        "ratio");
  EmitObsLayer(run, traced.obs);
  ClientSummary wire = s;
  wire.known_aborts = ProbeKnownAbort(run, in);
  wire.server_s = traced.obs.request_seconds;
  double round_trips = 0;
  for (const Submission& sub : traced.subs) round_trips += sub.seconds;
  wire.client_gap_us = 1e6 * Ratio(round_trips - wire.server_s,
                                   static_cast<double>(traced.subs.size()));
  wire.busy = static_cast<long>(traced.obs["server.busy"]);
  EmitClientLayer(run, wire);
  RunReplay(run, ExpandReproRequests(run.args.tiny));
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error("missing value for " + flag);
      return argv[++i];
    };
    if (flag == "--workload") a.workload = value();
    else if (flag == "--seed") a.seed = std::stoull(value());
    else if (flag == "--seconds") a.seconds = std::stod(value());
    else if (flag == "--trace") a.trace = value() != "0";
    else if (flag == "--tiny") a.tiny = true;
    else if (flag == "--serve-binary") a.serve_binary = value();
    else if (flag == "--fill-warm-tier") a.fill_warm_tier = true;
    else throw std::runtime_error("unknown argument " + flag);
  }
  a.self = argv[0];
  if (a.fill_warm_tier) return a;
  if (a.workload != "repro_cold" && a.workload != "repro_warm" &&
      a.workload != "daemon_mixed") {
    throw std::runtime_error("--workload must be repro_cold, repro_warm or "
                             "daemon_mixed");
  }
  return a;
}

int Main(int argc, char** argv) {
  Run run;
  run.args = ParseArgs(argc, argv);
  if (run.args.fill_warm_tier) return FillWarmTier(run.args.tiny);
  const unsigned hw = std::thread::hardware_concurrency();
  run.threads = hw > 0 ? static_cast<int>(hw) : 1;
  run.dir = fs::path(kRunRoot) / run.args.workload;
  if (run.args.workload == "daemon_mixed" && run.args.serve_binary.empty()) {
    throw std::runtime_error("daemon_mixed needs --serve-binary (run.py passes it)");
  }
  if (!fs::exists(kOrgSpec)) {
    throw std::runtime_error(std::string(kOrgSpec) +
                             " not found: run from the repository root");
  }
  std::printf("workload %s seed %llu seconds %g trace %d%s threads %d\n",
              run.args.workload.c_str(),
              static_cast<unsigned long long>(run.args.seed), run.args.seconds,
              run.args.trace ? 1 : 0, run.args.tiny ? " tiny" : "", run.threads);

  if (run.args.workload == "daemon_mixed") {
    RunDaemon(run);
  } else {
    RunRepro(run, run.args.workload == "repro_warm");
  }
  fs::remove_all(run.dir);

  if (run.args.trace) {
    const fs::path trace_file =
        fs::path(kRunRoot) / ("trace-" + run.args.workload + ".json");
    if (!run.spans.WriteJson(trace_file.string())) {
      throw std::runtime_error("cannot write " + trace_file.string());
    }
    // Tracing overhead: what the recorded spans cost, over the time
    // recording was on. Comparing whole traced and untraced passes
    // instead gave -10%..+29%: the replay's disk-tier calls vary far more
    // from pass to pass than the spans cost.
    const double overhead = static_cast<double>(run.spans.size()) *
                            SpanCostSeconds() / run.spans.enabled_seconds();
    run.metrics.Set("obs.trace_overhead_frac", overhead, "ratio");
    std::printf("spans: %zu recorded over %.3f s traced, overhead %.5f\n",
                run.spans.size(), run.spans.enabled_seconds(), overhead);
    std::printf("spans: %s (self time per span name)\n", trace_file.c_str());
    for (const auto& [name, t] : run.spans.SelfTimes()) {
      std::printf("  %-36s %8ld calls %12.6f s self\n", name.c_str(), t.count,
                  t.seconds);
    }
  } else {
    if (run.args.workload != "daemon_mixed") {
      // The program runs in this process; daemon_mixed reports its daemons.
      run.metrics.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
  }
  std::printf("failed_frac %.6f (%ld of %ld requests)\n",
              Ratio(static_cast<double>(run.failed), static_cast<double>(run.attempted)),
              run.failed, run.attempted);
  std::printf("metrics:\n%s", run.metrics.Table().c_str());
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": %s}\n",
              run.correct ? "true" : "false", run.attempted,
              run.failed, run.metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
