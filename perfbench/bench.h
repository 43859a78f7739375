// Shared pieces of the benchmark program: metric output, order statistics,
// the expanded repro request list and the per-request layer replay.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "service/batch.h"
#include "spans.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> v, double q);
inline double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// Deterministic 64-bit generator (splitmix64): the same seed gives the
/// same draws on every platform and standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  std::size_t Below(std::size_t n) {
    return static_cast<std::size_t>(Next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t s_;
};

/// Metrics of one run, in emission order: name -> (value, unit).
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// The result object's "metrics" member.
  std::string Json() const;
  /// Human-readable lines, one per metric.
  std::string Table() const;

 private:
  std::vector<std::string> order_;
  std::map<std::string, std::pair<double, std::string>> values_;
};

/// The deduplicated scheduling requests of every registered experiment,
/// expanded the way experiment::RunExperiments expands them (full
/// workloads, or the bounded smoke slices). Used to fill the disk tier
/// for repro_warm, to sample schedule quality from a repro cache, and as
/// the population of the per-request replay.
std::vector<hcrf::service::BatchRequest> ExpandReproRequests(bool smoke);

/// Result of the seeded per-request replay.
struct ReplayResult {
  long requests = 0;
  long failed = 0;  ///< Requests whose output failed a check.
  std::vector<double> mirs_s;  ///< Per core::MirsHC call.
  long attempts = 0;
  long placements = 0;  ///< Final placements over all replayed schedules.
  long result_bytes = 0;
  double parse_s = 0;
};

/// Replays `count` requests drawn by `seed` from `population`, calling
/// each layer the way the service does for a cold request followed by a
/// hit: MakeCacheKey, a disk-tier miss, ComputeMII, HrmsOrder, MirsHC,
/// Validate, DumpResult, disk and memory Put, disk and memory Get hits,
/// ParseResult; plus the client-side request encoding. Every call is a
/// span on `log`. `cache_dir` must be empty or absent.
ReplayResult Replay(const std::vector<hcrf::service::BatchRequest>& population,
                    std::size_t count, std::uint64_t seed,
                    const std::string& cache_dir, SpanLog& log);

}  // namespace perfbench
