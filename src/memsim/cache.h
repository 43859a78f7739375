// Lockup-free L1 data cache model (paper Section 6.2): 32 KB, 32-byte
// lines, multi-ported, up to 8 outstanding misses (MSHRs), write-allocate.
// Associativity is not specified in the paper; we use 2-way LRU.
//
// Each set is its tags in recency order: way 0 holds the most recently
// used (MRU) line, the last way the least recently used one, and empty
// ways hold kEmptyTag at the tail. That order is all LRU needs, so there
// is no tick counter and no per-way age: a hit on the MRU line is one
// compare and writes nothing; any other access carries each tag in front
// of it one way down and puts its own tag at way 0, so on a miss the LRU
// tag falls out of the last way. One loop serves every associativity.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hcrf::memsim {

struct CacheConfig {
  long size_bytes = 32 * 1024;
  int line_bytes = 32;
  int associativity = 2;
  int mshrs = 8;

  long NumSets() const { return size_bytes / (line_bytes * associativity); }
};

/// Timing-free tag array: Access returns hit/miss and updates the set's
/// recency order and contents (fill on miss). Miss overlap timing is
/// handled by ReplayLoop, which owns the MSHR occupancy model.
///
/// The line size and the set count must be powers of two (the paper's
/// geometry is 32-byte lines and 512 sets), so indexing is shifts and masks.
class Cache {
 public:
  explicit Cache(const CacheConfig& cfg = {});

  /// Accesses one address; returns true on hit. Misses allocate (both
  /// loads and stores: write-allocate).
  bool Access(std::uint64_t addr) {
    std::uint64_t tag = 0;
    std::uint64_t* const set = &tags_[FirstWay(addr, &tag)];
    if (set[0] == tag) {
      ++hits_;
      return true;
    }
    std::uint64_t carried = set[0];
    set[0] = tag;
    for (int a = 1; a < cfg_.associativity; ++a) {
      const std::uint64_t here = set[a];
      set[a] = carried;
      if (here == tag) {
        ++hits_;
        return true;
      }
      carried = here;
    }
    ++misses_;
    return false;
  }

  /// True if the address's line is currently resident (no state change).
  bool Probe(std::uint64_t addr) const;

  void Reset();

  long hits() const { return hits_; }
  long misses() const { return misses_; }
  const CacheConfig& config() const { return cfg_; }

 private:
  /// Tag of an empty way. No address produces it: the tag drops at least
  /// one bit of the address (the constructor checks line * sets >= 2).
  static constexpr std::uint64_t kEmptyTag = ~std::uint64_t{0};

  /// Index in tags_ of way 0 (the MRU way) of addr's set; sets *tag.
  std::size_t FirstWay(std::uint64_t addr, std::uint64_t* tag) const {
    const std::uint64_t line = addr >> line_shift_;
    *tag = line >> set_shift_;
    return static_cast<std::size_t>(line & set_mask_) *
           static_cast<std::size_t>(cfg_.associativity);
  }

  CacheConfig cfg_;
  int line_shift_ = 0;
  int set_shift_ = 0;
  std::uint64_t set_mask_ = 0;
  /// sets * associativity, set-major; each set MRU first.
  std::vector<std::uint64_t> tags_;
  long hits_ = 0;
  long misses_ = 0;
};

}  // namespace hcrf::memsim
