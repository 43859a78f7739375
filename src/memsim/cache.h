// Lockup-free L1 data cache model (paper Section 6.2): 32 KB, 32-byte
// lines, multi-ported, up to 8 outstanding misses (MSHRs), write-allocate.
// Associativity is not specified in the paper; we use 2-way LRU.
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

/// Timing-free tag array: Lookup returns hit/miss and updates LRU and
/// contents (fill on miss). Miss overlap timing is handled by LoopReplay,
/// which owns the MSHR occupancy model.
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
    Way* const base = &ways_[FirstWay(addr, &tag)];
    ++tick_;
    Way* victim = base;
    for (int a = 0; a < cfg_.associativity; ++a) {
      Way& w = base[a];
      if (w.tag == tag) {
        w.lru = tick_;
        ++hits_;
        return true;
      }
      if (w.lru < victim->lru) victim = &w;
    }
    // Miss: fill the least recently used way (an empty way has lru 0, so
    // it goes first). Which of several empty ways fills is unobservable:
    // hits depend only on the set's contents and their LRU order.
    victim->tag = tag;
    victim->lru = tick_;
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

  struct Way {
    std::uint64_t tag = kEmptyTag;
    std::uint64_t lru = 0;  ///< Larger = more recently used; 0 = empty.
  };

  /// Index in ways_ of the first way of addr's set; sets *tag.
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
  std::vector<Way> ways_;  ///< sets * associativity, set-major.
  std::uint64_t tick_ = 0;
  long hits_ = 0;
  long misses_ = 0;
};

}  // namespace hcrf::memsim
