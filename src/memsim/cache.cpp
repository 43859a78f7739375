#include "memsim/cache.h"

#include <algorithm>
#include <bit>

#include "core/check.h"

namespace hcrf::memsim {

Cache::Cache(const CacheConfig& cfg) : cfg_(cfg) {
  HCRF_CHECK(cfg_.line_bytes > 0 && cfg_.associativity > 0 &&
                 cfg_.NumSets() > 0,
             "cache geometry %ld B / %d B lines / %d ways has no sets",
             cfg_.size_bytes, cfg_.line_bytes, cfg_.associativity);
  const auto line_bytes = static_cast<std::uint64_t>(cfg_.line_bytes);
  const auto sets = static_cast<std::uint64_t>(cfg_.NumSets());
  HCRF_CHECK(std::has_single_bit(line_bytes) && std::has_single_bit(sets),
             "cache geometry %ld B / %d B lines / %d ways: line size and "
             "set count must be powers of two",
             cfg_.size_bytes, cfg_.line_bytes, cfg_.associativity);
  HCRF_CHECK(line_bytes * sets >= 2,
             "a one-byte, one-set cache leaves no tag for empty ways");
  line_shift_ = std::countr_zero(line_bytes);
  set_shift_ = std::countr_zero(sets);
  set_mask_ = sets - 1;
  tags_.assign(static_cast<std::size_t>(sets) *
                   static_cast<std::size_t>(cfg_.associativity),
               kEmptyTag);
}

void Cache::Reset() {
  std::fill(tags_.begin(), tags_.end(), kEmptyTag);
  hits_ = 0;
  misses_ = 0;
}

bool Cache::Probe(std::uint64_t addr) const {
  std::uint64_t tag = 0;
  const std::uint64_t* const set = &tags_[FirstWay(addr, &tag)];
  return std::find(set, set + cfg_.associativity, tag) !=
         set + cfg_.associativity;
}

}  // namespace hcrf::memsim
