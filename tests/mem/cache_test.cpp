#include "mem/cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.hpp"

namespace htpb::mem {
namespace {

using IntCache = SetAssocCache<int>;

TEST(SetAssocCache, MissThenHit) {
  IntCache cache(16, 2);
  EXPECT_EQ(cache.find(0x100), nullptr);
  bool evicted = false;
  auto& line = cache.allocate(0x100, nullptr, &evicted);
  EXPECT_FALSE(evicted);
  line.data = 42;
  auto* found = cache.find(0x100);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->data, 42);
}

TEST(SetAssocCache, RejectsBadGeometry) {
  EXPECT_THROW(IntCache(15, 2), std::invalid_argument);  // not a power of 2
  EXPECT_THROW(IntCache(0, 2), std::invalid_argument);
  EXPECT_THROW(IntCache(16, 0), std::invalid_argument);
}

TEST(SetAssocCache, LruEviction) {
  IntCache cache(1, 2);  // fully associative pair
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted).data = 1;
  cache.allocate(2, nullptr, &evicted).data = 2;
  (void)cache.find(1);  // touch 1: now 2 is LRU
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted);
  EXPECT_TRUE(evicted);
  EXPECT_EQ(victim.addr, 2U);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_EQ(cache.find(2), nullptr);
  EXPECT_NE(cache.find(3), nullptr);
}

TEST(SetAssocCache, SetConflictsOnlyWithinSet) {
  IntCache cache(4, 1);  // direct mapped, 4 sets
  bool evicted = false;
  cache.allocate(0, nullptr, &evicted);   // set 0
  cache.allocate(1, nullptr, &evicted);   // set 1
  cache.allocate(4, nullptr, &evicted);   // set 0 again: evicts addr 0
  EXPECT_TRUE(evicted);
  EXPECT_EQ(cache.find(0), nullptr);
  EXPECT_NE(cache.find(1), nullptr);
  EXPECT_NE(cache.find(4), nullptr);
}

TEST(SetAssocCache, AllocateExistingLineIsIdempotent) {
  IntCache cache(4, 2);
  bool evicted = true;
  auto& first = cache.allocate(8, nullptr, &evicted);
  first.data = 7;
  auto& again = cache.allocate(8, nullptr, &evicted);
  EXPECT_FALSE(evicted);
  EXPECT_EQ(again.data, 7);
  EXPECT_EQ(cache.occupancy(), 1U);
}

TEST(SetAssocCache, EvictableFilterSkipsProtectedLines) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted).data = 1;
  cache.allocate(2, nullptr, &evicted).data = 2;
  IntCache::Line victim;
  // Protect line 1 (the LRU): the filter must divert eviction to line 2.
  cache.allocate(3, &victim, &evicted,
                 [](const IntCache::Line& l) { return l.addr != 1; });
  EXPECT_TRUE(evicted);
  EXPECT_EQ(victim.addr, 2U);
  EXPECT_NE(cache.find(1), nullptr);
}

TEST(SetAssocCache, EvictableFilterFallsBackWhenAllProtected) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted);
  cache.allocate(2, nullptr, &evicted);
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted,
                 [](const IntCache::Line&) { return false; });
  EXPECT_TRUE(evicted);  // global LRU evicted anyway
  EXPECT_EQ(victim.addr, 1U);
}

TEST(SetAssocCache, InvalidateRemovesLine) {
  IntCache cache(4, 2);
  bool evicted = false;
  cache.allocate(5, nullptr, &evicted);
  EXPECT_TRUE(cache.invalidate(5));
  EXPECT_EQ(cache.find(5), nullptr);
  EXPECT_FALSE(cache.invalidate(5));
  EXPECT_EQ(cache.occupancy(), 0U);
}

TEST(SetAssocCache, PeekDoesNotTouchLru) {
  IntCache cache(1, 2);
  bool evicted = false;
  cache.allocate(1, nullptr, &evicted);
  cache.allocate(2, nullptr, &evicted);
  (void)cache.peek(1);  // must NOT refresh line 1
  IntCache::Line victim;
  cache.allocate(3, &victim, &evicted);
  EXPECT_EQ(victim.addr, 1U);  // 1 was still LRU despite the peek
}

TEST(SetAssocCache, ProbingUntouchedSetsAllocatesNothing) {
  IntCache cache(64, 4);
  for (std::uint64_t addr = 0; addr < 1000; ++addr) {
    EXPECT_EQ(cache.find(addr), nullptr);
    EXPECT_EQ(cache.peek(addr), nullptr);
    EXPECT_FALSE(cache.invalidate(addr));
  }
  EXPECT_EQ(cache.occupancy(), 0U);
  std::size_t walked = 0;
  cache.for_each_valid([&walked](std::size_t, const IntCache::Line&) {
    ++walked;
  });
  EXPECT_EQ(walked, 0U);
  EXPECT_EQ(cache.lru_clock(), 0U);
}

TEST(SetAssocCache, RestoreSlotRejectsSlotsPastCapacity) {
  IntCache cache(4, 2);
  EXPECT_NO_THROW((void)cache.restore_slot(7));
  EXPECT_THROW((void)cache.restore_slot(8), std::out_of_range);
}

/// Dense reference model: every slot allocated up front, the cache's
/// documented semantics written out the plain way.
class DenseCache {
 public:
  using Line = IntCache::Line;

  DenseCache(std::size_t sets, int ways)
      : sets_(sets), ways_(static_cast<std::size_t>(ways)),
        lines_(sets * ways_) {}

  Line* find(std::uint64_t addr) {
    Line* line = lookup(addr);
    if (line != nullptr) line->lru = ++clock_;
    return line;
  }

  Line* lookup(std::uint64_t addr) {
    for (std::size_t w = 0; w < ways_; ++w) {
      Line& line = lines_[base(addr) + w];
      if (line.valid && line.addr == addr) return &line;
    }
    return nullptr;
  }

  Line& allocate(std::uint64_t addr, Line* evicted, bool* did_evict,
                 bool (*evictable)(const Line&)) {
    *did_evict = false;
    if (Line* hit = find(addr)) return *hit;
    Line* slot = nullptr;
    for (std::size_t w = 0; w < ways_ && slot == nullptr; ++w) {
      if (!lines_[base(addr) + w].valid) slot = &lines_[base(addr) + w];
    }
    if (slot == nullptr) {
      for (int pass = 0; pass < 2 && slot == nullptr; ++pass) {
        for (std::size_t w = 0; w < ways_; ++w) {
          Line& line = lines_[base(addr) + w];
          if (pass == 0 && evictable != nullptr && !evictable(line)) continue;
          if (slot == nullptr || line.lru < slot->lru) slot = &line;
        }
      }
      *evicted = *slot;
      *did_evict = true;
    }
    *slot = Line{};
    slot->addr = addr;
    slot->valid = true;
    slot->lru = ++clock_;
    return *slot;
  }

  bool invalidate(std::uint64_t addr) {
    Line* line = lookup(addr);
    if (line != nullptr) *line = Line{};
    return line != nullptr;
  }

  [[nodiscard]] std::vector<std::pair<std::size_t, Line>> valid_lines() const {
    std::vector<std::pair<std::size_t, Line>> out;
    for (std::size_t i = 0; i < lines_.size(); ++i) {
      if (lines_[i].valid) out.emplace_back(i, lines_[i]);
    }
    return out;
  }

  [[nodiscard]] std::uint64_t clock() const noexcept { return clock_; }

 private:
  [[nodiscard]] std::size_t base(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>(addr & (sets_ - 1)) * ways_;
  }

  std::size_t sets_;
  std::size_t ways_;
  std::vector<Line> lines_;
  std::uint64_t clock_ = 0;
};

std::vector<std::pair<std::size_t, IntCache::Line>> walk(
    const IntCache& cache) {
  std::vector<std::pair<std::size_t, IntCache::Line>> out;
  cache.for_each_valid([&out](std::size_t slot, const IntCache::Line& line) {
    out.emplace_back(slot, line);
  });
  return out;
}

void expect_same_line(const IntCache::Line& a, const IntCache::Line& b) {
  EXPECT_EQ(a.addr, b.addr);
  EXPECT_EQ(a.valid, b.valid);
  EXPECT_EQ(a.lru, b.lru);
  EXPECT_EQ(a.data, b.data);
}

void expect_same_contents(const IntCache& cache, const DenseCache& ref) {
  const auto got = walk(cache);
  const auto want = ref.valid_lines();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].first, want[i].first) << "slot of line " << i;
    expect_same_line(got[i].second, want[i].second);
  }
  EXPECT_EQ(cache.occupancy(), want.size());
  EXPECT_EQ(cache.lru_clock(), ref.clock());
}

/// Randomized differential run: the lazily materialized cache must agree
/// with the dense model on every hit, victim, LRU stamp and slot, and a
/// clear + slot-by-slot restore must reproduce it exactly.
TEST(SetAssocCache, MatchesDenseReferenceModel) {
  for (const auto& [sets, ways] :
       std::vector<std::pair<std::size_t, int>>{{1, 1}, {4, 2}, {16, 4},
                                                {64, 8}}) {
    IntCache cache(sets, ways);
    DenseCache ref(sets, ways);
    Rng rng(sets * 131 + static_cast<std::uint64_t>(ways));
    // Addresses from a pool a few times the capacity: sets fill, evict
    // and go cold again.
    const std::uint64_t pool = sets * static_cast<std::uint64_t>(ways) * 3;
    const auto odd_data_pinned = +[](const IntCache::Line& l) {
      return (l.data & 1) == 0;
    };
    for (int step = 0; step < 4000; ++step) {
      const std::uint64_t addr = rng.below(pool);
      switch (rng.below(7)) {
        case 0: {
          IntCache::Line* a = cache.find(addr);
          DenseCache::Line* b = ref.find(addr);
          ASSERT_EQ(a == nullptr, b == nullptr) << "find " << addr;
          if (a != nullptr) expect_same_line(*a, *b);
          break;
        }
        case 1: {
          const IntCache::Line* a = cache.peek(addr);
          const DenseCache::Line* b = ref.lookup(addr);
          ASSERT_EQ(a == nullptr, b == nullptr) << "peek " << addr;
          if (a != nullptr) expect_same_line(*a, *b);
          break;
        }
        case 2:
        case 3: {
          const bool filtered = rng.below(2) == 0;
          IntCache::Line va;
          IntCache::Line vb;
          bool ea = false;
          bool eb = false;
          IntCache::Line& a =
              filtered ? cache.allocate(addr, &va, &ea, odd_data_pinned)
                       : cache.allocate(addr, &va, &ea);
          DenseCache::Line& b = ref.allocate(
              addr, &vb, &eb, filtered ? odd_data_pinned : nullptr);
          ASSERT_EQ(ea, eb) << "eviction at " << addr;
          if (ea) expect_same_line(va, vb);
          expect_same_line(a, b);
          if (a.data == 0) {
            a.data = static_cast<int>(rng.below(1000)) + 1;
            b.data = a.data;
          }
          break;
        }
        case 4:
          ASSERT_EQ(cache.invalidate(addr), ref.invalidate(addr));
          break;
        case 5:
          ASSERT_EQ(cache.occupancy(), ref.valid_lines().size());
          break;
        default: {
          // Checkpoint round trip through the valid-line walk.
          const auto saved = walk(cache);
          const std::uint64_t clock = cache.lru_clock();
          cache.clear();
          EXPECT_EQ(cache.occupancy(), 0U);
          EXPECT_EQ(cache.find(addr), nullptr);
          for (const auto& [slot, line] : saved) cache.restore_slot(slot) = line;
          cache.set_lru_clock(clock);
          break;
        }
      }
      expect_same_contents(cache, ref);
      if (HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace htpb::mem
