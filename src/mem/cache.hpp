// Generic set-associative cache with LRU replacement, parameterized on the
// per-line metadata. Addresses are cache-line identifiers (the coherence
// unit); byte offsets never appear in the simulator.
//
// Storage is materialized one set at a time, on the first allocation into
// that set: a chip of hundreds of banks touches only a sliver of its
// lines, so lookups in an untouched set miss without allocating. A
// materialized set never moves, so a Line& stays valid across later
// allocations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace htpb::mem {

template <typename LineData>
class SetAssocCache {
 public:
  struct Line {
    std::uint64_t addr = 0;
    bool valid = false;
    std::uint64_t lru = 0;
    LineData data{};
  };

  SetAssocCache(std::size_t sets, int ways) : sets_(sets), ways_(ways) {
    if (sets == 0 || (sets & (sets - 1)) != 0) {
      throw std::invalid_argument("SetAssocCache: sets must be a power of 2");
    }
    if (ways <= 0) throw std::invalid_argument("SetAssocCache: ways must be > 0");
    storage_.resize(sets);
  }

  [[nodiscard]] std::size_t sets() const noexcept { return sets_; }
  [[nodiscard]] int ways() const noexcept { return ways_; }

  /// Finds a line and touches its LRU stamp. Returns nullptr on miss.
  [[nodiscard]] Line* find(std::uint64_t addr) {
    Line* set = storage_[set_index(addr)].get();
    if (set == nullptr) return nullptr;
    for (int w = 0; w < ways_; ++w) {
      Line& line = set[w];
      if (line.valid && line.addr == addr) {
        line.lru = ++clock_;
        return &line;
      }
    }
    return nullptr;
  }

  /// Peeks without updating LRU (for statistics and assertions).
  [[nodiscard]] const Line* peek(std::uint64_t addr) const {
    const Line* set = storage_[set_index(addr)].get();
    if (set == nullptr) return nullptr;
    for (int w = 0; w < ways_; ++w) {
      const Line& line = set[w];
      if (line.valid && line.addr == addr) return &line;
    }
    return nullptr;
  }

  /// Allocates a line for `addr`, evicting the LRU way if necessary.
  /// `evictable` filters victim candidates (e.g. skip lines with an active
  /// coherence transaction); if no candidate passes, the overall LRU way is
  /// evicted anyway. If an eviction happens, the victim is copied to
  /// `evicted` and true is returned through `did_evict`.
  Line& allocate(std::uint64_t addr, Line* evicted, bool* did_evict,
                 const std::function<bool(const Line&)>& evictable = {}) {
    if (did_evict) *did_evict = false;
    Line* set = materialize(set_index(addr));
    // Prefer an existing or invalid slot.
    for (int w = 0; w < ways_; ++w) {
      Line& line = set[w];
      if (line.valid && line.addr == addr) {
        line.lru = ++clock_;
        return line;
      }
    }
    for (int w = 0; w < ways_; ++w) {
      Line& line = set[w];
      if (!line.valid) {
        line = Line{};
        line.addr = addr;
        line.valid = true;
        line.lru = ++clock_;
        return line;
      }
    }
    // Evict: LRU among candidates passing the filter, else global LRU.
    Line* victim = nullptr;
    for (int pass = 0; pass < 2 && victim == nullptr; ++pass) {
      for (int w = 0; w < ways_; ++w) {
        Line& line = set[w];
        if (pass == 0 && evictable && !evictable(line)) continue;
        if (victim == nullptr || line.lru < victim->lru) victim = &line;
      }
    }
    if (evicted) *evicted = *victim;
    if (did_evict) *did_evict = true;
    *victim = Line{};
    victim->addr = addr;
    victim->valid = true;
    victim->lru = ++clock_;
    return *victim;
  }

  /// Drops a line if present. Returns true when something was removed.
  bool invalidate(std::uint64_t addr) {
    Line* set = storage_[set_index(addr)].get();
    if (set == nullptr) return false;
    for (int w = 0; w < ways_; ++w) {
      Line& line = set[w];
      if (line.valid && line.addr == addr) {
        line = Line{};
        return true;
      }
    }
    return false;
  }

  [[nodiscard]] std::size_t occupancy() const noexcept {
    std::size_t n = 0;
    for_each_valid([&n](std::size_t, const Line&) { ++n; });
    return n;
  }

  /// Checkpointing. A restored cache must reproduce identical victim
  /// choices, so slot positions (set * ways + way) and lru stamps are
  /// captured verbatim. Calls `fn(slot, line)` for every valid line in
  /// ascending slot order.
  template <typename Fn>
  void for_each_valid(Fn&& fn) const {
    const auto ways = static_cast<std::size_t>(ways_);
    for (std::size_t s = 0; s < sets_; ++s) {
      const Line* set = storage_[s].get();
      if (set == nullptr) continue;
      for (std::size_t w = 0; w < ways; ++w) {
        if (set[w].valid) fn(s * ways + w, set[w]);
      }
    }
  }

  /// Empties the cache and releases every materialized set.
  void clear() noexcept {
    for (auto& set : storage_) set.reset();
    clock_ = 0;
  }

  /// The line at `slot` (as reported by for_each_valid), reset to empty
  /// for the caller to fill; materializes its set. Throws
  /// std::out_of_range for a slot past the cache's capacity.
  [[nodiscard]] Line& restore_slot(std::size_t slot) {
    const auto ways = static_cast<std::size_t>(ways_);
    if (slot >= sets_ * ways) {
      throw std::out_of_range("SetAssocCache: slot " + std::to_string(slot) +
                              " outside the cache");
    }
    Line& line = materialize(slot / ways)[slot % ways];
    line = Line{};
    return line;
  }

  [[nodiscard]] std::uint64_t lru_clock() const noexcept { return clock_; }
  void set_lru_clock(std::uint64_t c) noexcept { clock_ = c; }

 private:
  [[nodiscard]] std::size_t set_index(std::uint64_t addr) const noexcept {
    return static_cast<std::size_t>(addr & (sets_ - 1));
  }

  [[nodiscard]] Line* materialize(std::size_t set) {
    std::unique_ptr<Line[]>& lines = storage_[set];
    if (lines == nullptr) {
      lines = std::make_unique<Line[]>(static_cast<std::size_t>(ways_));
    }
    return lines.get();
  }

  std::size_t sets_;
  int ways_;
  /// One way array per set; null until the set's first allocation.
  std::vector<std::unique_ptr<Line[]>> storage_;
  std::uint64_t clock_ = 0;
};

}  // namespace htpb::mem
