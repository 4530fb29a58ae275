// Ring buffers for the NoC hot paths.
//
// RingFifo: fixed-capacity inline ring for router input-VC FIFOs. Table I
// caps VC depth at a handful of flits, so a bounded ring with inline
// storage beats std::deque's chunked heap allocation on every axis that
// matters here: zero allocation, contiguous slots, trivially predictable
// head/tail arithmetic. Capacity is any compile-time size (Table I's
// 5-flit depth is not a power of two), so indices wrap with one compare
// instead of a mask; the credit protocol keeps occupancy <= vc_depth <=
// kCap, and push/pop assert it.
//
// DynRingFifo: growable power-of-two ring for the NI inject/eject queues,
// whose occupancy is workload-dependent (a global-manager grant burst can
// enqueue one packet per node in a single cycle) and so cannot use a
// compile-time cap. Same contiguous-slot layout; doubles and unwraps when
// full. FIFO semantics are identical to std::deque's push_back/pop_front,
// so swapping it in cannot change simulation results.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <cstddef>
#include <utility>
#include <vector>

namespace htpb::noc {

template <typename T, int kCap>
class RingFifo {
  static_assert(kCap > 0, "RingFifo capacity must be positive");

 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] bool full() const noexcept { return size_ == kCap; }
  [[nodiscard]] int size() const noexcept { return size_; }
  [[nodiscard]] static constexpr int capacity() noexcept { return kCap; }

  [[nodiscard]] T& front() noexcept {
    assert(!empty());
    return slots_[static_cast<std::size_t>(head_)];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(!empty());
    return slots_[static_cast<std::size_t>(head_)];
  }

  /// Element `i` counted from the front (checkpoint enumeration).
  [[nodiscard]] const T& at(int i) const noexcept {
    assert(i >= 0 && i < size_);
    return slots_[wrap(head_ + i)];
  }

  void push_back(T&& v) noexcept {
    assert(!full());
    slots_[wrap(head_ + size_)] = std::move(v);
    ++size_;
  }
  void push_back(const T& v) noexcept {
    assert(!full());
    slots_[wrap(head_ + size_)] = v;
    ++size_;
  }

  /// Pops the front and resets the vacated slot, so a T holding shared
  /// resources (a flit's PacketPtr) releases them now, not at wraparound.
  void pop_front() noexcept {
    assert(!empty());
    slots_[static_cast<std::size_t>(head_)] = T{};
    head_ = head_ + 1 == kCap ? 0 : head_ + 1;
    --size_;
  }

  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  /// Maps head_ + offset (offset < kCap, so the sum < 2 * kCap) to a slot.
  [[nodiscard]] static std::size_t wrap(int i) noexcept {
    return static_cast<std::size_t>(i >= kCap ? i - kCap : i);
  }

  std::array<T, kCap> slots_{};
  int head_ = 0;
  int size_ = 0;
};

template <typename T>
class DynRingFifo {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  [[nodiscard]] T& front() noexcept {
    assert(!empty());
    return slots_[head_];
  }
  [[nodiscard]] const T& front() const noexcept {
    assert(!empty());
    return slots_[head_];
  }

  /// Element `i` counted from the front (checkpoint enumeration).
  [[nodiscard]] const T& at(std::size_t i) const noexcept {
    assert(i < size_);
    return slots_[(head_ + i) & mask()];
  }

  void push_back(T v) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask()] = std::move(v);
    ++size_;
  }

  /// Pops the front and resets the vacated slot, so a T holding shared
  /// resources (a PacketPtr) releases them now, not at wraparound.
  void pop_front() noexcept {
    assert(!empty());
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask();
    --size_;
  }

  void clear() noexcept {
    while (!empty()) pop_front();
  }

 private:
  [[nodiscard]] std::size_t mask() const noexcept { return slots_.size() - 1; }

  void grow() {
    const std::size_t cap = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask()]);
    }
    slots_ = std::move(next);
    head_ = 0;
  }

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace htpb::noc
