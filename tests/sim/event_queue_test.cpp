#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

namespace htpb::sim {
namespace {

/// A descriptor tagged through its payload, so tests can read back the
/// order in which the queue hands events out.
EventDesc tagged(std::uint64_t tag) {
  return EventDesc{EventKind::kSystemEpochStart, -1, tag, 0};
}

std::vector<std::uint64_t> drain(EventQueue& q) {
  std::vector<std::uint64_t> tags;
  while (!q.empty()) tags.push_back(q.pop().a);
  return tags;
}

TEST(EventQueue, EmptyByDefault) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0U);
  EXPECT_EQ(q.next_time(), kCycleMax);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  q.schedule(30, tagged(3));
  q.schedule(10, tagged(1));
  q.schedule(20, tagged(2));
  EXPECT_EQ(drain(q), (std::vector<std::uint64_t>{1, 2, 3}));
}

TEST(EventQueue, FifoTieBreakAtSameTimestamp) {
  EventQueue q;
  for (std::uint64_t i = 0; i < 10; ++i) q.schedule(5, tagged(i));
  const std::vector<std::uint64_t> order = drain(q);
  ASSERT_EQ(order.size(), 10U);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NextTimeTracksEarliestPendingEvent) {
  EventQueue q;
  q.schedule(3, tagged(3));
  q.schedule(1, tagged(1));
  q.schedule(2, tagged(2));
  EXPECT_EQ(q.next_time(), 1U);
  EXPECT_EQ(q.pop().a, 1U);
  EXPECT_EQ(q.pop().a, 2U);
  EXPECT_EQ(q.size(), 1U);
  EXPECT_EQ(q.next_time(), 3U);
}

TEST(EventQueue, PendingListsEventsInFiringOrder) {
  EventQueue q;
  q.schedule(7, tagged(2));
  q.schedule(4, tagged(0));
  q.schedule(7, tagged(3));
  q.schedule(4, tagged(1));
  const std::vector<EventQueue::PendingEvent> pending = q.pending();
  ASSERT_EQ(pending.size(), 4U);
  for (std::size_t i = 0; i < pending.size(); ++i) {
    EXPECT_EQ(pending[i].desc.a, i);
    EXPECT_EQ(pending[i].when, i < 2 ? 4U : 7U);
  }
  EXPECT_EQ(q.size(), 4U);  // enumeration does not consume
}

TEST(EventQueue, ClearDropsEverything) {
  EventQueue q;
  q.schedule(1, tagged(1));
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kCycleMax);
}

}  // namespace
}  // namespace htpb::sim
