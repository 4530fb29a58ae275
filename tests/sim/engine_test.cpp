#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace htpb::sim {
namespace {

constexpr EventKind kTestKind = EventKind::kSystemEpochStart;

EventDesc tagged(std::uint64_t tag) { return EventDesc{kTestKind, -1, tag, 0}; }

class CountingTickable final : public Tickable {
 public:
  void tick(Cycle now) override {
    ++ticks;
    last = now;
  }
  int ticks = 0;
  Cycle last = 0;
};

TEST(Engine, StartsAtCycleZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0U);
}

TEST(Engine, TickablesTickedOncePerCycle) {
  Engine e;
  CountingTickable t;
  e.add_tickable(&t);
  e.run_cycles(10);
  EXPECT_EQ(t.ticks, 10);
  EXPECT_EQ(t.last, 9U);
  EXPECT_EQ(e.now(), 10U);
}

TEST(Engine, EventsRunBeforeTicksInSameCycle) {
  Engine e;
  std::vector<int> order;
  class Recorder final : public Tickable {
   public:
    explicit Recorder(std::vector<int>& o) : order_(o) {}
    void tick(Cycle) override { order_.push_back(2); }

   private:
    std::vector<int>& order_;
  };
  Recorder r(order);
  e.add_tickable(&r);
  e.set_handler(kTestKind, -1, [&](const EventDesc&) { order.push_back(1); });
  e.schedule_desc_in(0, tagged(0));
  e.run_cycles(1);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Engine, ScheduleInDelaysCorrectly) {
  Engine e;
  Cycle fired_at = kCycleMax;
  e.set_handler(kTestKind, -1, [&](const EventDesc&) { fired_at = e.now(); });
  e.schedule_desc_in(5, tagged(0));
  e.run_cycles(10);
  EXPECT_EQ(fired_at, 5U);
}

TEST(Engine, ScheduleAtPastClampsToNow) {
  Engine e;
  e.run_cycles(5);
  Cycle fired_at = kCycleMax;
  e.set_handler(kTestKind, -1, [&](const EventDesc&) { fired_at = e.now(); });
  e.schedule_desc_at(2, tagged(0));
  e.run_cycles(2);
  EXPECT_EQ(fired_at, 5U);
}

TEST(Engine, RunUntilInclusive) {
  Engine e;
  int fired = 0;
  e.set_handler(kTestKind, -1, [&](const EventDesc&) { ++fired; });
  e.schedule_desc_at(7, tagged(0));
  e.run_until(7);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.now(), 8U);
}

TEST(Engine, ChainedEventsAcrossCycles) {
  Engine e;
  std::vector<Cycle> fires;
  e.set_handler(kTestKind, -1, [&](const EventDesc& d) {
    fires.push_back(e.now());
    if (fires.size() < 4) e.schedule_desc_in(3, d);
  });
  e.schedule_desc_in(1, tagged(0));
  e.run_cycles(20);
  EXPECT_EQ(fires, (std::vector<Cycle>{1, 4, 7, 10}));
}

TEST(Engine, SameCycleEventsFireInSchedulingOrder) {
  Engine e;
  std::vector<std::uint64_t> order;
  e.set_handler(kTestKind, -1,
                [&](const EventDesc& d) { order.push_back(d.a); });
  for (std::uint64_t i = 0; i < 5; ++i) e.schedule_desc_at(3, tagged(i));
  e.run_cycles(4);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Engine, HandlerMayScheduleMoreEventsForTheSameCycle) {
  Engine e;
  std::vector<std::uint64_t> order;
  std::vector<Cycle> when;
  e.set_handler(kTestKind, -1, [&](const EventDesc& d) {
    order.push_back(d.a);
    when.push_back(e.now());
    if (d.a == 1) e.schedule_desc_in(0, tagged(3));  // same cycle, queued last
  });
  e.schedule_desc_at(1, tagged(1));
  e.schedule_desc_at(1, tagged(2));
  e.run_cycles(2);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{1, 2, 3}));
  EXPECT_EQ(when, (std::vector<Cycle>{1, 1, 1}));
  EXPECT_EQ(e.pending_events(), 0U);
}

TEST(Engine, ExactNodeHandlerWinsOverWildcard) {
  Engine e;
  std::vector<int> hits;
  e.set_handler(kTestKind, -1, [&](const EventDesc&) { hits.push_back(-1); });
  e.set_handler(kTestKind, 4, [&](const EventDesc&) { hits.push_back(4); });
  e.schedule_desc_in(0, EventDesc{kTestKind, 4, 0, 0});
  e.schedule_desc_in(0, EventDesc{kTestKind, 7, 0, 0});
  e.run_cycles(1);
  EXPECT_EQ(hits, (std::vector<int>{4, -1}));
}

TEST(Engine, DispatchWithoutHandlerThrows) {
  Engine e;
  e.schedule_desc_in(0, tagged(0));
  EXPECT_THROW(e.run_cycles(1), std::runtime_error);
}

TEST(Engine, SaveLoadPreservesPendingEventsAndOrder) {
  Engine a;
  a.run_cycles(2);
  a.schedule_desc_at(6, tagged(2));
  a.schedule_desc_at(4, tagged(0));
  a.schedule_desc_at(6, tagged(3));
  a.schedule_desc_at(4, tagged(1));
  const json::Value snap = a.save_state();

  Engine b;
  std::vector<std::uint64_t> order;
  b.set_handler(kTestKind, -1,
                [&](const EventDesc& d) { order.push_back(d.a); });
  b.load_state(snap);
  EXPECT_EQ(b.now(), 2U);
  EXPECT_EQ(b.pending_events(), 4U);
  b.run_until(6);
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(Engine, MultipleTickablesTickInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  class Tagger final : public Tickable {
   public:
    Tagger(std::vector<int>& o, int tag) : order_(o), tag_(tag) {}
    void tick(Cycle) override { order_.push_back(tag_); }

   private:
    std::vector<int>& order_;
    int tag_;
  };
  Tagger a(order, 1);
  Tagger b(order, 2);
  e.add_tickable(&a);
  e.add_tickable(&b);
  e.run_cycles(2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

}  // namespace
}  // namespace htpb::sim
