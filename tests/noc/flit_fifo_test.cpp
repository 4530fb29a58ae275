// Unit tests for the fixed-capacity ring buffer backing router input VCs:
// wraparound (including non-power-of-two capacities), full/empty
// transitions, slot reset on pop, and the credit-interplay pattern
// (occupancy bounded by the credit loop, at and below capacity).
#include "noc/flit_fifo.hpp"

#include <gtest/gtest.h>

#include "noc/config.hpp"
#include "noc/packet.hpp"

namespace htpb::noc {
namespace {

TEST(RingFifo, StartsEmpty) {
  RingFifo<int, 8> f;
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.full());
  EXPECT_EQ(f.size(), 0);
  EXPECT_EQ(f.capacity(), 8);
}

TEST(RingFifo, FifoOrderAcrossWraparound) {
  RingFifo<int, 4> f;
  // Fill, half-drain, refill -- repeatedly, so head walks around the ring
  // several times and every slot gets exercised in both roles.
  int next_push = 0;
  int next_pop = 0;
  for (int round = 0; round < 7; ++round) {
    while (!f.full()) f.push_back(next_push++);
    EXPECT_EQ(f.size(), 4);
    f.pop_front();
    f.pop_front();
    ++next_pop;
    ++next_pop;
    ASSERT_FALSE(f.empty());
    EXPECT_EQ(f.front(), next_pop);
  }
  while (!f.empty()) {
    EXPECT_EQ(f.front(), next_pop++);
    f.pop_front();
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(RingFifo, FullEmptyTransitions) {
  RingFifo<int, 2> f;
  f.push_back(1);
  EXPECT_FALSE(f.empty());
  EXPECT_FALSE(f.full());
  f.push_back(2);
  EXPECT_TRUE(f.full());
  f.pop_front();
  EXPECT_FALSE(f.full());
  f.pop_front();
  EXPECT_TRUE(f.empty());
}

TEST(RingFifo, PopResetsSlotAndReleasesOwnership) {
  // The VC FIFOs hold flits owning PacketPtr handles; pop_front must
  // release the popped slot's handle immediately, not at wraparound --
  // otherwise recycled packets would be pinned by dead buffer slots.
  RingFifo<Flit, 4> f;
  PacketPtr pkt = make_heap_packet();
  Flit flit;
  flit.pkt = pkt;
  f.push_back(flit);
  EXPECT_EQ(pkt->ctrl.refs, 3u);  // pkt + local flit + buffered copy
  f.pop_front();
  EXPECT_EQ(pkt->ctrl.refs, 2u);  // buffered copy released on pop
  flit.pkt.reset();
  EXPECT_EQ(pkt->ctrl.refs, 1u);
}

/// The router's credit loop: `credits` starts at `depth`, each push
/// consumes one, each pop returns one -- so occupancy can never exceed
/// depth, even through sustained wraparound.
template <int kCap>
void run_credit_interplay(int depth) {
  RingFifo<int, kCap> f;
  int credits = depth;
  int pushed = 0;
  int popped = 0;
  for (int step = 0; step < 1000; ++step) {
    const bool can_push = credits > 0;
    if (can_push && (step % 3 != 2)) {  // push-biased schedule
      f.push_back(pushed++);
      --credits;
      EXPECT_EQ(f.at(f.size() - 1), pushed - 1);
    } else if (!f.empty()) {
      EXPECT_EQ(f.front(), popped);
      f.pop_front();
      ++popped;
      ++credits;
    }
    ASSERT_LE(f.size(), depth);
    ASSERT_EQ(f.size(), pushed - popped);
  }
  EXPECT_GT(pushed, 300);  // the schedule actually moved data
}

TEST(RingFifo, CreditInterplayDepthBelowCapacity) {
  // A ring wider than the credit depth (vc_depth below the ring size).
  run_credit_interplay<8>(5);
}

TEST(RingFifo, CreditInterplayAtTableICapacity) {
  // Router buffers are capacity-5 rings (kMaxVcDepth, Table I) run at
  // vc_depth 5: a ring that fills, whose non-power-of-two index wraps by
  // compare.
  static_assert(kMaxVcDepth == 5);
  run_credit_interplay<kMaxVcDepth>(5);
}

}  // namespace
}  // namespace htpb::noc
