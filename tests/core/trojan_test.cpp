// Unit tests of the Trojan's comparator/trigger semantics (Fig. 2a) and
// in-network behaviour on a small mesh.
#include "core/trojan.hpp"

#include <gtest/gtest.h>

#include "noc/network.hpp"
#include "sim/engine.hpp"

namespace htpb::core {
namespace {

noc::Packet config_packet(NodeId gm, std::vector<NodeId> attackers,
                          bool active = true, double scale = 0.10,
                          double boost = 8.0) {
  TrojanConfig cfg;
  cfg.active = active;
  cfg.victim_scale = scale;
  cfg.attacker_boost = boost;
  cfg.global_manager = gm;
  cfg.attacker_agents = std::move(attackers);
  noc::Packet pkt;
  encode_config(cfg, pkt);
  return pkt;
}

noc::Packet power_request(NodeId src, NodeId dst, std::uint32_t mw) {
  noc::Packet pkt;
  pkt.src = src;
  pkt.dst = dst;
  pkt.type = noc::PacketType::kPowerRequest;
  pkt.payload = mw;
  return pkt;
}

TEST(HardwareTrojan, DormantUntilConfigured) {
  HardwareTrojan ht(5);
  EXPECT_FALSE(ht.configured());
  EXPECT_FALSE(ht.active());
  auto req = power_request(1, 9, 1000);
  ht.inspect(req, 5, 0);
  EXPECT_EQ(req.payload, 1000U);
  EXPECT_FALSE(req.tampered);
}

TEST(HardwareTrojan, LatchesConfiguration) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {2, 3});
  ht.inspect(cfg, 5, 0);
  EXPECT_TRUE(ht.configured());
  EXPECT_TRUE(ht.active());
  EXPECT_EQ(ht.global_manager(), 9U);
  EXPECT_EQ(ht.attacker_agents(), (std::vector<NodeId>{2, 3}));
  EXPECT_EQ(ht.stats().config_packets_seen, 1U);
}

TEST(HardwareTrojan, AttenuatesVictimRequestsToManager) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {2});
  ht.inspect(cfg, 5, 0);
  auto req = power_request(1, 9, 2000);
  ht.inspect(req, 5, 1);
  EXPECT_TRUE(req.tampered);
  EXPECT_EQ(req.payload, 200U);
  EXPECT_EQ(req.original_payload, 2000U);
  EXPECT_EQ(ht.stats().victim_requests_modified, 1U);
}

TEST(HardwareTrojan, BoostsAttackerRequests) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {2});
  ht.inspect(cfg, 5, 0);
  auto req = power_request(2, 9, 1000);
  ht.inspect(req, 5, 1);
  EXPECT_FALSE(req.tampered);  // boosting is not an infection
  EXPECT_TRUE(req.boosted);
  EXPECT_EQ(req.payload, 8000U);
  EXPECT_EQ(ht.stats().attacker_requests_boosted, 1U);
}

TEST(HardwareTrojan, IgnoresRequestsToOtherDestinations) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {2});
  ht.inspect(cfg, 5, 0);
  auto req = power_request(1, 8, 2000);  // not the manager
  ht.inspect(req, 5, 1);
  EXPECT_FALSE(req.tampered);
  EXPECT_EQ(req.payload, 2000U);
}

TEST(HardwareTrojan, IgnoresNonPowerTraffic) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {});
  ht.inspect(cfg, 5, 0);
  noc::Packet mem;
  mem.src = 1;
  mem.dst = 9;
  mem.type = noc::PacketType::kMemReadReq;
  mem.payload = 1234;
  ht.inspect(mem, 5, 1);
  EXPECT_EQ(mem.payload, 1234U);
  EXPECT_FALSE(mem.tampered);
}

TEST(HardwareTrojan, DeactivationStopsTampering) {
  HardwareTrojan ht(5);
  auto on = config_packet(9, {2}, /*active=*/true);
  ht.inspect(on, 5, 0);
  auto off = config_packet(9, {2}, /*active=*/false);
  ht.inspect(off, 5, 1);
  EXPECT_FALSE(ht.active());
  auto req = power_request(1, 9, 2000);
  ht.inspect(req, 5, 2);
  EXPECT_FALSE(req.tampered);
}

TEST(HardwareTrojan, ReActivationResumesAttack) {
  // The paper's duty-cycled activation: ON -> OFF -> ON.
  HardwareTrojan ht(5);
  auto on = config_packet(9, {2});
  ht.inspect(on, 5, 0);
  auto off = config_packet(9, {2}, false);
  ht.inspect(off, 5, 1);
  auto on2 = config_packet(9, {2});
  ht.inspect(on2, 5, 2);
  auto req = power_request(1, 9, 2000);
  ht.inspect(req, 5, 3);
  EXPECT_TRUE(req.tampered);
}

TEST(HardwareTrojan, MalformedConfigIgnored) {
  HardwareTrojan ht(5);
  noc::Packet junk;
  junk.type = noc::PacketType::kConfigCmd;  // no options at all
  junk.payload = 0xFFFFFFFF;
  ht.inspect(junk, 5, 0);
  EXPECT_FALSE(ht.configured());
  EXPECT_EQ(ht.stats().config_packets_seen, 0U);
}

TEST(HardwareTrojan, DoubleTamperingPreventedAcrossRouters) {
  // Two Trojans on the same path: the second sees the tampered flag and
  // leaves the (already shrunken) value alone.
  HardwareTrojan first(5);
  HardwareTrojan second(6);
  auto cfg1 = config_packet(9, {2});
  auto cfg2 = config_packet(9, {2});
  first.inspect(cfg1, 5, 0);
  second.inspect(cfg2, 6, 0);
  auto req = power_request(1, 9, 2000);
  first.inspect(req, 5, 1);
  second.inspect(req, 6, 2);
  EXPECT_EQ(req.payload, 200U);  // scaled once, not twice
  EXPECT_EQ(second.stats().victim_requests_modified, 0U);
}

TEST(HardwareTrojan, MinimumOneMilliwattAfterScaling) {
  HardwareTrojan ht(5);
  auto cfg = config_packet(9, {}, true, 0.01, 8.0);
  ht.inspect(cfg, 5, 0);
  auto req = power_request(1, 9, 10);  // 10 mW * 0.01 -> would round to 0
  ht.inspect(req, 5, 1);
  EXPECT_EQ(req.payload, 1U);
}

TEST(HardwareTrojan, SaveLoadRoundTripRewritesIdentically) {
  HardwareTrojan original(5);
  auto cfg = config_packet(9, {2, 7}, true, 0.3, 2.5);
  original.inspect(cfg, 5, 0);
  auto warm = power_request(1, 9, 1500);
  original.inspect(warm, 5, 1);  // non-zero counters go through the snapshot

  HardwareTrojan restored(5);
  restored.load_state(original.save_state());
  EXPECT_TRUE(restored.configured());
  EXPECT_TRUE(restored.active());
  EXPECT_EQ(restored.global_manager(), 9U);
  EXPECT_EQ(restored.attacker_agents(), (std::vector<NodeId>{2, 7}));
  EXPECT_EQ(json::dump(restored.save_state()),
            json::dump(original.save_state()));

  for (const NodeId src : {NodeId{1}, NodeId{7}}) {
    auto a = power_request(src, 9, 2000);
    auto b = power_request(src, 9, 2000);
    original.inspect(a, 5, 2);
    restored.inspect(b, 5, 2);
    EXPECT_EQ(a.payload, b.payload) << "src " << src;
    EXPECT_EQ(a.tampered, b.tampered) << "src " << src;
    EXPECT_EQ(a.boosted, b.boosted) << "src " << src;
    EXPECT_EQ(a.original_payload, b.original_payload) << "src " << src;
  }
  EXPECT_EQ(restored.stats().victim_requests_modified, 2U);
  EXPECT_EQ(restored.stats().attacker_requests_boosted, 1U);
  EXPECT_EQ(json::dump(restored.save_state()),
            json::dump(original.save_state()));
}

TEST(HardwareTrojan, EndToEndOverMesh) {
  // Trojan in a transit router modifies a request in flight; a request
  // routed around it stays clean.
  sim::Engine engine;
  MeshGeometry geom(4, 1);  // 0 - 1 - 2 - 3 in a row
  noc::NocConfig cfg;
  noc::MeshNetwork net(engine, geom, cfg);
  HardwareTrojan ht(1);
  net.add_inspector(1, &ht);

  std::vector<noc::Packet> received;
  net.set_handler(3, [&](const noc::Packet& p) { received.push_back(p); });

  // Configure via an in-band packet crossing router 1.
  auto cfg_pkt = net.make_packet(0, 3, noc::PacketType::kConfigCmd);
  TrojanConfig tc;
  tc.global_manager = 3;
  tc.attacker_agents = {0};
  tc.victim_scale = 0.25;
  encode_config(tc, *cfg_pkt);
  net.send(std::move(cfg_pkt));
  engine.run_cycles(40);
  ASSERT_TRUE(ht.active());

  // Victim request from node 1's neighbourhood crossing the Trojan.
  net.send(net.make_packet(1, 3, noc::PacketType::kPowerRequest, 1000));
  // Request from node 2: its XY path (2 -> 3) avoids router 1.
  net.send(net.make_packet(2, 3, noc::PacketType::kPowerRequest, 1000));
  engine.run_cycles(60);

  ASSERT_EQ(received.size(), 3U);  // config + 2 requests
  std::uint32_t tampered_count = 0;
  for (const auto& p : received) {
    if (p.type != noc::PacketType::kPowerRequest) continue;
    if (p.src == 1) {
      EXPECT_TRUE(p.tampered);
      EXPECT_EQ(p.payload, 250U);
      ++tampered_count;
    } else {
      EXPECT_FALSE(p.tampered);
      EXPECT_EQ(p.payload, 1000U);
    }
  }
  EXPECT_EQ(tampered_count, 1U);
}

}  // namespace
}  // namespace htpb::core
