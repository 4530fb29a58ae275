#include "noc/router.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/snapshot.hpp"

namespace htpb::noc {

namespace {

json::Value router_stats_to_json(const RouterStats& s) {
  json::Object o;
  o["flits_forwarded"] = common::ju64(s.flits_forwarded);
  o["packets_routed"] = common::ju64(s.packets_routed);
  o["power_requests_seen"] = common::ju64(s.power_requests_seen);
  o["flits_ejected"] = common::ju64(s.flits_ejected);
  o["sa_conflict_stalls"] = common::ju64(s.sa_conflict_stalls);
  o["va_stalls"] = common::ju64(s.va_stalls);
  return json::Value(std::move(o));
}

RouterStats router_stats_from_json(const json::Value& v) {
  const json::Object& o = v.as_object();
  RouterStats s;
  s.flits_forwarded = common::pu64(*o.find("flits_forwarded"));
  s.packets_routed = common::pu64(*o.find("packets_routed"));
  s.power_requests_seen = common::pu64(*o.find("power_requests_seen"));
  s.flits_ejected = common::pu64(*o.find("flits_ejected"));
  s.sa_conflict_stalls = common::pu64(*o.find("sa_conflict_stalls"));
  s.va_stalls = common::pu64(*o.find("va_stalls"));
  return s;
}

}  // namespace

Router::Router(NodeId id, const MeshGeometry& geom, const NocConfig& cfg,
               const RoutingAlgorithm* routing)
    : id_(id), geom_(geom), coord_(geom.coord_of(id)), cfg_(cfg),
      routing_(routing),
      routing_uses_credits_(routing != nullptr && routing->uses_credits()) {
  if (cfg_.vcs < 2 || cfg_.vcs % 2 != 0) {
    throw std::invalid_argument("Router: vcs must be even and >= 2");
  }
  // Depth 0 would start every NI at 0 credits: a mesh that never injects.
  if (cfg_.vcs > kMaxVcs || cfg_.vc_depth < 1 || cfg_.vc_depth > kMaxVcDepth) {
    throw std::invalid_argument(
        "Router: need vcs <= " + std::to_string(kMaxVcs) +
        " and 1 <= vc_depth <= " + std::to_string(kMaxVcDepth) +
        " (the Table I inline-storage caps kMaxVcs/kMaxVcDepth in "
        "noc/config.hpp)");
  }
  for (auto& port : out_) {
    for (int v = 0; v < cfg_.vcs; ++v) {
      port.vcs[static_cast<std::size_t>(v)].credits = cfg_.vc_depth;
    }
  }
  out_[port_index(Direction::kLocal)].connected = true;
}

void Router::set_port_connected(Direction p, bool connected) {
  out_[port_index(p)].connected = connected;
}

void Router::accept_flit(Direction in_port, const Flit& flit, Cycle arrival) {
  InputPort& iport = in_[port_index(in_port)];
  InputVc& ivc = iport.vcs[static_cast<std::size_t>(flit.vc)];
  assert(ivc.fifo.size() < cfg_.vc_depth &&
         "credit protocol violated: input buffer overflow");
  // A head landing at the front of an idle VC starts waiting for RC.
  if (!ivc.active && ivc.fifo.empty() && flit.is_head) {
    ++iport.rc_pending;
    ++rc_pending_total_;
    rc_ready_at_ = std::min(rc_ready_at_, arrival + 1);
  }
  ivc.fifo.push_back(BufferedFlit{flit, arrival, false});
  ++buffered_flits_;
}

int Router::free_credits_for_class(Direction p, int vc_class) const noexcept {
  const OutputPort& port = out_[port_index(p)];
  if (!port.connected) return -1;
  int sum = 0;
  const int base = cfg_.class_base(vc_class);
  for (int v = base; v < base + cfg_.vcs_per_class(); ++v) {
    sum += port.vcs[static_cast<std::size_t>(v)].credits;
  }
  return sum;
}

void Router::tick_sa_st(Cycle now, std::vector<LinkTransfer>& transfers,
                        std::vector<CreditReturn>& credits) {
  if (buffered_flits_ == 0) return;
  const int candidates = kNumPorts * cfg_.vcs;
  bool input_used[kNumPorts] = {false, false, false, false, false};

  for (int pi = 0; pi < kNumPorts; ++pi) {
    OutputPort& oport = out_[pi];
    if (!oport.connected || oport.active_inputs == 0) continue;
    const auto out_dir = static_cast<Direction>(pi);

    // Order the routed input VCs by circular distance from rr_candidate.
    // Evaluating them in that order is exactly the old full scan over all
    // (in_port, vc) combinations -- unrouted combinations had no effect --
    // so grants and conflict-stall counts stay bit-identical.
    const int n = oport.active_inputs;
    SaCandidate ord[kNumPorts * kMaxVcs];
    int ord_dist[kNumPorts * kMaxVcs];
    for (int i = 0; i < n; ++i) {
      const SaCandidate sc = oport.routed[static_cast<std::size_t>(i)];
      int dist = static_cast<int>(sc.cand) - oport.rr_candidate;
      if (dist < 0) dist += candidates;
      int j = i;
      while (j > 0 && ord_dist[j - 1] > dist) {
        ord[j] = ord[j - 1];
        ord_dist[j] = ord_dist[j - 1];
        --j;
      }
      ord[j] = sc;
      ord_dist[j] = dist;
    }

    for (int k = 0; k < n; ++k) {
      const SaCandidate sc = ord[k];
      const int in_pi = sc.in_port;
      const int in_vc = sc.in_vc;
      if (input_used[in_pi]) continue;
      InputVc& ivc = in_[in_pi].vcs[static_cast<std::size_t>(in_vc)];
      assert(ivc.active && ivc.out_port == out_dir);
      if (ivc.fifo.empty()) continue;

      const BufferedFlit& front = ivc.fifo.front();
      // The flit spends cfg_.router_latency cycles in this router before it
      // may traverse the switch.
      if (now < front.arrival + static_cast<Cycle>(cfg_.router_latency)) {
        continue;
      }
      OutputVc& ovc = oport.vcs[static_cast<std::size_t>(ivc.out_vc)];
      if (ovc.credits <= 0) {
        ++stats_.sa_conflict_stalls;
        continue;
      }

      // Grant: move the flit through the crossbar onto the link.
      Flit flit = front.flit;
      flit.vc = static_cast<std::int8_t>(ivc.out_vc);
      ivc.fifo.pop_front();
      --buffered_flits_;
      --ovc.credits;
      ++stats_.flits_forwarded;
      if (out_dir == Direction::kLocal) ++stats_.flits_ejected;

      transfers.push_back(LinkTransfer{id_, out_dir, std::move(flit)});
      credits.push_back(
          CreditReturn{id_, static_cast<Direction>(in_pi), in_vc});

      if (transfers.back().flit.is_tail) {
        ovc.allocated = false;
        ivc.active = false;
        ivc.out_vc = -1;
        // Swap-remove the candidate from the routed list.
        for (int i = 0; i < oport.active_inputs; ++i) {
          if (oport.routed[static_cast<std::size_t>(i)].cand == sc.cand) {
            oport.routed[static_cast<std::size_t>(i)] =
                oport.routed[static_cast<std::size_t>(oport.active_inputs - 1)];
            break;
          }
        }
        --oport.active_inputs;
        // The next packet's head (if queued behind the tail) now fronts an
        // idle VC and waits for RC.
        if (!ivc.fifo.empty() && ivc.fifo.front().flit.is_head) {
          ++in_[in_pi].rc_pending;
          ++rc_pending_total_;
          rc_ready_at_ =
              std::min(rc_ready_at_, ivc.fifo.front().arrival + 1);
        }
      }
      input_used[in_pi] = true;
      oport.rr_candidate = sc.cand + 1 == candidates ? 0 : sc.cand + 1;
      break;  // one flit per output port per cycle
    }
  }
}

json::Value Router::save_state() const {
  json::Object o;
  json::Array in_ports;
  for (int pi = 0; pi < kNumPorts; ++pi) {
    const InputPort& port = in_[static_cast<std::size_t>(pi)];
    json::Object po;
    json::Array vcs;
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      const InputVc& ivc = port.vcs[static_cast<std::size_t>(vi)];
      json::Object vo;
      json::Array fifo;
      for (int i = 0; i < ivc.fifo.size(); ++i) {
        const BufferedFlit& bf = ivc.fifo.at(i);
        json::Array e;
        e.push_back(flit_to_json(bf.flit));
        e.push_back(common::ju64(bf.arrival));
        e.push_back(json::Value(bf.inspected));
        fifo.push_back(json::Value(std::move(e)));
      }
      vo["fifo"] = json::Value(std::move(fifo));
      vo["active"] = json::Value(ivc.active);
      vo["out_port"] = json::Value(static_cast<long long>(ivc.out_port));
      vo["out_vc"] = json::Value(static_cast<long long>(ivc.out_vc));
      vo["alloc_cycle"] = common::ju64(ivc.alloc_cycle);
      vcs.push_back(json::Value(std::move(vo)));
    }
    po["vcs"] = json::Value(std::move(vcs));
    po["rc_pending"] = json::Value(static_cast<long long>(port.rc_pending));
    in_ports.push_back(json::Value(std::move(po)));
  }
  o["in"] = json::Value(std::move(in_ports));

  json::Array out_ports;
  for (int pi = 0; pi < kNumPorts; ++pi) {
    const OutputPort& port = out_[static_cast<std::size_t>(pi)];
    json::Object po;
    json::Array vcs;
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      const OutputVc& ovc = port.vcs[static_cast<std::size_t>(vi)];
      json::Array e;
      e.push_back(json::Value(static_cast<long long>(ovc.credits)));
      e.push_back(json::Value(ovc.allocated));
      vcs.push_back(json::Value(std::move(e)));
    }
    po["vcs"] = json::Value(std::move(vcs));
    po["rr_candidate"] = json::Value(static_cast<long long>(port.rr_candidate));
    po["rr_vc"] = json::Value(static_cast<long long>(port.rr_vc));
    json::Array routed;
    for (int i = 0; i < port.active_inputs; ++i) {
      const SaCandidate& sc = port.routed[static_cast<std::size_t>(i)];
      json::Array e;
      e.push_back(json::Value(static_cast<long long>(sc.cand)));
      e.push_back(json::Value(static_cast<long long>(sc.in_port)));
      e.push_back(json::Value(static_cast<long long>(sc.in_vc)));
      routed.push_back(json::Value(std::move(e)));
    }
    po["routed"] = json::Value(std::move(routed));
    out_ports.push_back(json::Value(std::move(po)));
  }
  o["out"] = json::Value(std::move(out_ports));
  o["stats"] = router_stats_to_json(stats_);
  return json::Value(std::move(o));
}

void Router::load_state(const json::Value& v, const PacketResolver& resolve) {
  const json::Object& o = v.as_object();
  buffered_flits_ = 0;
  rc_pending_total_ = 0;
  rc_ready_at_ = 0;  // rescan on the next tick; the scan recomputes it

  const json::Array& in_ports = o.find("in")->as_array();
  for (int pi = 0; pi < kNumPorts; ++pi) {
    InputPort& port = in_[static_cast<std::size_t>(pi)];
    const json::Object& po = in_ports.at(static_cast<std::size_t>(pi)).as_object();
    const json::Array& vcs = po.find("vcs")->as_array();
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      InputVc& ivc = port.vcs[static_cast<std::size_t>(vi)];
      const json::Object& vo = vcs.at(static_cast<std::size_t>(vi)).as_object();
      ivc.fifo.clear();
      for (const json::Value& ev : vo.find("fifo")->as_array()) {
        const json::Array& e = ev.as_array();
        BufferedFlit bf;
        bf.flit = flit_from_json(e.at(0), resolve);
        bf.arrival = common::pu64(e.at(1));
        bf.inspected = e.at(2).as_bool();
        ivc.fifo.push_back(std::move(bf));
        ++buffered_flits_;
      }
      ivc.active = vo.find("active")->as_bool();
      ivc.out_port = static_cast<Direction>(vo.find("out_port")->as_int());
      ivc.out_vc = static_cast<int>(vo.find("out_vc")->as_int());
      ivc.alloc_cycle = common::pu64(*vo.find("alloc_cycle"));
    }
    port.rc_pending = static_cast<int>(po.find("rc_pending")->as_int());
    rc_pending_total_ += port.rc_pending;
  }

  const json::Array& out_ports = o.find("out")->as_array();
  for (int pi = 0; pi < kNumPorts; ++pi) {
    OutputPort& port = out_[static_cast<std::size_t>(pi)];
    const json::Object& po =
        out_ports.at(static_cast<std::size_t>(pi)).as_object();
    const json::Array& vcs = po.find("vcs")->as_array();
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      OutputVc& ovc = port.vcs[static_cast<std::size_t>(vi)];
      const json::Array& e = vcs.at(static_cast<std::size_t>(vi)).as_array();
      ovc.credits = static_cast<int>(e.at(0).as_int());
      ovc.allocated = e.at(1).as_bool();
    }
    port.rr_candidate = static_cast<int>(po.find("rr_candidate")->as_int());
    port.rr_vc = static_cast<int>(po.find("rr_vc")->as_int());
    const json::Array& routed = po.find("routed")->as_array();
    port.active_inputs = static_cast<int>(routed.size());
    port.routed = {};
    for (std::size_t i = 0; i < routed.size(); ++i) {
      const json::Array& e = routed[i].as_array();
      port.routed[i] = SaCandidate{
          static_cast<std::uint8_t>(e.at(0).as_int()),
          static_cast<std::uint8_t>(e.at(1).as_int()),
          static_cast<std::uint8_t>(e.at(2).as_int())};
    }
  }
  stats_ = router_stats_from_json(*o.find("stats"));
}

void Router::run_inspectors(Packet& pkt, Cycle now) {
  for (PacketInspector* inspector : inspectors_) {
    inspector->inspect(pkt, id_, now);
  }
}

void Router::tick_rc_va(Cycle now) {
  // Only input VCs fronted by an unrouted head need RC/VA; their count is
  // tracked by accept_flit / tick_sa_st, so quiet routers and mid-packet
  // VCs cost nothing here. Nor does a router whose waiting heads are all
  // still in buffer write or were scanned to no effect: rc_ready_at_ is
  // the earliest cycle at which this scan can act on any of them.
  if (rc_pending_total_ == 0 || now < rc_ready_at_) return;
  Cycle next_ready = kCycleMax;
  for (int pi = 0; pi < kNumPorts; ++pi) {
    if (in_[pi].rc_pending == 0) continue;
    for (int vi = 0; vi < cfg_.vcs; ++vi) {
      InputVc& ivc = in_[pi].vcs[static_cast<std::size_t>(vi)];
      if (ivc.active || ivc.fifo.empty()) continue;
      BufferedFlit& front = ivc.fifo.front();
      if (!front.flit.is_head) continue;  // waiting for a stale tail: bug guard
      // One cycle of buffer write before the head enters RC.
      if (now < front.arrival + 1) {
        next_ready = std::min(next_ready, front.arrival + 1);
        continue;
      }

      Packet& pkt = *front.flit.pkt;
      if (!front.inspected) {
        // Fig. 2b: the Trojan taps the path between the input buffer and
        // the routing-computation unit, so it sees the packet exactly once
        // per router, before the route is computed.
        run_inspectors(pkt, now);
        front.inspected = true;
        if (pkt.type == PacketType::kPowerRequest) {
          ++stats_.power_requests_seen;
        }
      }

      RouteQuery q;
      q.here = coord_;
      q.dst = geom_.coord_of(pkt.dst);
      q.vc_class = vc_class_of(pkt.type);
      if (routing_uses_credits_) {
        for (int p = 0; p < kNumPorts; ++p) {
          q.free_credits[p] =
              free_credits_for_class(static_cast<Direction>(p), q.vc_class);
        }
      }

      const Direction out_dir = routing_->select(q);
      OutputPort& oport = out_[port_index(out_dir)];
      assert(oport.connected && "routing selected a disconnected port");

      // VC allocation: round-robin over the free VCs of the packet's class.
      const int base = cfg_.class_base(q.vc_class);
      const int span = cfg_.vcs_per_class();
      int granted = -1;
      for (int k = 0; k < span; ++k) {
        int rel = oport.rr_vc + k;
        if (rel >= span) rel -= span;
        const int v = base + rel;
        if (!oport.vcs[static_cast<std::size_t>(v)].allocated) {
          granted = v;
          break;
        }
      }
      if (granted < 0) {
        // Retried every cycle: an output VC may free up in any SA stage.
        ++stats_.va_stalls;
        next_ready = std::min(next_ready, now + 1);
        continue;
      }
      oport.vcs[static_cast<std::size_t>(granted)].allocated = true;
      const int next_rr = granted - base + 1;
      oport.rr_vc = next_rr == span ? 0 : next_rr;
      oport.routed[static_cast<std::size_t>(oport.active_inputs)] =
          SaCandidate{static_cast<std::uint8_t>(pi * cfg_.vcs + vi),
                      static_cast<std::uint8_t>(pi),
                      static_cast<std::uint8_t>(vi)};
      ++oport.active_inputs;
      ivc.active = true;
      ivc.out_port = out_dir;
      ivc.out_vc = granted;
      ivc.alloc_cycle = now;
      ++stats_.packets_routed;
      --in_[pi].rc_pending;
      --rc_pending_total_;
    }
  }
  rc_ready_at_ = next_ready;
}

}  // namespace htpb::noc
