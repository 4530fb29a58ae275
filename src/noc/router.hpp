// Input-buffered virtual-channel wormhole router.
//
// Microarchitecture (Table I / Sec. III-D of the paper): 5 ports, 4 VCs per
// input port with 5-flit FIFOs, credit-based flow control, a 2-cycle router
// pipeline (buffer-write + route-compute/VC-allocate, then switch-allocate +
// switch-traverse) and 1-cycle links. The PacketInspector chain runs between
// the input buffer and route computation -- the attachment point of the
// paper's hardware Trojan (Fig. 2b).
//
// Hot-path layout: VC state lives in fixed-size inline arrays sized
// exactly to Table I (kMaxVcs x kMaxVcDepth = 4 x 5, noc/config.hpp), so a
// router is one dense ~4.4 KB block with no per-router heap graph; input
// FIFOs are bounded rings (flit_fifo.hpp), and each output port keeps the
// list of input VCs currently routed to it so switch allocation only
// examines real candidates instead of scanning all kNumPorts x vcs
// combinations -- while granting in exactly the same round-robin order as
// the full scan did. RC/VA is skipped outright until the earliest cycle a
// waiting head can be routed (rc_ready_at_).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "common/geometry.hpp"
#include "common/types.hpp"
#include "noc/config.hpp"
#include "noc/direction.hpp"
#include "noc/flit_fifo.hpp"
#include "noc/inspector.hpp"
#include "noc/packet.hpp"
#include "noc/routing.hpp"

namespace htpb::noc {

/// Per-router utilization counters -- what an on-chip traffic diagnostic
/// would see. The paper's false-data attack leaves every one of these
/// unchanged relative to a clean run (it rewrites payloads in flight),
/// which is why the comparison benches print them.
struct RouterStats {
  std::uint64_t flits_forwarded = 0;      ///< flits sent out any non-local port
  std::uint64_t packets_routed = 0;       ///< head flits that completed RC
  std::uint64_t power_requests_seen = 0;  ///< POWER_REQ heads inspected
  std::uint64_t flits_ejected = 0;        ///< flits delivered to the local NI
  std::uint64_t sa_conflict_stalls = 0;   ///< switch-allocation losses
  std::uint64_t va_stalls = 0;            ///< head flits waiting for an output VC
};

/// A flit leaving a router this cycle, to be applied by the network after
/// every router has ticked (two-phase update keeps evaluation
/// order-independent and deterministic).
struct LinkTransfer {
  NodeId from_router = kInvalidNode;
  Direction out_port = Direction::kLocal;
  Flit flit;
};

/// Buffer slot freed in `router`'s input `in_port`/`vc`; the network
/// forwards it upstream (neighbour router or local NI) as a credit.
struct CreditReturn {
  NodeId router = kInvalidNode;
  Direction in_port = Direction::kLocal;
  int vc = 0;
};

/// One mesh router. The network ticks every router's SA/ST stage, applies
/// the produced link transfers and credits, then ticks every RC/VA stage
/// -- a two-phase update, so the result is independent of router order.
class Router {
 public:
  Router(NodeId id, const MeshGeometry& geom, const NocConfig& cfg,
         const RoutingAlgorithm* routing);

  [[nodiscard]] NodeId id() const noexcept { return id_; }
  [[nodiscard]] Coord coord() const noexcept { return coord_; }

  /// Marks an output port as wired (edge routers leave mesh-boundary ports
  /// disconnected). Local is always connected.
  void set_port_connected(Direction p, bool connected);
  [[nodiscard]] bool port_connected(Direction p) const noexcept {
    return out_[port_index(p)].connected;
  }

  /// Accepts a flit into an input buffer; `arrival` is the cycle at which
  /// the flit has been fully written (becomes visible to the pipeline).
  void accept_flit(Direction in_port, const Flit& flit, Cycle arrival);

  /// Pipeline stage 2: switch allocation + traversal. At most one flit per
  /// output port and one per input port per cycle.
  void tick_sa_st(Cycle now, std::vector<LinkTransfer>& transfers,
                  std::vector<CreditReturn>& credits);

  /// Pipeline stage 1 (for newly arrived heads): inspection, route
  /// computation, VC allocation. Runs after SA within a tick so grants take
  /// effect the following cycle.
  void tick_rc_va(Cycle now);

  /// Credit bookkeeping for the downstream buffer behind output port `p`.
  void add_output_credit(Direction p, int vc) noexcept {
    ++out_[port_index(p)].vcs[static_cast<std::size_t>(vc)].credits;
  }
  [[nodiscard]] int output_credits(Direction p, int vc) const noexcept {
    return out_[port_index(p)].vcs[static_cast<std::size_t>(vc)].credits;
  }
  /// Sum of free credits over the VCs of a class (adaptive routing input).
  [[nodiscard]] int free_credits_for_class(Direction p, int vc_class) const noexcept;

  [[nodiscard]] int input_occupancy(Direction p, int vc) const noexcept {
    return in_[port_index(p)].vcs[static_cast<std::size_t>(vc)].fifo.size();
  }
  [[nodiscard]] std::uint64_t buffered_flits() const noexcept {
    return buffered_flits_;
  }

  /// Attaches a packet inspector between buffer-write and route compute
  /// (Fig. 2b) -- the hook the hardware Trojan implants through. Not
  /// owned; inspectors run in attachment order on whole packets.
  void add_inspector(PacketInspector* inspector) {
    inspectors_.push_back(inspector);
  }
  void clear_inspectors() noexcept { inspectors_.clear(); }
  [[nodiscard]] bool has_inspectors() const noexcept {
    return !inspectors_.empty();
  }

  [[nodiscard]] const RouterStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = RouterStats{}; }

  /// Checkpointing: everything that changes while flits move -- input-VC
  /// ring buffers, routing/allocation registers, output credits,
  /// round-robin pointers, stats. Wiring (connected ports, the routing
  /// algorithm, inspectors) is construction state and is not captured.
  [[nodiscard]] json::Value save_state() const;
  void load_state(const json::Value& v, const PacketResolver& resolve);

 private:
  struct BufferedFlit {
    Flit flit;
    Cycle arrival = 0;
    bool inspected = false;
  };

  struct InputVc {
    RingFifo<BufferedFlit, kMaxVcDepth> fifo;
    bool active = false;       // holds a routed packet
    Direction out_port = Direction::kLocal;
    int out_vc = -1;
    Cycle alloc_cycle = 0;
  };

  struct InputPort {
    std::array<InputVc, kMaxVcs> vcs;
    /// Input VCs whose front flit is a head awaiting route computation
    /// (inactive VC, non-empty FIFO). RC/VA only scans ports where this
    /// is non-zero; a head that loses VC allocation stays counted.
    int rc_pending = 0;
  };

  struct OutputVc {
    int credits = 0;
    bool allocated = false;
  };

  /// An input VC routed to an output port, pre-split so the SA loop does
  /// no divisions: `cand` is the round-robin code (in_port * vcs + vc).
  struct SaCandidate {
    std::uint8_t cand = 0;
    std::uint8_t in_port = 0;
    std::uint8_t in_vc = 0;
  };

  struct OutputPort {
    std::array<OutputVc, kMaxVcs> vcs;
    bool connected = false;
    int rr_candidate = 0;  // SA round-robin over (in_port, vc) pairs
    int rr_vc = 0;         // VA round-robin over output VCs
    int active_inputs = 0; // input VCs currently routed to this port
    /// Those input VCs; the SA stage orders them by round-robin distance
    /// instead of scanning all (in_port, vc) combinations. Unordered;
    /// first `active_inputs` entries are valid.
    std::array<SaCandidate, kNumPorts * kMaxVcs> routed{};
  };

  [[nodiscard]] InputVc& input_vc(Direction p, int vc) noexcept {
    return in_[port_index(p)].vcs[static_cast<std::size_t>(vc)];
  }

  void run_inspectors(Packet& pkt, Cycle now);

  NodeId id_;          // snapshot-exempt: construction wiring (router identity)
  MeshGeometry geom_;  // snapshot-exempt: construction config, immutable
  Coord coord_;        // snapshot-exempt: derived from id_ and geometry
  NocConfig cfg_;
  const RoutingAlgorithm* routing_;  // snapshot-exempt: non-owning wiring, re-attached by construction
  bool routing_uses_credits_ = false;  // snapshot-exempt: derived from the routing algorithm's capabilities
  std::array<InputPort, kNumPorts> in_;
  std::array<OutputPort, kNumPorts> out_;
  // snapshot-exempt: attached probes re-register themselves after restore
  std::vector<PacketInspector*> inspectors_;
  RouterStats stats_;
  std::uint64_t buffered_flits_ = 0;
  int rc_pending_total_ = 0;  // sum of InputPort::rc_pending
  // snapshot-exempt: derived lower bound on the next useful RC/VA cycle; load_state resets it so the first tick rescans
  Cycle rc_ready_at_ = 0;
};

}  // namespace htpb::noc
