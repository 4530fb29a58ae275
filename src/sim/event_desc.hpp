// Serializable event descriptors: the bridge between the event queue and
// checkpointing. A closure cannot be written to disk, so every event is
// scheduled as an EventDesc -- a (kind, node, payload) tuple -- and the
// owning component registers a handler for its (kind, node) with the
// engine. Dispatch resolves the handler at execution time, so a restored
// queue fires into the handlers of the restored (or freshly constructed)
// components.
#pragma once

#include <cstdint>

namespace htpb::sim {

/// Stable numeric tags: snapshots store them as integers, so values must
/// never be reused or renumbered.
enum class EventKind : std::uint32_t {
  kSystemEpochStart = 1,  ///< ManyCoreSystem epoch boundary
  kSystemAllocate = 2,    ///< GlobalManager allocate_and_reply
  kMemFetchDone = 3,      ///< L2Bank memory fetch completion; a = line addr
  kNocLocalDeliver = 4,   ///< MeshNetwork self-send delivery; a = packet id
  kCampaignToggle = 5,    ///< AttackCampaign duty-cycle Trojan toggle
  kCampaignAdapt = 6,     ///< AttackCampaign adaptive-attacker epoch step
};

struct EventDesc {
  EventKind kind{};
  std::int32_t node = -1;  ///< target node, or -1 for a system-wide event
  std::uint64_t a = 0;     ///< kind-specific payload (line address, packet id)
  std::uint64_t b = 0;

  friend bool operator==(const EventDesc&, const EventDesc&) = default;
};

}  // namespace htpb::sim
