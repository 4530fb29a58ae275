// Whole-chip configuration -- the programmatic form of the paper's
// Table I, plus the budgeting-epoch parameters.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/types.hpp"
#include "cpu/frequency.hpp"
#include "mem/l1_cache.hpp"
#include "mem/l2_bank.hpp"
#include "noc/config.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"
#include "power/power_model.hpp"

namespace htpb::system {

enum class GmPlacement {
  kCenter,  ///< Paper default for Figs. 4-6.
  kCorner,  ///< The "global manager in one corner" arm of Fig. 3.
};

struct SystemConfig {
  /// Node ids travel in the paper's 16-bit packet source/destination
  /// fields (noc/packet.hpp), which caps a mesh at 2^16 nodes.
  static constexpr int kMaxNodes = 1 << 16;

  int width = 16;
  int height = 16;

  noc::NocConfig noc;
  mem::L1Config l1;
  mem::L2Config l2;
  cpu::FrequencyTable freqs;
  power::CorePowerModel power_model;

  power::BudgeterKind budgeter = power::BudgeterKind::kProportional;
  /// Wraps the budgeter in the request-clamping mitigation
  /// (power::GuardedBudgeter) -- the defense the defense-evaluation and
  /// defense-roc scenarios evaluate.
  bool guard_requests = false;
  power::DetectorConfig guard_config;
  /// Chip power budget as a fraction of the all-cores-at-max demand.
  /// Below 1.0 creates the contention that power budgeting exists to
  /// arbitrate (and that the Trojan exploits).
  double budget_fraction = 0.50;

  /// Budgeting epoch length and the manager's collection window.
  Cycle epoch_cycles = 2000;
  /// 0 = auto: scaled with mesh diameter at build time.
  Cycle collect_window = 0;
  /// Cycle of the first budgeting epoch (power-on settle time). The
  /// default leaves just enough room for cycle-0 events; raise it when an
  /// experiment needs the attacker's CONFIG_CMD broadcast to complete
  /// before the first POWER_REQ flies (attack-from-epoch-0 scenarios).
  Cycle first_epoch_cycle = 10;

  GmPlacement gm_placement = GmPlacement::kCenter;
  /// Overrides gm_placement when set.
  std::optional<NodeId> gm_node;

  std::uint64_t seed = 1;

  [[nodiscard]] int node_count() const noexcept { return width * height; }

  [[nodiscard]] Cycle resolved_collect_window() const noexcept {
    if (collect_window != 0) return collect_window;
    const auto diameter = static_cast<Cycle>(width + height);
    return 4 * diameter * static_cast<Cycle>(noc.router_latency +
                                             noc.link_latency) +
           200;
  }

  /// Throws std::invalid_argument when the shape or GM placement is
  /// unusable: meshes below 2x2 (XY routing and the GM placement presets
  /// assume a real 2D mesh) or above kMaxNodes, or a pinned gm_node
  /// outside the mesh. Allocates nothing, so a hostile size fails here
  /// before any chip is built.
  /// ManyCoreSystem and AttackCampaign call this before building.
  void validate() const;

  /// Arbitrary W x H mesh (validated). Non-square shapes are first-class:
  /// GM center/corner placement and the collect window derive from
  /// width/height, not from an assumed square side.
  [[nodiscard]] static SystemConfig with_mesh(int width, int height);

  /// Convenience presets for the paper's system-size sweep (64..512);
  /// delegates to with_mesh with the paper's shapes.
  [[nodiscard]] static SystemConfig with_size(int nodes);
};

}  // namespace htpb::system
