// Campaign cells: slice a resolved ScenarioSpec along its outermost
// independent sweep axis into self-contained single-slice specs, and
// reassemble the slice results into one tree. This is every scenario's
// run path: run_scenario runs the cells in order in one process and
// htpb_fleet runs each in a crash-isolated htpb_run worker; both merge
// with merge_cell_results, and a one-cell tree merges to itself, so
// split + merge == whole (minus "timing") by construction.
//
// Only axes whose RNG streams are value-keyed -- or re-keyable by
// rebasing the cell's seed -- are split:
//
//   kInfectionVsHtCount       cell per (arm, ht)   Rng(seed + s*77 + ht)
//   kInfectionVsDistribution  cell per (div, size) Rng(seed + s*13 + size)
//   kAttackEffect             cell per mix         serial Rng(seed) per mix
//   kPerformanceChange        cell per mix         (same sweep)
//   kPlacementStudy           cell per mix         seed REBASED to
//                             seed + mix_i, so the cell's Rng(seed) is
//                             the whole sweep's Rng(seed + mix_i)
//   kDefenseEvaluation        cell per mix
//   kBudgeterAblation         cell per budgeter
//   kDefenseClosedLoop        cell per placement
//   everything else           one cell (kDefenseSweep's record-once/
//                             replay-many trace reuse and
//                             kAttackComparison's shared clean arm do not
//                             shard without changing output)
#pragma once

#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

/// One fleet cell: a stable id (embeds the cell index, so ids are unique
/// and order-preserving) and the self-contained spec for that slice.
struct CellPlan {
  std::string id;
  ScenarioSpec spec;
};

/// Expands `resolved` (post-with_quick, post-overrides, validated) into
/// its cell list. Every cell spec validates and carries no quick overlay.
/// Single-cell kinds return one cell holding the spec verbatim.
[[nodiscard]] std::vector<CellPlan> expand_cells(const ScenarioSpec& resolved);

/// Reassembles cell results (the `htpb_run --json` envelopes, in
/// expand_cells order) into the single-run envelope: scenario, kind,
/// quick, seed, threads, then the merged payload. No "timing" member --
/// the caller appends its own. Failed cells are passed as null and their
/// slices are skipped, so the merge degrades gracefully instead of
/// throwing; a size mismatch with expand_cells(resolved) throws.
[[nodiscard]] json::Value merge_cell_results(
    const ScenarioSpec& resolved, bool quick, int threads,
    const std::vector<json::Value>& cell_results);

}  // namespace htpb::scenario
