#include "scenario/cells.hpp"

#include <cstdio>
#include <span>
#include <stdexcept>

#include "power/budgeter.hpp"

namespace htpb::scenario {

namespace {

[[nodiscard]] std::string cell_id(std::size_t index, const std::string& slug) {
  char prefix[16];
  std::snprintf(prefix, sizeof(prefix), "c%03zu", index);
  return std::string(prefix) + "-" + slug;
}

/// A cell spec is the resolved spec with one slice selected and the quick
/// overlay stripped: with_quick already ran, and a worker re-applying it
/// would double the trim.
[[nodiscard]] ScenarioSpec cell_base(const ScenarioSpec& resolved) {
  ScenarioSpec cell = resolved;
  cell.quick = json::Value();
  return cell;
}

// ---------------------------------------------------------------- merge

[[nodiscard]] const json::Value* member(const json::Value& cell,
                                        const char* key) {
  if (!cell.is_object()) return nullptr;  // null = failed cell
  return cell.as_object().find(key);
}

/// Appends every element of the cell's `key` array to `dst`; a failed
/// (null) or malformed cell contributes nothing, so the merged tree stays
/// valid with holes where the failures were.
void append_elements(json::Array& dst, const json::Value& cell,
                     const char* key) {
  const json::Value* arr = member(cell, key);
  if (arr == nullptr || !arr->is_array()) return;
  for (const json::Value& v : arr->as_array()) dst.push_back(v);
}

/// The keys run_scenario writes around the payload; everything else in a
/// cell envelope IS the payload.
[[nodiscard]] bool is_envelope_key(const std::string& key) {
  return key == "scenario" || key == "kind" || key == "quick" ||
         key == "seed" || key == "threads" || key == "timing";
}

void require_cell_count(std::size_t expected, std::size_t got) {
  if (expected != got) {
    throw std::runtime_error(
        "merge_cell_results: spec expands to " + std::to_string(expected) +
        " cells but " + std::to_string(got) + " results were given");
  }
}

/// One group of a two-level sweep (fig3's arm, fig4's divisor): `head`
/// plus the rows of the group's cells, whose `key` array holds their
/// slice (one group with one row each).
[[nodiscard]] json::Value regroup(json::Object head, const char* key,
                                  std::span<const json::Value> cells) {
  json::Array rows;
  for (const json::Value& cell : cells) {
    const json::Value* slices = member(cell, key);
    if (slices == nullptr || !slices->is_array()) continue;
    for (const json::Value& slice : slices->as_array()) {
      append_elements(rows, slice, "rows");
    }
  }
  head["rows"] = json::Value(std::move(rows));
  return json::Value(std::move(head));
}

}  // namespace

std::vector<CellPlan> expand_cells(const ScenarioSpec& resolved) {
  std::vector<CellPlan> cells;
  const auto add = [&](const std::string& slug, ScenarioSpec spec) {
    spec.validate();
    cells.push_back(CellPlan{cell_id(cells.size(), slug), std::move(spec)});
  };

  switch (resolved.kind) {
    case ScenarioKind::kInfectionVsHtCount:
      for (const InfectionArm& arm : resolved.axes.arms) {
        for (const int hts : arm.ht_counts) {
          ScenarioSpec cell = cell_base(resolved);
          cell.axes.arms = {InfectionArm{arm.nodes, {hts}}};
          add("n" + std::to_string(arm.nodes) + "-ht" + std::to_string(hts),
              std::move(cell));
        }
      }
      break;

    case ScenarioKind::kInfectionVsDistribution:
      for (const int divisor : resolved.axes.ht_divisors) {
        for (const int size : resolved.axes.sizes) {
          ScenarioSpec cell = cell_base(resolved);
          cell.axes.ht_divisors = {divisor};
          cell.axes.sizes = {size};
          add("d" + std::to_string(divisor) + "-s" + std::to_string(size),
              std::move(cell));
        }
      }
      break;

    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kPerformanceChange:
    case ScenarioKind::kDefenseEvaluation:
      for (const std::string& mix : resolved.workload.mixes) {
        ScenarioSpec cell = cell_base(resolved);
        cell.workload.mixes = {mix};
        add(mix, std::move(cell));
      }
      break;

    case ScenarioKind::kPlacementStudy:
      // Mix i's stream is Rng(seed + i). The runner draws a cell's one
      // mix from Rng(cell seed), so rebasing the cell's seed by the
      // global index reproduces the stream exactly. system.seed (the
      // workload streams) is deliberately left alone.
      for (std::size_t mix_i = 0; mix_i < resolved.workload.mixes.size();
           ++mix_i) {
        ScenarioSpec cell = cell_base(resolved);
        cell.workload.mixes = {resolved.workload.mixes[mix_i]};
        cell.seed = resolved.seed + mix_i;
        add(resolved.workload.mixes[mix_i], std::move(cell));
      }
      break;

    case ScenarioKind::kBudgeterAblation:
      for (const power::BudgeterKind kind : resolved.axes.budgeters) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.budgeters = {kind};
        add(power::to_string(kind), std::move(cell));
      }
      break;

    case ScenarioKind::kDefenseClosedLoop:
      for (const ClusterSpec& placement : resolved.axes.placements) {
        ScenarioSpec cell = cell_base(resolved);
        cell.axes.placements = {placement};
        add(to_string(placement.at), std::move(cell));
      }
      break;

    case ScenarioKind::kDefenseSweep:
    case ScenarioKind::kAttackComparison:
    case ScenarioKind::kConfigReport:
    case ScenarioKind::kBenchmarkReport:
    case ScenarioKind::kAreaPowerReport:
      add("all", cell_base(resolved));
      break;
  }
  return cells;
}

json::Value merge_cell_results(const ScenarioSpec& resolved, bool quick,
                               int threads,
                               const std::vector<json::Value>& cell_results) {
  json::Object envelope;
  envelope["scenario"] = json::Value(resolved.name);
  envelope["kind"] = json::Value(to_string(resolved.kind));
  envelope["quick"] = json::Value(quick);
  envelope["seed"] = json::Value(static_cast<long long>(resolved.seed));
  envelope["threads"] = json::Value(threads);

  // The one-level sweeps: each cell's `key` array is its slice.
  const auto concat = [&](const char* key, std::size_t expected) {
    require_cell_count(expected, cell_results.size());
    json::Array all;
    for (const json::Value& cell : cell_results) {
      append_elements(all, cell, key);
    }
    envelope[key] = json::Value(std::move(all));
  };
  const std::span<const json::Value> cells(cell_results);

  switch (resolved.kind) {
    case ScenarioKind::kInfectionVsHtCount: {
      std::size_t expected = 0;
      for (const InfectionArm& arm : resolved.axes.arms) {
        expected += arm.ht_counts.size();
      }
      require_cell_count(expected, cell_results.size());
      std::size_t k = 0;
      json::Array arms;
      for (const InfectionArm& arm : resolved.axes.arms) {
        json::Object head;
        head["nodes"] = json::Value(arm.nodes);
        arms.push_back(regroup(std::move(head), "arms",
                               cells.subspan(k, arm.ht_counts.size())));
        k += arm.ht_counts.size();
      }
      envelope["arms"] = json::Value(std::move(arms));
      break;
    }

    case ScenarioKind::kInfectionVsDistribution: {
      const std::size_t sizes = resolved.axes.sizes.size();
      require_cell_count(resolved.axes.ht_divisors.size() * sizes,
                         cell_results.size());
      json::Array divisors;
      for (std::size_t d = 0; d < resolved.axes.ht_divisors.size(); ++d) {
        json::Object head;
        head["divisor"] = json::Value(resolved.axes.ht_divisors[d]);
        divisors.push_back(regroup(std::move(head), "divisors",
                                   cells.subspan(d * sizes, sizes)));
      }
      envelope["divisors"] = json::Value(std::move(divisors));
      break;
    }

    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kPerformanceChange:
    case ScenarioKind::kPlacementStudy:
      concat("mixes", resolved.workload.mixes.size());
      break;

    case ScenarioKind::kDefenseEvaluation:
      concat("rows", resolved.workload.mixes.size());
      break;

    case ScenarioKind::kBudgeterAblation:
      concat("rows", resolved.axes.budgeters.size());
      break;

    case ScenarioKind::kDefenseClosedLoop: {
      // attacker_cores is placement-invariant; take it from the first
      // surviving cell. duty_comparison is defined on the FIRST
      // placement's arms, so only cell 0 can supply it.
      const json::Value* attacker_cores = nullptr;
      for (const json::Value& cell : cell_results) {
        attacker_cores = member(cell, "attacker_cores");
        if (attacker_cores != nullptr) break;
      }
      if (attacker_cores != nullptr) {
        envelope["attacker_cores"] = *attacker_cores;
      }
      concat("arms", resolved.axes.placements.size());
      if (!cell_results.empty()) {
        if (const json::Value* comparison =
                member(cell_results.front(), "duty_comparison")) {
          envelope["duty_comparison"] = *comparison;
        }
      }
      break;
    }

    case ScenarioKind::kDefenseSweep:
    case ScenarioKind::kAttackComparison:
    case ScenarioKind::kConfigReport:
    case ScenarioKind::kBenchmarkReport:
    case ScenarioKind::kAreaPowerReport: {
      require_cell_count(1, cell_results.size());
      const json::Value& cell = cell_results.front();
      if (cell.is_object()) {
        for (const auto& [key, value] : cell.as_object()) {
          if (!is_envelope_key(key)) envelope[key] = value;
        }
      }
      break;
    }
  }

  return json::Value(std::move(envelope));
}

}  // namespace htpb::scenario
