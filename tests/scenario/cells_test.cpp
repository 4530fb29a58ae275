// The fleet's correctness keystone: for every shardable kind,
// expand_cells + run_scenario per cell + merge_cell_results must equal a
// single run_scenario of the full spec BIT FOR BIT (minus "timing").
// run_scenario runs the same cells and merge in-process, so this holds
// exactly when a one-cell tree merges to itself.
// Quick-sized custom specs keep the sweeps honest -- at least two slices
// per split axis -- without paper-scale runtimes.
#include "scenario/cells.hpp"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using htpb::json::Value;
using htpb::scenario::CellPlan;
using htpb::scenario::ClusterSpec;
using htpb::scenario::DetectorSpec;
using htpb::scenario::ResponseSpec;
using htpb::scenario::RunOptions;
using htpb::scenario::ScenarioKind;
using htpb::scenario::ScenarioSpec;

namespace power = htpb::power;

/// All tests pin --threads 2 on both sides; the determinism contract
/// makes that a no-op for the payload, but the envelope's reported
/// "threads" must match for whole-tree equality.
RunOptions pinned_threads() {
  RunOptions opts;
  opts.threads = 2;
  return opts;
}

Value without_timing(const Value& v) {
  htpb::json::Object out;
  for (const auto& [key, value] : v.as_object()) {
    if (key != "timing") out[key] = value;
  }
  return Value(std::move(out));
}

/// A 64-node spec of `kind`; each test sets the axes its kind sweeps.
ScenarioSpec small_spec(std::string name, ScenarioKind kind) {
  ScenarioSpec s;
  s.name = std::move(name);
  s.kind = kind;
  std::tie(s.system.width, s.system.height) =
      htpb::scenario::mesh_for_size(64);
  return s;
}

/// The claim under test: run whole, then run sliced + merged, compare.
void expect_merge_bit_identical(const ScenarioSpec& spec,
                                std::size_t expected_cells) {
  spec.validate();
  const RunOptions opts = pinned_threads();
  const ScenarioSpec resolved = htpb::scenario::resolve(spec, opts);

  const Value whole = htpb::scenario::run_scenario(spec, opts);

  const std::vector<CellPlan> plan = htpb::scenario::expand_cells(resolved);
  ASSERT_EQ(plan.size(), expected_cells);
  std::vector<Value> results;
  results.reserve(plan.size());
  for (const CellPlan& cell : plan) {
    // Workers run the cell spec verbatim -- no quick, no seed override.
    results.push_back(htpb::scenario::run_scenario(cell.spec, RunOptions{}));
  }
  const Value merged = htpb::scenario::merge_cell_results(
      resolved, /*quick=*/false, /*threads=*/2, results);

  EXPECT_EQ(without_timing(whole), merged);
}

TEST(CellsTest, CellIdsAreUniqueAndOrderStable) {
  ScenarioSpec spec = small_spec("cells-ablation",
                                 ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.epochs = {1, 2};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy};
  spec.validate();
  const auto plan = htpb::scenario::expand_cells(spec);
  ASSERT_EQ(plan.size(), 2U);
  EXPECT_EQ(plan[0].id, "c000-uniform");
  EXPECT_EQ(plan[1].id, "c001-greedy");
  // Cell specs are self-contained: they validate and carry no quick
  // overlay for a worker to re-apply.
  for (const auto& cell : plan) {
    EXPECT_TRUE(cell.spec.quick.is_null()) << cell.id;
    EXPECT_NO_THROW(cell.spec.validate()) << cell.id;
  }
}

TEST(CellsTest, BudgeterAblationMergesBitIdentical) {
  ScenarioSpec s = small_spec("cells-ablation",
                              ScenarioKind::kBudgeterAblation);
  s.workload.mix = "mix-1";
  s.epochs = {1, 2};
  s.axes.budgeters = {power::BudgeterKind::kUniform,
                      power::BudgeterKind::kGreedy,
                      power::BudgeterKind::kProportional};
  expect_merge_bit_identical(s, 3);
}

TEST(CellsTest, InfectionVsHtCountMergesBitIdentical) {
  ScenarioSpec s =
      small_spec("cells-fig3", ScenarioKind::kInfectionVsHtCount);
  s.epochs = {0, 1};
  s.axes.arms = {{64, {2, 4}}, {128, {2}}};
  s.axes.gm_placements = {htpb::system::GmPlacement::kCenter,
                          htpb::system::GmPlacement::kCorner};
  s.axes.seeds = 2;
  expect_merge_bit_identical(s, 3);
}

TEST(CellsTest, InfectionVsDistributionMergesBitIdentical) {
  ScenarioSpec s =
      small_spec("cells-fig4", ScenarioKind::kInfectionVsDistribution);
  s.epochs = {0, 1};
  s.axes.sizes = {64, 128};
  s.axes.ht_divisors = {16, 8};
  s.axes.seeds = 2;
  expect_merge_bit_identical(s, 4);
}

TEST(CellsTest, AttackEffectMergesBitIdentical) {
  ScenarioSpec s = small_spec("cells-fig5", ScenarioKind::kAttackEffect);
  s.epochs = {1, 2};
  s.workload.mixes = {"mix-1", "mix-2"};
  s.axes.infection_targets = {0.2, 0.6};
  s.axes.placement_max_hts = 16;
  expect_merge_bit_identical(s, 2);
}

TEST(CellsTest, PlacementStudySeedRebasingMergesBitIdentical) {
  // The one split that REBASES the cell seed (stream = seed + mix index):
  // a non-default seed catches any off-by-one in the rebase.
  ScenarioSpec s = small_spec("cells-secvc", ScenarioKind::kPlacementStudy);
  s.epochs = {1, 2};
  s.seed = 7;
  s.workload.mixes = {"mix-1", "mix-3"};
  s.axes.nodes = 64;
  s.axes.max_hts = 4;
  s.axes.train_samples = 10;  // must cover the effect model's coefficients
  s.axes.random_trials = 2;
  s.axes.candidates_per_m = 6;
  s.axes.shortlist = 2;
  expect_merge_bit_identical(s, 2);
}

TEST(CellsTest, DefenseClosedLoopMergesBitIdentical) {
  ScenarioSpec s =
      small_spec("cells-loop", ScenarioKind::kDefenseClosedLoop);
  s.workload.mix = "mix-1";
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.trojan.active = false;
  s.trojan.toggle_period_epochs = 2;
  s.epochs = {1, 3};
  s.detector = DetectorSpec{};
  s.response = ResponseSpec{};
  s.axes.placements = {{ClusterSpec::At::kGm, 8},
                       {ClusterSpec::At::kQuarter, 8}};
  s.axes.responses = {power::ResponseKind::kQuarantine,
                      power::ResponseKind::kThrottle};
  // Cell 0 carries placement 0, so the merged duty_comparison (defined
  // on the first placement's response-free arms) comes from it verbatim.
  expect_merge_bit_identical(s, 2);
}

TEST(CellsTest, SingleCellKindsPassThrough) {
  expect_merge_bit_identical(
      small_spec("cells-table1", ScenarioKind::kConfigReport), 1);
}

TEST(CellsTest, FailedCellsLeaveHolesNotInvalidTrees) {
  ScenarioSpec spec = small_spec("cells-ablation",
                                 ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.epochs = {1, 2};
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy,
                         power::BudgeterKind::kProportional};
  spec.validate();
  const auto plan = htpb::scenario::expand_cells(spec);

  std::vector<Value> results(plan.size());  // all null = all failed
  results[1] = htpb::scenario::run_scenario(plan[1].spec, RunOptions{});

  const Value merged =
      htpb::scenario::merge_cell_results(spec, false, 2, results);
  const htpb::json::Object& root = merged.as_object();
  ASSERT_NE(root.find("rows"), nullptr);
  const htpb::json::Array& rows = root.find("rows")->as_array();
  ASSERT_EQ(rows.size(), 1U);
  EXPECT_EQ(rows[0].as_object().find("budgeter")->as_string(), "greedy");
}

TEST(CellsTest, MergeRejectsCellCountMismatch) {
  ScenarioSpec spec = small_spec("cells-ablation",
                                 ScenarioKind::kBudgeterAblation);
  spec.workload.mix = "mix-1";
  spec.axes.budgeters = {power::BudgeterKind::kUniform,
                         power::BudgeterKind::kGreedy};
  spec.validate();
  const std::vector<Value> wrong(3);
  EXPECT_THROW(
      (void)htpb::scenario::merge_cell_results(spec, false, 2, wrong),
      std::runtime_error);
}

}  // namespace
