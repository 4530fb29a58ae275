// The scenario runner's acceptance contract:
//  1. Bit-identity with the legacy bench path -- executing the registry's
//     "fig3" and "defense-roc" specs at --quick produces, double for
//     double, the numbers the hand-rolled bench mains produced before the
//     port (their config-assembly code is replicated inline here as the
//     reference).
//  2. Seed determinism -- same seed, same result tree; different seed,
//     different tree (no stochastic entry point hides a default Rng).
//  3. Thread invariance -- the tree is identical at 1 and N threads
//     (every registry scenario also in thread_invariance_test.cpp).
//  4. Trace record/replay -- the scenario-level trace surface agrees with
//     power::replay_detector, including through disk persistence.
//  5. Paper-claim oracles -- fig3's tree has the paper's shape (infection
//     rises with the HT count; simulation tracks the analytic model).
#include "scenario/runner.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/defense_sweep.hpp"
#include "core/infection.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "power/request_trace.hpp"
#include "scenario/registry.hpp"
#include "workload/application.hpp"

namespace htpb::scenario {
namespace {

json::Value run_quick(const char* name, int threads = 0) {
  RunOptions opts;
  opts.quick = true;
  opts.threads = threads;
  return run_scenario(scenario_or_throw(name), opts);
}

/// Wall-clock seconds are the one non-deterministic part of a result.
json::Value without_timing(json::Value v) {
  v.as_object()["timing"] = json::Value();
  v.as_object()["threads"] = json::Value();
  return v;
}

// ---------------------------------------------------------------- fig3

TEST(ScenarioRunner, Fig3QuickBitIdenticalToLegacyBenchPath) {
  const json::Value result = run_quick("fig3");
  const json::Array& arms = result.as_object().find("arms")->as_array();

  // The pre-port bench_fig3 main, verbatim (quick constants:
  // 2 seeds, 1 warmup + 2 measure epochs, Rng(1000 + s*77 + hts)).
  const int seeds = 2;
  struct Arm {
    int nodes;
    std::vector<int> ht_counts;
  };
  const std::vector<Arm> legacy_arms = {
      {64, {2, 5, 10, 15, 20, 25, 30}},
      {512, {5, 10, 20, 30, 40, 50, 60}},
  };
  ASSERT_EQ(arms.size(), legacy_arms.size());

  for (std::size_t a = 0; a < legacy_arms.size(); ++a) {
    const Arm& arm = legacy_arms[a];
    const json::Object& arm_out = arms[a].as_object();
    EXPECT_EQ(arm_out.find("nodes")->as_int(), arm.nodes);
    const json::Array& rows = arm_out.find("rows")->as_array();
    ASSERT_EQ(rows.size(), arm.ht_counts.size());
    for (std::size_t h = 0; h < arm.ht_counts.size(); ++h) {
      const int hts = arm.ht_counts[h];
      const json::Array& cells = rows[h].as_object().find("cells")->as_array();
      ASSERT_EQ(cells.size(), 2U);
      const system::GmPlacement placements[2] = {
          system::GmPlacement::kCenter, system::GmPlacement::kCorner};
      for (int p = 0; p < 2; ++p) {
        core::CampaignConfig cfg;
        cfg.system = system::SystemConfig::with_size(arm.nodes);
        cfg.system.epoch_cycles = 1500;
        cfg.system.gm_placement = placements[p];
        cfg.mix = std::nullopt;
        cfg.warmup_epochs = 1;
        cfg.measure_epochs = 2;
        core::AttackCampaign campaign(cfg);
        const MeshGeometry geom(cfg.system.width, cfg.system.height);
        const core::InfectionAnalyzer analyzer(geom, campaign.gm_node());
        double sim_rate = 0.0;
        double ana_rate = 0.0;
        for (int s = 0; s < seeds; ++s) {
          Rng rng(1000 + static_cast<std::uint64_t>(s) * 77 + hts);
          const auto nodes =
              core::random_placement(geom, hts, rng, campaign.gm_node());
          sim_rate += campaign.run_infection_only(nodes);
          ana_rate += analyzer.predicted_rate(nodes);
        }
        const json::Object& cell = cells[p].as_object();
        EXPECT_EQ(cell.find("simulated")->as_double(), sim_rate / seeds)
            << arm.nodes << " nodes, " << hts << " HTs, placement " << p;
        EXPECT_EQ(cell.find("analytic")->as_double(), ana_rate / seeds);
      }
    }
  }

  // Paper-claim oracles on the same tree (shape, not exact numbers).
  const auto rate = [](const json::Value& row, std::size_t p,
                       const char* key) {
    return row.as_object()
        .find("cells")
        ->as_array()[p]
        .as_object()
        .find(key)
        ->as_double();
  };
  for (const json::Value& arm : arms) {
    const json::Array& rows = arm.as_object().find("rows")->as_array();
    const long long nodes = arm.as_object().find("nodes")->as_int();
    for (std::size_t p = 0; p < 2; ++p) {
      // Fig. 3: infection rises with the number of HTs.
      EXPECT_GT(rate(rows.back(), p, "simulated"),
                rate(rows.front(), p, "simulated"))
          << nodes << " nodes, placement " << p;
      for (const json::Value& row : rows) {
        // The analytic XY path-coverage estimate agrees with the
        // simulation from above: at the registry seed simulated never
        // exceeds analytic, and the widest gap is 0.101 (512 nodes,
        // corner GM, 5 HTs).
        const double simulated = rate(row, p, "simulated");
        const double analytic = rate(row, p, "analytic");
        EXPECT_LE(simulated, analytic) << nodes << " nodes, placement " << p;
        EXPECT_LE(analytic - simulated, 0.15)
            << nodes << " nodes, placement " << p;
      }
    }
  }
}

// ---------------------------------------------------------- defense-roc

TEST(ScenarioRunner, DefenseRocQuickBitIdenticalToLegacyBenchPath) {
  const json::Value result = run_quick("defense-roc");
  const json::Object& root = result.as_object();

  // The pre-port bench_defense_sweep main, verbatim (quick constants:
  // 2 bands, 2 placements, measure 4, ROC periods {2}, factors
  // {0.10, 0.60}, 1 ROC placement).
  core::DefenseSweepConfig sweep_cfg;
  sweep_cfg.base.system = system::SystemConfig::with_size(64);
  sweep_cfg.base.system.epoch_cycles = 2000;
  sweep_cfg.base.mix = workload::standard_mixes().at(0);
  sweep_cfg.base.trojan.victim_scale = 0.10;
  sweep_cfg.base.trojan.attacker_boost = 8.0;
  sweep_cfg.base.trojan.active = false;
  sweep_cfg.base.toggle_period_epochs = 3;
  sweep_cfg.base.warmup_epochs = 2;
  sweep_cfg.base.measure_epochs = 4;
  for (const auto& [lo, hi] : {std::pair{0.6, 1.6}, std::pair{0.3, 3.0}}) {
    power::DetectorConfig d;
    d.low_ratio = lo;
    d.high_ratio = hi;
    sweep_cfg.detectors.push_back(d);
  }
  const core::AttackCampaign probe(sweep_cfg.base);
  const MeshGeometry geom(8, 8);
  sweep_cfg.placements.push_back(core::clustered_placement(
      geom, 8, geom.coord_of(probe.gm_node()), probe.gm_node()));
  sweep_cfg.placements.push_back(core::clustered_placement(
      geom, 8, Coord{geom.width() / 4, geom.height() / 4}, probe.gm_node()));

  const core::ParallelSweepRunner runner;
  const auto curve = core::DefenseSweep(sweep_cfg).run(runner);

  const json::Array& points =
      root.find("curve")->as_object().find("points")->as_array();
  ASSERT_EQ(points.size(), curve.size());
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const json::Object& pt = points[i].as_object();
    EXPECT_EQ(pt.find("low")->as_double(), curve[i].detector.low_ratio);
    EXPECT_EQ(pt.find("high")->as_double(), curve[i].detector.high_ratio);
    EXPECT_EQ(pt.find("detection_rate")->as_double(),
              curve[i].detection_rate);
    EXPECT_EQ(pt.find("victim_flag_rate")->as_double(),
              curve[i].victim_flag_rate);
    EXPECT_EQ(pt.find("attacker_flag_rate")->as_double(),
              curve[i].attacker_flag_rate);
    EXPECT_EQ(pt.find("false_positive_rate")->as_double(),
              curve[i].false_positive_rate);
    EXPECT_EQ(pt.find("mean_detection_latency")->as_double(),
              curve[i].mean_detection_latency);
    EXPECT_EQ(pt.find("mean_q_plain")->as_double(), curve[i].mean_q_plain);
    EXPECT_EQ(pt.find("mean_q_guarded")->as_double(),
              curve[i].mean_q_guarded);
  }

  // ROC grid (legacy quick: one dynamics axis point per period/factor,
  // detector grid = 2 kinds x 2 bands, 1 placement).
  const std::vector<int> periods = {2};
  const std::vector<double> factors = {0.10, 0.60};
  std::vector<power::DetectorConfig> roc_detectors;
  for (const auto kind :
       {power::DetectorKind::kSelfEwma, power::DetectorKind::kCohortMedian}) {
    for (const auto& [lo, hi] : {std::pair{0.6, 1.6}, std::pair{0.3, 3.0}}) {
      power::DetectorConfig d;
      d.kind = kind;
      d.low_ratio = lo;
      d.high_ratio = hi;
      roc_detectors.push_back(d);
    }
  }
  const std::vector<std::vector<NodeId>> roc_placements(
      sweep_cfg.placements.begin(), sweep_cfg.placements.begin() + 1);
  int monitored = 0;
  for (const auto& app : probe.apps()) {
    monitored += static_cast<int>(app.cores.size());
  }
  const auto roc_config = [&](int period, double factor) {
    core::CampaignConfig cfg = sweep_cfg.base;
    cfg.detector.reset();
    cfg.trojan.victim_scale = factor;
    cfg.trojan.active = false;
    cfg.toggle_period_epochs = period;
    return cfg;
  };
  const std::size_t dyn_count = periods.size() * factors.size();
  std::vector<power::RequestTrace> traces;
  for (std::size_t dyn = 0; dyn < dyn_count; ++dyn) {
    for (std::size_t p = 0; p < roc_placements.size(); ++p) {
      core::AttackCampaign campaign(
          roc_config(periods[dyn / factors.size()],
                     factors[dyn % factors.size()]));
      traces.push_back(campaign.record_trace(roc_placements[p]));
    }
  }
  core::CampaignConfig clean_cfg = sweep_cfg.base;
  clean_cfg.trojan.active = false;
  clean_cfg.toggle_period_epochs = 0;
  core::AttackCampaign clean_campaign(clean_cfg);
  const power::RequestTrace clean_trace =
      clean_campaign.record_trace(roc_placements.front());

  const json::Array& roc_points =
      root.find("roc")->as_object().find("points")->as_array();
  ASSERT_EQ(roc_points.size(), dyn_count * roc_detectors.size());
  std::size_t i = 0;
  for (std::size_t dyn = 0; dyn < dyn_count; ++dyn) {
    for (std::size_t d = 0; d < roc_detectors.size(); ++d, ++i) {
      const json::Object& pt = roc_points[i].as_object();
      double detect = 0.0;
      double latency_sum = 0.0;
      int latency_n = 0;
      for (std::size_t p = 0; p < roc_placements.size(); ++p) {
        const auto rep = power::replay_detector(
            traces[dyn * roc_placements.size() + p], roc_detectors[d]);
        detect += static_cast<double>(rep.unique_flagged()) / monitored;
        if (rep.first_flag_epoch >= 0) {
          latency_sum += rep.first_flag_epoch;
          ++latency_n;
        }
      }
      detect /= static_cast<double>(roc_placements.size());
      const auto clean_rep =
          power::replay_detector(clean_trace, roc_detectors[d]);
      EXPECT_EQ(pt.find("period")->as_int(),
                periods[dyn / factors.size()]);
      EXPECT_EQ(pt.find("factor")->as_double(),
                factors[dyn % factors.size()]);
      EXPECT_EQ(pt.find("kind")->as_string(),
                to_string(roc_detectors[d].kind));
      EXPECT_EQ(pt.find("detect")->as_double(), detect);
      EXPECT_EQ(pt.find("fp")->as_double(),
                static_cast<double>(clean_rep.unique_flagged()) / monitored);
      EXPECT_EQ(pt.find("latency")->as_double(),
                latency_n > 0 ? latency_sum / latency_n : -1.0);
    }
  }
}

// ----------------------------------------------- seeds, threads, traces

/// A deliberately small stochastic scenario (one mix, one coverage
/// target) so the determinism properties are cheap to assert.
ScenarioSpec small_attack_spec() {
  ScenarioSpec s;
  s.name = "small-attack";
  s.kind = ScenarioKind::kAttackEffect;
  std::tie(s.system.width, s.system.height) = mesh_for_size(64);
  s.system.epoch_cycles = 1500;
  s.trojan.victim_scale = 0.10;
  s.trojan.attacker_boost = 8.0;
  s.epochs = {1, 2};
  s.workload.mixes = {"mix-1"};
  s.axes.infection_targets = {0.5};
  s.axes.placement_max_hts = 16;
  s.validate();
  return s;
}

TEST(ScenarioRunner, SameSeedSameResultDifferentSeedDiffers) {
  const ScenarioSpec spec = small_attack_spec();
  const json::Value a = without_timing(run_scenario(spec));
  const json::Value b = without_timing(run_scenario(spec));
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));

  RunOptions reseeded;
  reseeded.seed = 999;
  const json::Value c = without_timing(run_scenario(spec, reseeded));
  EXPECT_NE(json::dump(a, 0), json::dump(c, 0));
}

TEST(ScenarioRunner, ResultIsThreadCountInvariant) {
  // Two infection targets, so the pool gets two campaigns and the
  // 4-thread run really runs them side by side.
  ScenarioSpec spec = small_attack_spec();
  spec.axes.infection_targets = {0.25, 0.5};
  spec.validate();
  RunOptions one;
  one.threads = 1;
  RunOptions four;
  four.threads = 4;
  EXPECT_EQ(json::dump(without_timing(run_scenario(spec, one)), 0),
            json::dump(without_timing(run_scenario(spec, four)), 0));
}

// ------------------------------------------------- defense-closed-loop

TEST(ScenarioRunner, ClosedLoopDeterministicAndThreadCountInvariant) {
  const ScenarioSpec& spec = scenario_or_throw("defense-closed-loop");
  RunOptions one;
  one.quick = true;
  one.threads = 1;
  RunOptions four;
  four.quick = true;
  four.threads = 4;
  const json::Value a = without_timing(run_scenario(spec, one));
  const json::Value b = without_timing(run_scenario(spec, one));
  const json::Value c = without_timing(run_scenario(spec, four));
  // Same seed -> bit-identical tree, including every response and
  // adaptation outcome; and the arm fan-out must not leak thread count.
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));
  EXPECT_EQ(json::dump(a, 0), json::dump(c, 0));
}

TEST(ScenarioRunner, ClosedLoopAdaptiveTrojanEvadesAtEqualMeanDuty) {
  const json::Value result = run_quick("defense-closed-loop");
  const json::Object& root = result.as_object();

  // The headline: grant-feedback duty control beats the EWMA detector
  // that catches a blind duty cycle of the same mean exposure.
  const json::Object& cmp = root.find("duty_comparison")->as_object();
  const json::Object& fixed = cmp.find("static")->as_object();
  const json::Object& adaptive = cmp.find("adaptive")->as_object();
  EXPECT_NEAR(fixed.find("duty")->as_double(), 0.5, 0.1);
  EXPECT_NEAR(adaptive.find("duty")->as_double(), 0.5, 0.1);
  EXPECT_LT(adaptive.find("detection_rate")->as_double(),
            fixed.find("detection_rate")->as_double());
  EXPECT_GT(fixed.find("detection_rate")->as_double(), 0.5);

  // Quick trims to one placement: 2 Trojan modes x (no response + 3
  // policies), every response arm carrying its tradeoff surface.
  const json::Array& arms = root.find("arms")->as_array();
  ASSERT_EQ(arms.size(), 8U);
  int with_response = 0;
  int adaptive_arms = 0;
  for (const auto& v : arms) {
    const json::Object& row = v.as_object();
    EXPECT_GE(row.find("detection_rate")->as_double(), 0.0);
    EXPECT_LE(row.find("detection_rate")->as_double(), 1.0);
    if (row.find("response")->as_string() != "none") {
      ++with_response;
      ASSERT_NE(row.find("victim_grant_recovery"), nullptr);
      ASSERT_NE(row.find("epochs_to_recovery"), nullptr);
      ASSERT_NE(row.find("collateral"), nullptr);
    }
    if (row.find("trojan")->as_string() == "adaptive") {
      ++adaptive_arms;
      ASSERT_NE(row.find("duty"), nullptr);
    }
  }
  EXPECT_EQ(with_response, 6);
  EXPECT_EQ(adaptive_arms, 4);
}

TEST(ScenarioRunner, TraceRecordReplayAgreesThroughDisk) {
  const ScenarioSpec spec = small_attack_spec();
  const power::RequestTrace trace = record_scenario_trace(spec);
  ASSERT_FALSE(trace.empty());

  const std::string path = "scenario_trace_roundtrip.htpbtrc";
  trace.save(path);
  const power::RequestTrace loaded = power::RequestTrace::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded, trace);

  // Scenario-level replay agrees with the raw power-layer replay, off
  // the in-memory trace and the loaded one alike.
  const json::Value a = replay_scenario_detectors(spec, trace);
  const json::Value b = replay_scenario_detectors(spec, loaded);
  EXPECT_EQ(json::dump(a, 0), json::dump(b, 0));
  const json::Array& reports = a.as_object().find("reports")->as_array();
  ASSERT_FALSE(reports.empty());
  const power::DetectorReport direct =
      power::replay_detector(trace, power::DetectorConfig{});
  EXPECT_EQ(static_cast<std::size_t>(
                reports[0].as_object().find("unique_flagged")->as_int()),
            direct.unique_flagged());
}

}  // namespace
}  // namespace htpb::scenario
