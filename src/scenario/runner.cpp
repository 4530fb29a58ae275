#include "scenario/runner.hpp"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/area_power.hpp"
#include "core/attack_model.hpp"
#include "core/campaign.hpp"
#include "core/defense_sweep.hpp"
#include "core/flooding.hpp"
#include "core/infection.hpp"
#include "core/optimizer.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "noc/network.hpp"
#include "scenario/cells.hpp"
#include "sim/engine.hpp"
#include "system/manycore_system.hpp"
#include "workload/application.hpp"
#include "workload/benchmark_profile.hpp"

namespace htpb::scenario {

namespace {

[[nodiscard]] double now_seconds() {
  using clock = std::chrono::steady_clock;
  // htpb-lint: allow(nondet-call) elapsed time reported as run metadata, not part of scenario results
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] const workload::Mix& mix_by_name(const std::string& name) {
  for (const auto& m : workload::standard_mixes()) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("unknown mix \"" + name + "\"");
}

/// The spec's campaign sections as a core::CampaignConfig. `mix_name`
/// empty = the uniform infection-only workload.
[[nodiscard]] core::CampaignConfig campaign_config(
    const ScenarioSpec& spec, const std::string& mix_name) {
  core::CampaignConfig cfg;
  cfg.system = spec.system.to_system_config();
  if (!mix_name.empty()) cfg.mix = mix_by_name(mix_name);
  cfg.threads_per_app = spec.workload.threads_per_app;
  cfg.trojan.active = spec.trojan.active;
  cfg.trojan.attenuate_victims = spec.trojan.attenuate_victims;
  cfg.trojan.boost_attackers = spec.trojan.boost_attackers;
  cfg.trojan.victim_scale = spec.trojan.victim_scale;
  cfg.trojan.attacker_boost = spec.trojan.attacker_boost;
  cfg.toggle_period_epochs = spec.trojan.toggle_period_epochs;
  cfg.trojan.adapt.enabled = spec.trojan.adaptation.enabled;
  cfg.trojan.adapt.alpha = spec.trojan.adaptation.alpha;
  cfg.trojan.adapt.backoff_ratio = spec.trojan.adaptation.backoff_ratio;
  cfg.trojan.adapt.max_on_epochs = spec.trojan.adaptation.max_on_epochs;
  cfg.trojan.adapt.hold_off_epochs = spec.trojan.adaptation.hold_off_epochs;
  cfg.warmup_epochs = spec.epochs.warmup;
  cfg.measure_epochs = spec.epochs.measure;
  if (spec.detector.has_value()) cfg.detector = spec.detector->to_config();
  if (spec.response.has_value()) cfg.response = spec.response->to_config();
  return cfg;
}

/// `spec.system` with the mesh swapped for a paper preset size.
[[nodiscard]] SystemSpec system_with_size(const SystemSpec& base, int nodes) {
  SystemSpec out = base;
  const auto [w, h] = mesh_for_size(nodes);
  out.width = w;
  out.height = h;
  return out;
}

[[nodiscard]] std::vector<NodeId> resolve_cluster(const ClusterSpec& c,
                                                  const MeshGeometry& geom,
                                                  NodeId gm) {
  Coord at{};
  switch (c.at) {
    case ClusterSpec::At::kGm: at = geom.coord_of(gm); break;
    case ClusterSpec::At::kCenter: at = geom.center(); break;
    case ClusterSpec::At::kCorner: at = MeshGeometry::corner(); break;
    case ClusterSpec::At::kQuarter:
      at = Coord{geom.width() / 4, geom.height() / 4};
      break;
  }
  return core::clustered_placement(geom, c.hts, at, gm);
}

/// The {ewma, cohort} x axes.bands detector grid shared by the defense
/// sweep's ROC replay and the --replay-trace surface -- one builder so
/// the two can never diverge in grid order or membership.
[[nodiscard]] std::vector<power::DetectorConfig> roc_detector_grid(
    const ScenarioSpec& spec) {
  std::vector<power::DetectorConfig> grid;
  for (const auto kind :
       {power::DetectorKind::kSelfEwma, power::DetectorKind::kCohortMedian}) {
    for (const BandSpec& band : spec.axes.bands) {
      power::DetectorConfig d;
      d.kind = kind;
      d.low_ratio = band.low;
      d.high_ratio = band.high;
      grid.push_back(d);
    }
  }
  return grid;
}

[[nodiscard]] json::Value app_list(const core::AttackCampaign& campaign) {
  json::Array apps;
  for (const auto& app : campaign.apps()) {
    json::Object ao;
    ao["name"] = json::Value(app.profile.name);
    ao["attacker"] = json::Value(app.is_attacker());
    ao["cores"] = json::Value(static_cast<long long>(app.cores.size()));
    apps.push_back(json::Value(std::move(ao)));
  }
  return json::Value(std::move(apps));
}

// ------------------------------------------------------------ per kind

/// The payload `{key: [item]}` of a single-slice cell; merge_cell_results
/// concatenates these back into the full axis.
[[nodiscard]] json::Value one_slice(const char* key, json::Object item) {
  json::Object payload;
  payload[key] = json::Value(json::Array{json::Value(std::move(item))});
  return json::Value(std::move(payload));
}

/// Fig. 3, one (arm, HT count) cell. Stochastic contract (= the legacy
/// bench): random placements for (seed index s, #HTs h) draw from
/// Rng(seed + s*77 + h); the default seed 1000 reproduces the
/// pre-registry bench bit for bit. The placements are drawn serially,
/// the (GM placement x seed) runs fan out across the pool, and each GM
/// placement's rates are summed in seed order, so the cell is identical
/// at any thread count.
json::Value run_infection_vs_ht_count(const ScenarioSpec& spec,
                                      const core::ParallelSweepRunner& runner) {
  const InfectionArm& arm = spec.axes.arms.front();
  const int hts = arm.ht_counts.front();
  const auto seeds = static_cast<std::size_t>(spec.axes.seeds);
  std::vector<core::AttackCampaign> campaigns;
  std::vector<std::vector<NodeId>> node_sets;  // GM-placement-major
  std::vector<double> analytic;
  for (const system::GmPlacement gm : spec.axes.gm_placements) {
    ScenarioSpec cell_spec = spec;
    cell_spec.system = system_with_size(spec.system, arm.nodes);
    cell_spec.system.gm_placement = gm;
    const core::AttackCampaign& campaign =
        campaigns.emplace_back(campaign_config(cell_spec, ""));
    const MeshGeometry geom(cell_spec.system.width, cell_spec.system.height);
    const core::InfectionAnalyzer analyzer(geom, campaign.gm_node());
    double predicted = 0.0;
    for (std::size_t s = 0; s < seeds; ++s) {
      Rng rng(spec.seed + s * 77 + static_cast<std::uint64_t>(hts));
      node_sets.push_back(
          core::random_placement(geom, hts, rng, campaign.gm_node()));
      predicted += analyzer.predicted_rate(node_sets.back());
    }
    analytic.push_back(predicted);
  }
  const std::vector<double> rates =
      runner.map(node_sets.size(), [&](std::size_t i) {
        core::AttackCampaign clone(campaigns[i / seeds]);
        return clone.run_infection_only(node_sets[i]);
      });

  json::Array cells;
  for (std::size_t g = 0; g < campaigns.size(); ++g) {
    double simulated = 0.0;
    for (std::size_t s = 0; s < seeds; ++s) simulated += rates[g * seeds + s];
    json::Object cell;
    cell["gm"] = json::Value(to_string(spec.axes.gm_placements[g]));
    cell["simulated"] = json::Value(simulated / spec.axes.seeds);
    cell["analytic"] = json::Value(analytic[g] / spec.axes.seeds);
    cells.push_back(json::Value(std::move(cell)));
  }
  json::Object row;
  row["hts"] = json::Value(hts);
  row["cells"] = json::Value(std::move(cells));
  json::Object arm_out;
  arm_out["nodes"] = json::Value(arm.nodes);
  arm_out["rows"] = json::Value(json::Array{json::Value(std::move(row))});
  return one_slice("arms", std::move(arm_out));
}

/// Fig. 4, one (divisor, size) cell. Random-placement trials draw from
/// Rng(seed + s*13 + size); seed 500 reproduces the legacy bench. The
/// center, corner and random-trial runs fan out across the pool; the
/// trials are summed in seed order.
json::Value run_infection_vs_distribution(
    const ScenarioSpec& spec, const core::ParallelSweepRunner& runner) {
  const int divisor = spec.axes.ht_divisors.front();
  const int size = spec.axes.sizes.front();
  const int hts = size / divisor;
  ScenarioSpec cell_spec = spec;
  cell_spec.system = system_with_size(spec.system, size);
  const core::AttackCampaign campaign(campaign_config(cell_spec, ""));
  const MeshGeometry geom(cell_spec.system.width, cell_spec.system.height);

  // [center, corner, random trial 0, random trial 1, ...]
  std::vector<std::vector<NodeId>> node_sets;
  node_sets.push_back(core::clustered_placement(geom, hts, geom.center(),
                                                campaign.gm_node()));
  node_sets.push_back(core::clustered_placement(
      geom, hts, MeshGeometry::corner(), campaign.gm_node()));
  for (int s = 0; s < spec.axes.seeds; ++s) {
    Rng rng(spec.seed + static_cast<std::uint64_t>(s) * 13 +
            static_cast<std::uint64_t>(size));
    node_sets.push_back(
        core::random_placement(geom, hts, rng, campaign.gm_node()));
  }
  const std::vector<double> rates =
      runner.map(node_sets.size(), [&](std::size_t i) {
        core::AttackCampaign clone(campaign);
        return clone.run_infection_only(node_sets[i]);
      });
  double rate_random = 0.0;
  for (std::size_t i = 2; i < rates.size(); ++i) rate_random += rates[i];
  rate_random /= spec.axes.seeds;

  json::Object row;
  row["size"] = json::Value(size);
  row["hts"] = json::Value(hts);
  row["center"] = json::Value(rates[0]);
  row["random"] = json::Value(rate_random);
  row["corner"] = json::Value(rates[1]);
  json::Object d;
  d["divisor"] = json::Value(divisor);
  d["rows"] = json::Value(json::Array{json::Value(std::move(row))});
  return one_slice("divisors", std::move(d));
}

/// Figs. 5 and 6 share one sweep, one mix per cell: greedy
/// target-coverage placements off one serial Rng(seed) stream (legacy
/// constant: 42), campaigns fanned across the pool. The result carries
/// both the Q reduction (Fig. 5) and the per-app Theta detail (Fig. 6).
json::Value run_attack_sweep(const ScenarioSpec& spec,
                             const core::ParallelSweepRunner& runner) {
  const std::string& mix_name = spec.workload.mixes.front();
  core::AttackCampaign campaign(campaign_config(spec, mix_name));
  const MeshGeometry geom(spec.system.width, spec.system.height);
  const core::InfectionAnalyzer analyzer(geom, campaign.gm_node());
  Rng rng(spec.seed);
  std::vector<std::vector<NodeId>> node_sets;
  node_sets.reserve(spec.axes.infection_targets.size());
  for (const double target : spec.axes.infection_targets) {
    node_sets.push_back(analyzer.placement_for_target(
        target, spec.axes.placement_max_hts, rng));
  }
  const auto outs = runner.run_node_sets(campaign, node_sets);

  json::Array rows;
  for (std::size_t t = 0; t < outs.size(); ++t) {
    json::Object row;
    row["target"] = json::Value(spec.axes.infection_targets[t]);
    row["infection"] = json::Value(outs[t].infection_measured);
    row["q"] = json::Value(outs[t].q);
    json::Array changes;
    for (const auto& app : outs[t].apps) {
      changes.push_back(json::Value(app.change));
    }
    row["theta_change"] = json::Value(std::move(changes));
    rows.push_back(json::Value(std::move(row)));
  }
  json::Object mix_out;
  mix_out["mix"] = json::Value(mix_name);
  mix_out["apps"] = app_list(campaign);
  mix_out["rows"] = json::Value(std::move(rows));
  return one_slice("mixes", std::move(mix_out));
}

/// Sec. V-C, one mix per cell. The whole-sweep stream for mix i is
/// Rng(seed + i); expand_cells rebases each cell's seed to seed + i, so
/// the cell draws from Rng(spec.seed). Inside it the legacy draw order is
/// preserved exactly (train placements, then the optimizer's stream
/// seed, then the random-trial placements).
json::Value run_placement_study(const ScenarioSpec& spec,
                                const core::ParallelSweepRunner& runner) {
  const std::string& mix_name = spec.workload.mixes.front();
  ScenarioSpec study = spec;
  study.system = system_with_size(spec.system, spec.axes.nodes);
  core::AttackCampaign campaign(campaign_config(study, mix_name));
  const MeshGeometry geom(study.system.width, study.system.height);
  Rng rng(spec.seed);

  // Phase 1: sample diverse placements (serially, from one stream) and
  // evaluate them across the pool to record (rho, eta, m, Q).
  std::vector<core::Placement> train;
  train.reserve(static_cast<std::size_t>(spec.axes.train_samples));
  for (int i = 0; i < spec.axes.train_samples; ++i) {
    const int m =
        1 + static_cast<int>(rng.below(
                static_cast<std::uint64_t>(spec.axes.max_hts)));
    train.push_back(core::candidate_placements(geom, campaign.gm_node(), m,
                                               1, rng)
                        .front());
  }
  const auto train_outs = runner.run_placements(campaign, train);

  std::vector<core::AttackSample> samples;
  std::vector<double> phi_victims;
  std::vector<double> phi_attackers;
  for (const auto& out : train_outs) {
    core::AttackSample s;
    s.rho = out.geometry.rho;
    s.eta = out.geometry.eta;
    s.m = out.geometry.m;
    for (const auto& app : out.apps) {
      (app.attacker ? s.phi_attackers : s.phi_victims).push_back(app.phi);
    }
    s.q = out.q;
    if (phi_victims.empty()) {
      phi_victims = s.phi_victims;
      phi_attackers = s.phi_attackers;
    }
    samples.push_back(std::move(s));
  }

  // Phase 2: fit Eq. 9 and enumerate (Eq. 10-11) across the pool; the
  // attacker validates the short list in simulation before committing.
  core::AttackEffectModel model;
  model.fit(samples);
  core::PlacementOptimizer optimizer(geom, campaign.gm_node(), &model,
                                     phi_victims, phi_attackers);
  const auto shortlist = optimizer.optimize_top_k(
      spec.axes.max_hts, spec.axes.candidates_per_m, spec.axes.shortlist,
      rng(), runner);
  std::vector<core::Placement> short_placements;
  short_placements.reserve(shortlist.size());
  for (const auto& r : shortlist) short_placements.push_back(r.placement);
  const auto realized = runner.run_placements(campaign, short_placements);
  std::size_t best = 0;
  for (std::size_t c = 1; c < realized.size(); ++c) {
    if (realized[c].q > realized[best].q) best = c;
  }

  std::vector<std::vector<NodeId>> random_sets;
  random_sets.reserve(static_cast<std::size_t>(spec.axes.random_trials));
  for (int t = 0; t < spec.axes.random_trials; ++t) {
    random_sets.push_back(core::random_placement(geom, spec.axes.max_hts,
                                                 rng, campaign.gm_node()));
  }
  double q_random = 0.0;
  for (const auto& out : runner.run_node_sets(campaign, random_sets)) {
    q_random += out.q;
  }
  q_random /= spec.axes.random_trials;

  json::Object row;
  row["mix"] = json::Value(mix_name);
  row["q_random"] = json::Value(q_random);
  // Realized Q of the model's top-scored candidate vs the deployed
  // (best-validated) one.
  row["q_model_top"] = json::Value(realized[0].q);
  row["q_deployed"] = json::Value(realized[best].q);
  row["gain"] = json::Value(realized[best].q / q_random - 1.0);
  row["model_r2"] = json::Value(model.r2());
  row["predicted_q"] = json::Value(shortlist[best].predicted_q);
  return one_slice("mixes", std::move(row));
}

/// Defense ROC: DefenseSweep curve plus the dense stealthy-Trojan grid
/// (duty-cycle period x modification factor x band x detector kind). The
/// detector grid rides on trace replays; only dynamics cells simulate.
json::Value run_defense_sweep(const ScenarioSpec& spec,
                              const core::ParallelSweepRunner& runner,
                              json::Object& timing) {
  core::DefenseSweepConfig sweep_cfg;
  sweep_cfg.base = campaign_config(spec, spec.workload.mix);
  sweep_cfg.base.detector.reset();
  for (const BandSpec& band : spec.axes.bands) {
    power::DetectorConfig d;
    d.low_ratio = band.low;
    d.high_ratio = band.high;
    sweep_cfg.detectors.push_back(d);
  }
  const core::AttackCampaign probe(sweep_cfg.base);
  const MeshGeometry geom(spec.system.width, spec.system.height);
  for (const ClusterSpec& cluster : spec.axes.placements) {
    sweep_cfg.placements.push_back(
        resolve_cluster(cluster, geom, probe.gm_node()));
  }

  const std::uint64_t sims_before_curve =
      core::AttackCampaign::systems_simulated();
  const double t_curve0 = now_seconds();
  const core::DefenseSweep sweep(sweep_cfg);
  const auto curve = sweep.run(runner);
  timing["curve_seconds"] = json::Value(now_seconds() - t_curve0);
  const std::uint64_t curve_sims =
      core::AttackCampaign::systems_simulated() - sims_before_curve;

  json::Object payload;
  {
    json::Object curve_out;
    curve_out["operating_points"] =
        json::Value(static_cast<long long>(sweep_cfg.detectors.size()));
    curve_out["placements"] =
        json::Value(static_cast<long long>(sweep_cfg.placements.size()));
    curve_out["simulations"] =
        json::Value(static_cast<long long>(curve_sims));
    json::Array points;
    for (const auto& pt : curve) {
      json::Object p;
      p["low"] = json::Value(pt.detector.low_ratio);
      p["high"] = json::Value(pt.detector.high_ratio);
      p["detection_rate"] = json::Value(pt.detection_rate);
      p["victim_flag_rate"] = json::Value(pt.victim_flag_rate);
      p["attacker_flag_rate"] = json::Value(pt.attacker_flag_rate);
      p["false_positive_rate"] = json::Value(pt.false_positive_rate);
      p["mean_detection_latency"] = json::Value(pt.mean_detection_latency);
      p["mean_q_plain"] = json::Value(pt.mean_q_plain);
      p["mean_q_guarded"] = json::Value(pt.mean_q_guarded);
      points.push_back(json::Value(std::move(p)));
    }
    curve_out["points"] = json::Value(std::move(points));
    payload["curve"] = json::Value(std::move(curve_out));
  }

  if (!spec.axes.roc.enabled()) return json::Value(std::move(payload));

  // ------------------------------------------------------------------
  // ROC grid. Record one trace per (period, factor, placement) dynamics
  // cell -- plus one clean trace per distinct system timing -- then
  // replay the full detector grid offline.
  // ------------------------------------------------------------------
  const RocSpec& roc = spec.axes.roc;
  const std::vector<power::DetectorConfig> roc_detectors =
      roc_detector_grid(spec);
  const std::vector<std::vector<NodeId>> roc_placements(
      sweep_cfg.placements.begin(),
      sweep_cfg.placements.begin() + roc.placements);

  int monitored = 0;
  for (const auto& app : probe.apps()) {
    monitored += static_cast<int>(app.cores.size());
  }

  const auto roc_config = [&](int period, double factor) {
    core::CampaignConfig cfg = sweep_cfg.base;
    cfg.trojan.victim_scale = factor;
    if (period == 0) {
      cfg.trojan.active = true;  // always-on, live from power-on
      cfg.toggle_period_epochs = 0;
      // Let the CONFIG_CMD broadcast finish before the first POWER_REQ:
      // the attack-from-epoch-0 scenario the cohort detector exists for.
      cfg.system.first_epoch_cycle = roc.epoch0_first_epoch_cycle;
    } else {
      cfg.trojan.active = false;  // dormant until the first toggle
      cfg.toggle_period_epochs = period;
    }
    return cfg;
  };

  const std::size_t dyn_count = roc.periods.size() * roc.factors.size();
  const std::size_t rec_count = dyn_count * roc_placements.size();
  const std::uint64_t sims_before_roc =
      core::AttackCampaign::systems_simulated();
  const double t_rec0 = now_seconds();
  const auto traces = runner.map(rec_count, [&](std::size_t i) {
    const std::size_t dyn = i / roc_placements.size();
    const std::size_t p = i % roc_placements.size();
    core::AttackCampaign campaign(
        roc_config(roc.periods[dyn / roc.factors.size()],
                   roc.factors[dyn % roc.factors.size()]));
    return campaign.record_trace(roc_placements[p]);
  });
  // Clean recordings: dormant Trojans mean identical dynamics across
  // factors and duty-cycle periods -- but NOT across system timing, so
  // the period=0 cells (which shift first_epoch_cycle) need their own
  // clean trace for an apples-to-apples detect/fp pair.
  const auto record_clean = [&](Cycle first_epoch_cycle) {
    core::CampaignConfig clean_cfg = sweep_cfg.base;
    clean_cfg.trojan.active = false;
    clean_cfg.toggle_period_epochs = 0;
    clean_cfg.system.first_epoch_cycle = first_epoch_cycle;
    core::AttackCampaign clean_campaign(clean_cfg);
    return clean_campaign.record_trace(roc_placements.front());
  };
  const bool has_period0 = std::find(roc.periods.begin(), roc.periods.end(),
                                     0) != roc.periods.end();
  const power::RequestTrace clean_trace =
      record_clean(sweep_cfg.base.system.first_epoch_cycle);
  const power::RequestTrace clean_trace_epoch0 =
      has_period0 ? record_clean(roc.epoch0_first_epoch_cycle)
                  : power::RequestTrace{};
  timing["record_seconds"] = json::Value(now_seconds() - t_rec0);
  const std::uint64_t roc_sims =
      core::AttackCampaign::systems_simulated() - sims_before_roc;

  // Replay the detector grid over every trace (and the clean traces).
  const double t_rep0 = now_seconds();
  std::vector<double> clean_fp(roc_detectors.size(), 0.0);
  std::vector<double> clean_fp_epoch0(roc_detectors.size(), 0.0);
  for (std::size_t d = 0; d < roc_detectors.size(); ++d) {
    const auto rep = power::replay_detector(clean_trace, roc_detectors[d]);
    clean_fp[d] = static_cast<double>(rep.unique_flagged()) / monitored;
    if (has_period0) {
      const auto rep0 =
          power::replay_detector(clean_trace_epoch0, roc_detectors[d]);
      clean_fp_epoch0[d] =
          static_cast<double>(rep0.unique_flagged()) / monitored;
    }
  }
  std::size_t replays = roc_detectors.size() * (has_period0 ? 2 : 1);
  json::Array roc_points;
  for (std::size_t dyn = 0; dyn < dyn_count; ++dyn) {
    for (std::size_t d = 0; d < roc_detectors.size(); ++d) {
      const int period = roc.periods[dyn / roc.factors.size()];
      const double factor = roc.factors[dyn % roc.factors.size()];
      double detect = 0.0;
      double latency_sum = 0.0;
      int latency_n = 0;
      for (std::size_t p = 0; p < roc_placements.size(); ++p) {
        const auto rep = power::replay_detector(
            traces[dyn * roc_placements.size() + p], roc_detectors[d]);
        ++replays;
        detect += static_cast<double>(rep.unique_flagged()) / monitored;
        if (rep.first_flag_epoch >= 0) {
          latency_sum += rep.first_flag_epoch;
          ++latency_n;
        }
      }
      detect /= static_cast<double>(roc_placements.size());
      json::Object pt;
      pt["period"] = json::Value(period);
      pt["factor"] = json::Value(factor);
      pt["kind"] = json::Value(to_string(roc_detectors[d].kind));
      pt["lo"] = json::Value(roc_detectors[d].low_ratio);
      pt["hi"] = json::Value(roc_detectors[d].high_ratio);
      pt["detect"] = json::Value(detect);
      pt["fp"] = json::Value(period == 0 ? clean_fp_epoch0[d] : clean_fp[d]);
      pt["latency"] = json::Value(
          latency_n > 0 ? latency_sum / latency_n : -1.0);
      roc_points.push_back(json::Value(std::move(pt)));
    }
  }
  timing["replay_seconds"] = json::Value(now_seconds() - t_rep0);

  json::Object roc_out;
  roc_out["dynamics_cells"] = json::Value(static_cast<long long>(dyn_count));
  roc_out["placements"] =
      json::Value(static_cast<long long>(roc_placements.size()));
  roc_out["detector_grid"] =
      json::Value(static_cast<long long>(roc_detectors.size()));
  roc_out["simulations"] = json::Value(static_cast<long long>(roc_sims));
  roc_out["replays"] = json::Value(static_cast<long long>(replays));
  roc_out["points"] = json::Value(std::move(roc_points));
  payload["roc"] = json::Value(std::move(roc_out));
  return json::Value(std::move(payload));
}

/// Detection & mitigation arms, one mix per cell. The detection/clean
/// arms use the spec's trojan schedule (mid-run activation) and
/// axes.detection_measure_epochs; the damage arms pin the Trojan
/// always-on so plain and guarded Q are directly comparable.
json::Value run_defense_evaluation(const ScenarioSpec& spec) {
  const std::string& mix_name = spec.workload.mixes.front();
  // Detection arm (mid-run activation); the run owns its detector.
  ScenarioSpec detect_spec = spec;
  detect_spec.epochs.measure = spec.axes.detection_measure_epochs;
  if (!detect_spec.detector.has_value()) {
    detect_spec.detector = DetectorSpec{};
  }
  core::CampaignConfig cfg = campaign_config(detect_spec, mix_name);
  core::AttackCampaign campaign(cfg);
  const MeshGeometry geom(spec.system.width, spec.system.height);
  const auto hts =
      resolve_cluster(ClusterSpec{ClusterSpec::At::kGm,
                                  spec.axes.cluster_hts},
                      geom, campaign.gm_node());
  const auto detected = campaign.run(hts);
  const power::DetectorReport report =
      detected.detection.value_or(power::DetectorReport{});

  // Damage arms: attack always on, no detector (and so no response).
  ScenarioSpec damage_spec = spec;
  damage_spec.trojan.active = true;
  damage_spec.trojan.toggle_period_epochs = 0;
  damage_spec.detector.reset();
  damage_spec.response.reset();
  core::AttackCampaign plain_campaign(
      campaign_config(damage_spec, mix_name));
  const auto plain = plain_campaign.run(hts);

  int victims = 0;
  int attackers = 0;
  for (const auto& app : campaign.apps()) {
    (app.is_attacker() ? attackers : victims) +=
        static_cast<int>(app.cores.size());
  }

  // False positives: same chip, Trojans never activated (detection-only
  // run; the clean arm has no use for a baseline). Forced dormant: the
  // arm must stay clean even for a spec whose trojan starts active.
  ScenarioSpec clean_spec = detect_spec;
  clean_spec.trojan.active = false;
  clean_spec.trojan.toggle_period_epochs = 0;
  core::AttackCampaign clean(campaign_config(clean_spec, mix_name));
  const auto clean_report =
      clean.run_detection_only(hts).value_or(power::DetectorReport{});
  const auto false_pos =
      clean_report.flagged_low.size() + clean_report.flagged_high.size();

  // Mitigation arm: the GuardedBudgeter clamps requests in-band.
  ScenarioSpec guard_spec = damage_spec;
  guard_spec.system.guard_requests = true;
  core::AttackCampaign guarded(campaign_config(guard_spec, mix_name));
  const auto mitigated = guarded.run(hts);
  double worst = 1.0;
  for (const auto& app : mitigated.apps) {
    if (!app.attacker) worst = std::min(worst, app.change);
  }

  json::Object row;
  row["mix"] = json::Value(mix_name);
  row["q_plain"] = json::Value(plain.q);
  row["q_guarded"] = json::Value(mitigated.q);
  row["victims_flagged"] =
      json::Value(static_cast<long long>(report.flagged_low.size()));
  row["victim_cores"] = json::Value(victims);
  row["attackers_flagged"] =
      json::Value(static_cast<long long>(report.flagged_high.size()));
  row["attacker_cores"] = json::Value(attackers);
  row["false_positives"] = json::Value(static_cast<long long>(false_pos));
  row["worst_victim_theta"] = json::Value(worst);
  return one_slice("rows", std::move(row));
}

/// False-data vs flooding on damage and detectability, plus the
/// duty-cycle stealth/damage dial. Flooder i at source node `src` draws
/// from Rng(seed + src) -- the legacy constant 7 reproduces the bench.
json::Value run_attack_comparison(const ScenarioSpec& spec,
                                  const core::ParallelSweepRunner& runner) {
  const workload::Mix& mix = mix_by_name(spec.workload.mix);
  system::SystemConfig sys_cfg = spec.system.to_system_config();
  int threads = spec.workload.threads_per_app;
  if (threads <= 0) threads = sys_cfg.node_count() / mix.app_count();
  auto apps = workload::instantiate_mix(mix, threads);
  workload::map_threads_round_robin(apps, sys_cfg.node_count());

  const auto victim_throughput = [&](system::ManyCoreSystem& sys) {
    double sum = 0.0;
    for (const auto& app : apps) {
      if (!app.is_attacker()) sum += sys.app_throughput(app.id);
    }
    return sum;
  };

  // ---- arm 1: clean reference ----------------------------------------
  double victim_theta_clean = 0.0;
  std::uint64_t gm_flits_clean = 0;
  {
    system::ManyCoreSystem sys(sys_cfg, apps);
    sys.run_epochs(spec.epochs.warmup);
    sys.reset_measurement();
    sys.run_epochs(spec.epochs.measure);
    victim_theta_clean = victim_throughput(sys);
    gm_flits_clean =
        sys.network().router(sys.gm_node()).stats().flits_forwarded;
  }

  // ---- arm 2: the paper's false-data attack ---------------------------
  core::AttackCampaign campaign(campaign_config(spec, spec.workload.mix));
  const MeshGeometry geom(spec.system.width, spec.system.height);
  const auto hts =
      resolve_cluster(ClusterSpec{ClusterSpec::At::kGm,
                                  spec.axes.cluster_hts},
                      geom, campaign.gm_node());
  const auto fd = campaign.run(hts);
  double victim_theta_fd = 0.0;
  for (const auto& app : fd.apps) {
    if (!app.attacker) victim_theta_fd += app.theta_attacked;
  }

  // ---- arm 3: flooding DoS against the manager ------------------------
  double victim_theta_flood = 0.0;
  std::uint64_t gm_flits_flood = 0;
  std::uint64_t flood_packets = 0;
  {
    system::ManyCoreSystem sys(sys_cfg, apps);
    std::vector<std::unique_ptr<core::FloodingAttacker>> flooders;
    for (const NodeId src : spec.axes.flood_sources) {
      flooders.push_back(std::make_unique<core::FloodingAttacker>(
          &sys.network(), src, sys.gm_node(), spec.axes.flood_rate,
          spec.seed + src));
      sys.engine().add_tickable(flooders.back().get());
    }
    sys.run_epochs(spec.epochs.warmup);
    sys.reset_measurement();
    sys.run_epochs(spec.epochs.measure);
    victim_theta_flood = victim_throughput(sys);
    gm_flits_flood =
        sys.network().router(sys.gm_node()).stats().flits_forwarded;
    for (const auto& f : flooders) flood_packets += f->packets_injected();
  }

  // ---- arm 4: duty-cycled activation sweep ----------------------------
  // Independent campaigns fanned across the pool (each task owns its
  // campaign, so results are identical at any thread count).
  const auto duty_outs =
      runner.map(spec.axes.toggle_periods.size(), [&](std::size_t i) {
        ScenarioSpec duty_spec = spec;
        duty_spec.epochs.warmup = spec.axes.duty_warmup_epochs;
        duty_spec.epochs.measure = spec.axes.duty_measure_epochs;
        duty_spec.trojan.toggle_period_epochs = spec.axes.toggle_periods[i];
        core::AttackCampaign duty(
            campaign_config(duty_spec, spec.workload.mix));
        const auto out = duty.run(hts);
        return std::pair<double, double>(out.infection_measured, out.q);
      });

  json::Object payload;
  {
    json::Object clean;
    clean["victim_throughput"] = json::Value(victim_theta_clean);
    clean["extra_packets"] = json::Value(0);
    clean["gm_flits"] = json::Value(static_cast<long long>(gm_flits_clean));
    payload["clean"] = json::Value(std::move(clean));

    json::Object false_data;
    false_data["victim_throughput"] = json::Value(victim_theta_fd);
    false_data["extra_packets"] = json::Value(0);
    // The Trojan rewrites payloads in flight: utilization counters are
    // identical to the clean run -- the stealth headline.
    false_data["gm_flits"] =
        json::Value(static_cast<long long>(gm_flits_clean));
    false_data["q"] = json::Value(fd.q);
    payload["false_data"] = json::Value(std::move(false_data));

    json::Object flooding;
    flooding["victim_throughput"] = json::Value(victim_theta_flood);
    flooding["extra_packets"] =
        json::Value(static_cast<long long>(flood_packets));
    flooding["gm_flits"] =
        json::Value(static_cast<long long>(gm_flits_flood));
    payload["flooding"] = json::Value(std::move(flooding));
  }
  json::Array duty;
  for (std::size_t i = 0; i < spec.axes.toggle_periods.size(); ++i) {
    json::Object row;
    row["period"] = json::Value(spec.axes.toggle_periods[i]);
    row["infection"] = json::Value(duty_outs[i].first);
    row["q"] = json::Value(duty_outs[i].second);
    duty.push_back(json::Value(std::move(row)));
  }
  payload["duty_cycle"] = json::Value(std::move(duty));
  return json::Value(std::move(payload));
}

/// The mix-1 attack under one allocation policy per cell.
json::Value run_budgeter_ablation(const ScenarioSpec& spec) {
  const power::BudgeterKind kind = spec.axes.budgeters.front();
  ScenarioSpec arm = spec;
  arm.system.budgeter = kind;
  core::AttackCampaign campaign(campaign_config(arm, spec.workload.mix));
  const MeshGeometry geom(spec.system.width, spec.system.height);
  const auto hts =
      resolve_cluster(ClusterSpec{ClusterSpec::At::kGm,
                                  spec.axes.cluster_hts},
                      geom, campaign.gm_node());
  const auto out = campaign.run(hts);
  double worst_victim = 1e9;
  double best_attacker = 0.0;
  for (const auto& app : out.apps) {
    if (app.attacker) {
      best_attacker = std::max(best_attacker, app.change);
    } else {
      worst_victim = std::min(worst_victim, app.change);
    }
  }
  json::Object row;
  row["budgeter"] = json::Value(power::to_string(kind));
  row["q"] = json::Value(out.q);
  row["infection"] = json::Value(out.infection_measured);
  row["worst_victim"] = json::Value(worst_victim);
  row["best_attacker"] = json::Value(best_attacker);
  return one_slice("rows", std::move(row));
}

/// Closed-loop defense tradeoff grid for one placement per cell:
/// {static, adaptive} Trojan x {none + axes.responses} response policy.
/// Every arm is an independent re-simulation (responses perturb the
/// dynamics, so nothing here can ride on trace replays); arms fan out
/// across the pool. The static and adaptive arms are tuned to equal mean
/// duty cycle (toggle_period_epochs vs max_on/hold_off), so the
/// duty_comparison block isolates what grant-feedback adaptation buys the
/// attacker; merge_cell_results keeps the first placement's.
json::Value run_defense_closed_loop(const ScenarioSpec& spec,
                                    const core::ParallelSweepRunner& runner) {
  struct Arm {
    bool adaptive = false;
    int response = -1;  // -1 = no response policy, else axes.responses index
  };

  const ClusterSpec& cluster = spec.axes.placements.front();
  const core::AttackCampaign probe(campaign_config(spec, spec.workload.mix));
  const MeshGeometry geom(spec.system.width, spec.system.height);
  const std::vector<NodeId> placement =
      resolve_cluster(cluster, geom, probe.gm_node());
  int attacker_cores = 0;
  for (const auto& app : probe.apps()) {
    if (app.is_attacker()) attacker_cores += static_cast<int>(app.cores.size());
  }

  std::vector<Arm> arms;
  for (const bool adaptive : {false, true}) {
    for (int r = -1; r < static_cast<int>(spec.axes.responses.size()); ++r) {
      arms.push_back(Arm{adaptive, r});
    }
  }

  const auto outs = runner.map(arms.size(), [&](std::size_t i) {
    const Arm& arm = arms[i];
    core::CampaignConfig cfg = campaign_config(spec, spec.workload.mix);
    if (arm.adaptive) {
      // Grant-feedback duty cycling replaces the open-loop toggle; the
      // Trojans start live, the agent decides epoch by epoch.
      cfg.trojan.active = true;
      cfg.toggle_period_epochs = 0;
      cfg.trojan.adapt.enabled = true;
    } else {
      cfg.trojan.adapt.enabled = false;
    }
    if (arm.response < 0) {
      cfg.response.reset();
    } else {
      cfg.response->kind =
          spec.axes.responses[static_cast<std::size_t>(arm.response)];
    }
    core::AttackCampaign campaign(cfg);
    return campaign.run(placement);
  });

  const auto detection_rate = [&](const core::CampaignOutcome& out) {
    if (!out.detection.has_value() || attacker_cores == 0) return 0.0;
    // Capped at 1: a migration re-flags attackers at their new positions,
    // so the cumulative distinct-node count can exceed the physical cores.
    return std::min(1.0,
                    static_cast<double>(out.detection->flagged_high.size()) /
                        static_cast<double>(attacker_cores));
  };

  json::Array rows;
  json::Object comparison;
  for (std::size_t i = 0; i < arms.size(); ++i) {
    const Arm& arm = arms[i];
    const core::CampaignOutcome& out = outs[i];
    json::Object row;
    row["placement"] = json::Value(to_string(cluster.at));
    row["trojan"] = json::Value(arm.adaptive ? "adaptive" : "static");
    row["response"] = json::Value(
        arm.response < 0
            ? "none"
            : power::to_string(
                  spec.axes.responses[static_cast<std::size_t>(arm.response)]));
    row["q"] = json::Value(out.q);
    row["infection"] = json::Value(out.infection_measured);
    const power::DetectorReport rep =
        out.detection.value_or(power::DetectorReport{});
    row["attackers_flagged"] =
        json::Value(static_cast<long long>(rep.flagged_high.size()));
    row["victims_flagged"] =
        json::Value(static_cast<long long>(rep.flagged_low.size()));
    row["detection_rate"] = json::Value(detection_rate(out));
    row["first_flag_epoch"] = json::Value(rep.first_flag_epoch);
    if (out.adaptation.has_value()) {
      row["duty"] = json::Value(out.adaptation->duty());
      row["backoffs"] = json::Value(out.adaptation->backoffs);
    }
    if (out.response.has_value()) {
      const core::ResponseOutcome& ro = *out.response;
      row["sanctioned_cores"] =
          json::Value(static_cast<long long>(ro.sanctioned_cores.size()));
      row["collateral"] = json::Value(ro.collateral);
      row["sanction_core_epochs"] =
          json::Value(static_cast<long long>(ro.sanction_core_epochs));
      row["denied_requests"] =
          json::Value(static_cast<long long>(ro.denied_requests));
      row["clamped_requests"] =
          json::Value(static_cast<long long>(ro.clamped_requests));
      row["first_sanction_epoch"] = json::Value(ro.first_sanction_epoch);
      row["epochs_to_recovery"] = json::Value(ro.epochs_to_recovery);
      row["victim_grant_recovery"] = json::Value(ro.victim_grant_recovery);
      row["migrations"] = json::Value(ro.migrations);
    }
    rows.push_back(json::Value(std::move(row)));

    // Evasion headline: the response-free arms, static (toggle, duty
    // 1/2) vs adaptive (max_on/hold_off, equal duty).
    if (arm.response >= 0) continue;
    json::Object half;
    half["detection_rate"] = json::Value(detection_rate(out));
    half["q"] = json::Value(out.q);
    half["duty"] = json::Value(
        out.adaptation.has_value() ? out.adaptation->duty() : 0.5);
    comparison[arm.adaptive ? "adaptive" : "static"] =
        json::Value(std::move(half));
  }

  json::Object payload;
  payload["attacker_cores"] = json::Value(attacker_cores);
  payload["arms"] = json::Value(std::move(rows));
  payload["duty_comparison"] = json::Value(std::move(comparison));
  return json::Value(std::move(payload));
}

/// Table I: the implemented configuration plus a zero-load latency check
/// of the NoC timing parameters on the wire.
json::Value run_config_report(const ScenarioSpec& spec) {
  const system::SystemConfig cfg = spec.system.to_system_config();
  json::Object params;
  params["nodes"] = json::Value(cfg.node_count());
  params["width"] = json::Value(cfg.width);
  params["height"] = json::Value(cfg.height);
  params["l1_sets"] = json::Value(static_cast<long long>(cfg.l1.sets));
  params["l1_ways"] = json::Value(cfg.l1.ways);
  params["l1_mshrs"] = json::Value(cfg.l1.mshrs);
  params["l2_sets"] = json::Value(static_cast<long long>(cfg.l2.sets));
  params["l2_ways"] = json::Value(cfg.l2.ways);
  params["mem_latency"] =
      json::Value(static_cast<long long>(cfg.l2.mem_latency));
  params["data_packet_flits"] = json::Value(cfg.noc.data_packet_flits);
  params["meta_packet_flits"] = json::Value(cfg.noc.meta_packet_flits);
  params["router_latency"] = json::Value(cfg.noc.router_latency);
  params["link_latency"] = json::Value(cfg.noc.link_latency);
  params["vcs"] = json::Value(cfg.noc.vcs);
  params["vc_depth"] = json::Value(cfg.noc.vc_depth);

  // Verify Table I's timing on the wire: one-hop zero-load latency of a
  // 1-flit packet must equal (hops+1)*(router+link) + link.
  sim::Engine engine;
  MeshGeometry geom(2, 1);
  noc::MeshNetwork net(engine, geom, cfg.noc);
  Cycle measured = 0;
  net.set_handler(1, [&](const noc::Packet& p) {
    measured = p.delivered - p.birth;
  });
  net.send(net.make_packet(0, 1, noc::PacketType::kMemReadReq));
  engine.run_cycles(30);
  const Cycle expected = static_cast<Cycle>(
      2 * (cfg.noc.router_latency + cfg.noc.link_latency) +
      cfg.noc.link_latency);

  json::Object latency;
  latency["measured"] = json::Value(static_cast<long long>(measured));
  latency["analytic"] = json::Value(static_cast<long long>(expected));
  latency["match"] = json::Value(measured == expected);

  json::Object payload;
  payload["parameters"] = json::Value(std::move(params));
  payload["zero_load_latency"] = json::Value(std::move(latency));
  return json::Value(std::move(payload));
}

/// Tables II-III: the benchmark roster and mixes, plus each benchmark's
/// measured power sensitivity Phi (Def. 5) on a quiet chip.
json::Value run_benchmark_report(const ScenarioSpec& spec) {
  json::Array roster;
  for (const auto& b : workload::benchmark_table()) {
    json::Object row;
    row["name"] = json::Value(b.name);
    row["suite"] = json::Value(b.suite);
    row["cpi_base"] = json::Value(b.cpi_base);
    row["apki"] = json::Value(b.apki);
    row["working_set_lines"] =
        json::Value(static_cast<long long>(b.working_set_lines));
    row["shared_fraction"] = json::Value(b.shared_fraction);
    row["write_fraction"] = json::Value(b.write_fraction);
    roster.push_back(json::Value(std::move(row)));
  }

  json::Array mixes;
  for (const auto& mix : workload::standard_mixes()) {
    json::Object row;
    row["name"] = json::Value(mix.name);
    json::Array attackers;
    for (const auto& a : mix.attackers) attackers.push_back(json::Value(a));
    json::Array victims;
    for (const auto& v : mix.victims) victims.push_back(json::Value(v));
    row["attackers"] = json::Value(std::move(attackers));
    row["victims"] = json::Value(std::move(victims));
    mixes.push_back(json::Value(std::move(row)));
  }

  // Measured Phi: one benchmark at a time on a quiet chip, uniform
  // placement, `epochs.measure` epochs.
  const SystemSpec sys_spec = system_with_size(spec.system, spec.axes.nodes);
  json::Array phi;
  for (const auto& profile : workload::benchmark_table()) {
    workload::Mix solo;
    solo.name = profile.name;
    solo.victims = {profile.name};
    auto apps = workload::instantiate_mix(solo, spec.axes.nodes);
    workload::map_threads_round_robin(apps, spec.axes.nodes);
    system::ManyCoreSystem sys(sys_spec.to_system_config(), apps);
    sys.run_epochs(spec.epochs.measure);
    json::Object row;
    row["name"] = json::Value(profile.name);
    row["phi"] = json::Value(sys.app_sensitivity(0));
    phi.push_back(json::Value(std::move(row)));
  }

  json::Object payload;
  payload["benchmarks"] = json::Value(std::move(roster));
  payload["mixes"] = json::Value(std::move(mixes));
  payload["phi"] = json::Value(std::move(phi));
  return json::Value(std::move(payload));
}

/// Sec. III-D: every derived stealth number from the synthesis constants.
json::Value run_area_power_report(const ScenarioSpec& spec) {
  const core::HtAreaPowerModel m;
  json::Object model;
  model["ht_area_um2"] = json::Value(m.ht_area_um2);
  model["ht_power_uw"] = json::Value(m.ht_power_uw);
  model["router_area_um2"] = json::Value(m.router.area_um2);
  model["router_power_uw"] = json::Value(m.router.power_uw);
  model["area_fraction_of_router"] = json::Value(m.area_fraction_of_router());
  model["power_fraction_of_router"] =
      json::Value(m.power_fraction_of_router());

  json::Array scaling;
  for (const int hts : spec.axes.ht_counts) {
    json::Object row;
    row["hts"] = json::Value(hts);
    row["total_area_um2"] = json::Value(m.total_area_um2(hts));
    row["total_power_uw"] = json::Value(m.total_power_uw(hts));
    row["area_fraction_of_chip"] =
        json::Value(m.area_fraction_of_chip(hts, spec.axes.nodes));
    row["power_fraction_of_chip"] =
        json::Value(m.power_fraction_of_chip(hts, spec.axes.nodes));
    scaling.push_back(json::Value(std::move(row)));
  }

  json::Object payload;
  payload["chip_nodes"] = json::Value(spec.axes.nodes);
  payload["model"] = json::Value(std::move(model));
  payload["scaling"] = json::Value(std::move(scaling));
  return json::Value(std::move(payload));
}

/// One expand_cells cell's payload; `timing` collects the per-phase
/// seconds the defense sweep reports.
json::Value run_cell(const ScenarioSpec& cell,
                     const core::ParallelSweepRunner& runner,
                     json::Object& timing) {
  switch (cell.kind) {
    case ScenarioKind::kInfectionVsHtCount:
      return run_infection_vs_ht_count(cell, runner);
    case ScenarioKind::kInfectionVsDistribution:
      return run_infection_vs_distribution(cell, runner);
    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kPerformanceChange:
      return run_attack_sweep(cell, runner);
    case ScenarioKind::kPlacementStudy:
      return run_placement_study(cell, runner);
    case ScenarioKind::kDefenseSweep:
      return run_defense_sweep(cell, runner, timing);
    case ScenarioKind::kDefenseEvaluation:
      return run_defense_evaluation(cell);
    case ScenarioKind::kAttackComparison:
      return run_attack_comparison(cell, runner);
    case ScenarioKind::kBudgeterAblation:
      return run_budgeter_ablation(cell);
    case ScenarioKind::kConfigReport:
      return run_config_report(cell);
    case ScenarioKind::kBenchmarkReport:
      return run_benchmark_report(cell);
    case ScenarioKind::kAreaPowerReport:
      return run_area_power_report(cell);
    case ScenarioKind::kDefenseClosedLoop:
      return run_defense_closed_loop(cell, runner);
  }
  throw std::logic_error("run_cell: unhandled scenario kind");
}

}  // namespace

ScenarioSpec resolve(const ScenarioSpec& spec, const RunOptions& opts) {
  ScenarioSpec resolved = opts.quick ? spec.with_quick() : spec;
  if (opts.seed.has_value()) {
    resolved.seed = *opts.seed;
    resolved.system.seed = *opts.seed;
  }
  if (opts.threads > 0) resolved.threads = opts.threads;
  resolved.validate();
  return resolved;
}

json::Value run_scenario(const ScenarioSpec& spec, const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  const core::ParallelSweepRunner runner(s.threads);
  json::Object timing;
  const double t0 = now_seconds();
  const std::vector<CellPlan> cells = expand_cells(s);
  std::vector<json::Value> results;
  results.reserve(cells.size());
  for (const CellPlan& cell : cells) {
    results.push_back(run_cell(cell.spec, runner, timing));
  }
  timing["seconds"] = json::Value(now_seconds() - t0);
  json::Value envelope =
      merge_cell_results(s, opts.quick, runner.threads(), results);
  envelope.as_object()["timing"] = json::Value(std::move(timing));
  return envelope;
}

power::RequestTrace record_scenario_trace(const ScenarioSpec& spec,
                                          const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  const std::string mix_name =
      !s.workload.mixes.empty() ? s.workload.mixes.front() : s.workload.mix;
  core::CampaignConfig cfg = campaign_config(s, mix_name);
  cfg.detector.reset();  // recording is detector-free by construction
  cfg.response.reset();  // ... and responses perturb what they'd record
  core::AttackCampaign campaign(cfg);
  const MeshGeometry geom(s.system.width, s.system.height);
  const ClusterSpec cluster = s.axes.placements.empty()
                                  ? ClusterSpec{ClusterSpec::At::kGm,
                                                s.axes.cluster_hts}
                                  : s.axes.placements.front();
  const auto placement = resolve_cluster(cluster, geom, campaign.gm_node());
  return campaign.record_trace(placement);
}

json::Value replay_scenario_detectors(const ScenarioSpec& spec,
                                      const power::RequestTrace& trace,
                                      const RunOptions& opts) {
  const ScenarioSpec s = resolve(spec, opts);
  // A trace is only meaningful against the chip it was recorded on: a
  // detector replayed into the wrong geometry would file confident
  // nonsense. Refuse loudly instead.
  const int spec_nodes = s.system.width * s.system.height;
  if (trace.node_count != spec_nodes) {
    throw std::runtime_error(
        "trace/scenario mismatch: trace was recorded on " +
        std::to_string(trace.node_count) + " nodes but scenario \"" + s.name +
        "\" builds " + std::to_string(spec_nodes));
  }
  if (trace.epoch_cycles != s.system.epoch_cycles) {
    throw std::runtime_error(
        "trace/scenario mismatch: trace epoch_cycles " +
        std::to_string(trace.epoch_cycles) + " vs scenario \"" + s.name +
        "\" epoch_cycles " + std::to_string(s.system.epoch_cycles));
  }
  std::vector<power::DetectorConfig> detectors;
  if (s.detector.has_value()) detectors.push_back(s.detector->to_config());
  const std::vector<power::DetectorConfig> grid = roc_detector_grid(s);
  detectors.insert(detectors.end(), grid.begin(), grid.end());
  if (detectors.empty()) detectors.push_back(power::DetectorConfig{});

  json::Array reports;
  for (const power::DetectorConfig& d : detectors) {
    const power::DetectorReport rep = power::replay_detector(trace, d);
    json::Object row;
    row["kind"] = json::Value(to_string(d.kind));
    row["low"] = json::Value(d.low_ratio);
    row["high"] = json::Value(d.high_ratio);
    row["unique_flagged"] =
        json::Value(static_cast<long long>(rep.unique_flagged()));
    json::Array low_nodes;
    for (const NodeId n : rep.flagged_low) {
      low_nodes.push_back(json::Value(static_cast<long long>(n)));
    }
    json::Array high_nodes;
    for (const NodeId n : rep.flagged_high) {
      high_nodes.push_back(json::Value(static_cast<long long>(n)));
    }
    row["flagged_low"] = json::Value(std::move(low_nodes));
    row["flagged_high"] = json::Value(std::move(high_nodes));
    row["first_flag_epoch"] = json::Value(rep.first_flag_epoch);
    row["epochs_observed"] =
        json::Value(static_cast<long long>(rep.epochs_observed));
    reports.push_back(json::Value(std::move(row)));
  }
  json::Object payload;
  payload["scenario"] = json::Value(s.name);
  payload["epochs"] = json::Value(static_cast<long long>(trace.size()));
  payload["node_count"] = json::Value(trace.node_count);
  payload["reports"] = json::Value(std::move(reports));
  return json::Value(std::move(payload));
}

}  // namespace htpb::scenario
