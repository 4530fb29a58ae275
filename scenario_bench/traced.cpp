#include "traced.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "common/geometry.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "core/infection.hpp"
#include "core/parallel_sweep.hpp"
#include "core/placement.hpp"
#include "power/request_trace.hpp"
#include "scenario/registry.hpp"
#include "system/manycore_system.hpp"

namespace scenario_bench {

namespace {

namespace json = htpb::json;
namespace core = htpb::core;
namespace scenario = htpb::scenario;
using htpb::MeshGeometry;
using htpb::NodeId;
using htpb::Rng;
using Scope = Tracer::Scope;

/// Per-call latencies reported with a median and a tail.
constexpr const char* kTimedCalls[] = {
    "scenario.resolve", "core.campaign_build", "core.baseline",
    "core.run",         "system.build",        "system.teardown",
    "system.epoch",     "system.save_state",   "system.load_state",
    "json.dump",        "json.parse",          "power.replay",
};

/// Layers whose span self time is reported.
constexpr const char* kLayers[] = {"scenario", "core", "system", "json",
                                   "power"};

/// Replays per repetition in the power probe (one replay takes
/// microseconds, so one would be a single noisy sample).
constexpr int kReplays = 16;

/// Everything a repetition counts; deterministic, so every repetition
/// must count the same.
struct Counts {
  std::uint64_t systems_simulated = 0;
  std::uint64_t warmup_epochs_simulated = 0;
  std::uint64_t tampered_requests = 0;
  std::uint64_t flits_forwarded = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t sa_conflict_stalls = 0;
  std::uint64_t va_stalls = 0;
  double latency_mean_cycles = 0.0;
  double instructions_retired = 0.0;
  std::uint64_t cycles = 0;
  int cores = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t l1_misses = 0;
  std::uint64_t l2_memory_fetches = 0;
  std::uint64_t snapshot_bytes = 0;

  friend bool operator==(const Counts&, const Counts&) = default;
};

/// `<name>` = median, `<name>.tail` = the highest nearest-rank percentile
/// with at least ten samples above it (the maximum when there are fewer
/// than eleven samples), `<name>.tail_pct` = that percentile, `<name>.n`.
void put_latency(json::Object& m, const std::string& name,
                 std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  double tail = n == 0 ? 0.0 : samples.back();
  double pct = n == 0 ? 0.0 : 100.0;
  if (n >= 11) {
    const std::size_t k = n - 11;  // 0-based rank; n - 1 - k = 10 above it
    tail = samples[k];
    pct = 100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
  }
  put(m, name, median(samples), "s");
  put(m, name + ".tail", tail, "s");
  put(m, name + ".tail_pct", pct, "%");
  put(m, name + ".n", static_cast<double>(n), "count");
}

[[nodiscard]] std::string layer_of(const std::string& span_name) {
  return span_name.substr(0, span_name.find('.'));
}

// ----------------------------------------------------------- re-drives
//
// Each re-drive makes the same calls, in the same order and with the same
// arguments, as the scenario runner does for its kind, so its result is
// the runner's result; only the spans are new.

[[nodiscard]] json::Value redrive_fig3(const scenario::ScenarioSpec& spec,
                                       Tracer& t) {
  // The runner's infection sweep is serial whatever the pool size.
  const Scope sweep(t, "core.sweep");
  json::Array arms;
  for (const scenario::InfectionArm& arm : spec.axes.arms) {
    json::Array rows;
    for (const int hts : arm.ht_counts) {
      json::Array cells;
      for (const htpb::system::GmPlacement gm : spec.axes.gm_placements) {
        scenario::ScenarioSpec cell_spec = spec;
        const auto [w, h] = scenario::mesh_for_size(arm.nodes);
        cell_spec.system.width = w;
        cell_spec.system.height = h;
        cell_spec.system.gm_placement = gm;
        std::optional<core::AttackCampaign> campaign;
        {
          const Scope s(t, "core.campaign_build");
          campaign.emplace(campaign_config(cell_spec, ""));
        }
        const MeshGeometry geom(w, h);
        std::optional<core::InfectionAnalyzer> analyzer;
        {
          const Scope s(t, "core.analyzer_build");
          analyzer.emplace(geom, campaign->gm_node());
        }
        double simulated = 0.0;
        double analytic = 0.0;
        for (int s = 0; s < spec.axes.seeds; ++s) {
          Rng rng(spec.seed + static_cast<std::uint64_t>(s) * 77 +
                  static_cast<std::uint64_t>(hts));
          const auto nodes =
              core::random_placement(geom, hts, rng, campaign->gm_node());
          {
            const Scope run(t, "core.run");
            simulated += campaign->run_infection_only(nodes);
          }
          analytic += analyzer->predicted_rate(nodes);
        }
        json::Object cell;
        cell["gm"] = json::Value(scenario::to_string(gm));
        cell["simulated"] = json::Value(simulated / spec.axes.seeds);
        cell["analytic"] = json::Value(analytic / spec.axes.seeds);
        cells.push_back(json::Value(std::move(cell)));
      }
      json::Object row;
      row["hts"] = json::Value(hts);
      row["cells"] = json::Value(std::move(cells));
      rows.push_back(json::Value(std::move(row)));
    }
    json::Object arm_out;
    arm_out["nodes"] = json::Value(arm.nodes);
    arm_out["rows"] = json::Value(std::move(rows));
    arms.push_back(json::Value(std::move(arm_out)));
  }
  json::Object payload;
  payload["arms"] = json::Value(std::move(arms));
  return json::Value(std::move(payload));
}

/// ParallelSweepRunner::run_node_sets, unrolled: prime the master's
/// baseline, then clone it per placement across the pool.
[[nodiscard]] json::Value redrive_fig5(const scenario::ScenarioSpec& spec,
                                       const core::ParallelSweepRunner& runner,
                                       Tracer& t, Counts& counts) {
  json::Array mixes_out;
  for (const std::string& mix_name : spec.workload.mixes) {
    std::optional<core::AttackCampaign> campaign;
    {
      const Scope s(t, "core.campaign_build");
      campaign.emplace(campaign_config(spec, mix_name));
    }
    const MeshGeometry geom(spec.system.width, spec.system.height);
    std::optional<core::InfectionAnalyzer> analyzer;
    {
      const Scope s(t, "core.analyzer_build");
      analyzer.emplace(geom, campaign->gm_node());
    }
    Rng rng(spec.seed);
    std::vector<std::vector<NodeId>> node_sets;
    for (const double target : spec.axes.infection_targets) {
      node_sets.push_back(analyzer->placement_for_target(
          target, spec.axes.placement_max_hts, rng));
    }
    {
      const Scope s(t, "core.baseline");
      campaign->prime_baseline();
    }
    std::vector<core::CampaignOutcome> outs;
    {
      const Scope sweep(t, "core.sweep");
      const std::uint64_t parent = sweep.id();
      outs = runner.map(node_sets.size(), [&](std::size_t i) {
        core::AttackCampaign clone(*campaign);
        const Scope s(t, "core.run", parent);
        return clone.run(node_sets[i]);
      });
    }

    json::Array rows;
    for (std::size_t i = 0; i < outs.size(); ++i) {
      counts.tampered_requests +=
          outs[i].trojan_totals.victim_requests_modified +
          outs[i].trojan_totals.attacker_requests_boosted;
      json::Object row;
      row["target"] = json::Value(spec.axes.infection_targets[i]);
      row["infection"] = json::Value(outs[i].infection_measured);
      row["q"] = json::Value(outs[i].q);
      json::Array changes;
      for (const auto& app : outs[i].apps) {
        changes.push_back(json::Value(app.change));
      }
      row["theta_change"] = json::Value(std::move(changes));
      rows.push_back(json::Value(std::move(row)));
    }
    json::Array apps;
    for (const auto& app : campaign->apps()) {
      json::Object ao;
      ao["name"] = json::Value(app.profile.name);
      ao["attacker"] = json::Value(app.is_attacker());
      ao["cores"] = json::Value(static_cast<long long>(app.cores.size()));
      apps.push_back(json::Value(std::move(ao)));
    }
    json::Object mix_out;
    mix_out["mix"] = json::Value(mix_name);
    mix_out["apps"] = json::Value(std::move(apps));
    mix_out["rows"] = json::Value(std::move(rows));
    mixes_out.push_back(json::Value(std::move(mix_out)));
  }
  json::Object payload;
  payload["mixes"] = json::Value(std::move(mixes_out));
  return json::Value(std::move(payload));
}

[[nodiscard]] std::vector<NodeId> cluster_nodes(const scenario::ClusterSpec& c,
                                                const MeshGeometry& geom,
                                                NodeId gm) {
  htpb::Coord at{};
  switch (c.at) {
    case scenario::ClusterSpec::At::kGm: at = geom.coord_of(gm); break;
    case scenario::ClusterSpec::At::kCenter: at = geom.center(); break;
    case scenario::ClusterSpec::At::kCorner: at = MeshGeometry::corner(); break;
    case scenario::ClusterSpec::At::kQuarter:
      at = htpb::Coord{geom.width() / 4, geom.height() / 4};
      break;
  }
  return core::clustered_placement(geom, c.hts, at, gm);
}

/// The closed-loop arms (placement x {static, adaptive} x {none +
/// responses}) across the pool. Returns the outcomes in arm order; the
/// caller checks them against the untraced tree's rows.
[[nodiscard]] std::vector<core::CampaignOutcome> redrive_closed_loop(
    const scenario::ScenarioSpec& spec, const core::ParallelSweepRunner& runner,
    Tracer& t, Counts& counts) {
  struct Arm {
    std::size_t placement = 0;
    bool adaptive = false;
    int response = -1;
  };
  std::optional<core::AttackCampaign> probe;
  {
    const Scope s(t, "core.campaign_build");
    probe.emplace(campaign_config(spec, spec.workload.mix));
  }
  const MeshGeometry geom(spec.system.width, spec.system.height);
  std::vector<std::vector<NodeId>> placements;
  for (const scenario::ClusterSpec& cluster : spec.axes.placements) {
    placements.push_back(cluster_nodes(cluster, geom, probe->gm_node()));
  }
  std::vector<Arm> arms;
  for (std::size_t p = 0; p < placements.size(); ++p) {
    for (const bool adaptive : {false, true}) {
      for (int r = -1; r < static_cast<int>(spec.axes.responses.size()); ++r) {
        arms.push_back(Arm{p, adaptive, r});
      }
    }
  }
  std::vector<core::CampaignOutcome> outs;
  {
    const Scope sweep(t, "core.sweep");
    const std::uint64_t parent = sweep.id();
    outs = runner.map(arms.size(), [&](std::size_t i) {
      const Arm& arm = arms[i];
      core::CampaignConfig cfg = campaign_config(spec, spec.workload.mix);
      if (arm.adaptive) {
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
      std::optional<core::AttackCampaign> campaign;
      {
        const Scope s(t, "core.campaign_build", parent);
        campaign.emplace(cfg);
      }
      const Scope s(t, "core.run", parent);
      return campaign->run(placements[arm.placement]);
    });
  }
  for (const core::CampaignOutcome& out : outs) {
    counts.tampered_requests += out.trojan_totals.victim_requests_modified +
                                out.trojan_totals.attacker_requests_boosted;
  }
  return outs;
}

/// Did the closed-loop re-drive reproduce the untraced tree's arms?
[[nodiscard]] bool matches_arms(
    const json::Value& tree, const std::vector<core::CampaignOutcome>& outs) {
  const json::Value* arms = tree.as_object().find("arms");
  if (arms == nullptr || arms->as_array().size() != outs.size()) return false;
  for (std::size_t i = 0; i < outs.size(); ++i) {
    const json::Object& row = arms->as_array()[i].as_object();
    const json::Value* q = row.find("q");
    const json::Value* inf = row.find("infection");
    if (q == nullptr || inf == nullptr || q->as_double() != outs[i].q ||
        inf->as_double() != outs[i].infection_measured) {
      return false;
    }
  }
  return true;
}

// ----------------------------------------------------------- probes

/// Builds the workload's largest chip, runs `epochs` epochs one at a
/// time, round-trips its state through JSON into a fresh chip, and tears
/// both down; reads the NoC, core and cache counters on the way.
void chip_probe(const core::CampaignConfig& cfg, int epochs, Tracer& t,
                Counts& counts) {
  const Scope root(t, "bench.chip_probe");
  const core::AttackCampaign mapped(cfg);  // maps the mix onto the cores
  std::optional<htpb::system::ManyCoreSystem> chip;
  {
    const Scope s(t, "system.build");
    chip.emplace(cfg.system, mapped.apps());
  }
  for (int e = 0; e < epochs; ++e) {
    const Scope s(t, "system.epoch");
    chip->run_epochs(1);
  }
  const htpb::noc::NetworkStats& ns = chip->network().stats();
  const htpb::noc::RouterStats rs = chip->network().total_router_stats();
  counts.flits_forwarded = rs.flits_forwarded;
  counts.packets_delivered = ns.packets_delivered;
  counts.sa_conflict_stalls = rs.sa_conflict_stalls;
  counts.va_stalls = rs.va_stalls;
  counts.latency_mean_cycles = ns.latency_all.mean();
  counts.cycles = chip->engine().now();
  const int nodes = cfg.system.node_count();
  for (int n = 0; n < nodes; ++n) {
    const auto id = static_cast<NodeId>(n);
    if (const auto* c = chip->core(id); c != nullptr) {
      counts.instructions_retired += c->instructions_retired();
      ++counts.cores;
    }
    if (const auto* l1 = chip->l1(id); l1 != nullptr) {
      counts.l1_hits += l1->stats().hits;
      counts.l1_misses += l1->stats().misses;
    }
    if (const auto* l2 = chip->l2(id); l2 != nullptr) {
      counts.l2_memory_fetches += l2->stats().memory_fetches;
    }
  }

  json::Value state;
  {
    const Scope s(t, "system.save_state");
    state = chip->save_state();
  }
  std::string text;
  {
    const Scope s(t, "json.dump");
    text = json::dump(state, 0);
  }
  counts.snapshot_bytes = text.size();
  json::Value parsed;
  {
    const Scope s(t, "json.parse");
    parsed = json::parse(text);
  }
  std::optional<htpb::system::ManyCoreSystem> fresh;
  {
    const Scope s(t, "system.build");
    fresh.emplace(cfg.system, mapped.apps());
  }
  {
    const Scope s(t, "system.load_state");
    fresh->load_state(parsed);
  }
  {
    const Scope s(t, "system.teardown");
    fresh.reset();
  }
  {
    const Scope s(t, "system.teardown");
    chip.reset();
  }
}

/// Records the request stream of one attacked run (a GM-adjacent cluster)
/// on the workload's chip and replays it through the spec's detector.
void replay_probe(const scenario::ScenarioSpec& spec,
                  core::CampaignConfig cfg, Tracer& t) {
  const Scope root(t, "bench.replay_probe");
  cfg.detector.reset();
  cfg.response.reset();
  core::AttackCampaign campaign(cfg);
  const MeshGeometry geom(cfg.system.width, cfg.system.height);
  const NodeId gm = campaign.gm_node();
  const auto nodes = core::clustered_placement(geom, spec.axes.cluster_hts,
                                               geom.coord_of(gm), gm);
  htpb::power::RequestTrace trace;
  {
    const Scope s(t, "core.record_trace");
    trace = campaign.record_trace(nodes);
  }
  const htpb::power::DetectorConfig detector =
      spec.detector.has_value() ? spec.detector->to_config()
                                : htpb::power::DetectorConfig{};
  for (int i = 0; i < kReplays; ++i) {
    const Scope s(t, "power.replay");
    (void)htpb::power::replay_detector(trace, detector);
  }
}

/// Per-repetition figures that are not plain span durations.
struct RepFigures {
  double untraced_wall_s = 0.0;
  double traced_wall_s = 0.0;
  double coverage = 0.0;
  double pool_utilization = 0.0;
  double epoch_s_total = 0.0;
  std::map<std::string, double> self_s;  // per layer
};

[[nodiscard]] RepFigures analyse(const std::vector<Span>& spans, int threads) {
  RepFigures f;
  const std::vector<double> self = self_times(spans);
  std::vector<bool> has_child(spans.size(), false);
  for (const Span& s : spans) {
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].id == s.parent) has_child[i] = true;
    }
  }
  const Span* root = nullptr;
  double sweep_s = 0.0;
  double task_s = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string layer = layer_of(s.name);
    if (layer != "bench") f.self_s[layer] += self[i];
    if (s.name == "scenario.run") root = &s;
    if (s.name == "system.epoch") f.epoch_s_total += s.end - s.start;
    if (s.name == "core.sweep") {
      sweep_s += s.end - s.start;
      for (const Span& c : spans) {
        if (c.parent == s.id) task_s += c.end - c.start;
      }
    }
  }
  if (root != nullptr) {
    // Coverage: the leaf spans (direct calls into a layer) under the
    // re-drive root, as a share of the root.
    std::vector<const Span*> leaves;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (has_child[i] || spans[i].id == root->id) continue;
      for (std::uint64_t p = spans[i].parent; p != 0;) {
        if (p == root->id) {
          leaves.push_back(&spans[i]);
          break;
        }
        const auto it = std::find_if(spans.begin(), spans.end(),
                                     [&](const Span& x) { return x.id == p; });
        p = it == spans.end() ? 0 : it->parent;
      }
    }
    f.traced_wall_s = root->end - root->start;
    f.coverage = covered_s(*root, leaves) / f.traced_wall_s;
  }
  if (sweep_s > 0.0) {
    f.pool_utilization = task_s / (static_cast<double>(threads) * sweep_s);
  }
  return f;
}

}  // namespace

TracedPass run_traced(const Workload& w, const scenario::RunOptions& opts,
                      std::uint64_t expected, double seconds) {
  TracedPass out;
  const scenario::ScenarioSpec& spec = scenario::scenario_or_throw(w.scenario);
  std::vector<std::vector<Span>> reps;
  std::vector<RepFigures> figures;
  std::optional<Counts> first_counts;
  json::Array rep_spans;
  int warmup_epochs = 0;
  const double start = now_s();
  double rep_s = 0.0;
  while (reps.empty() || now_s() - start + rep_s <= seconds) {
    const double rep_start = now_s();
    Tracer t;
    Counts counts;
    double untraced_wall_s = 0.0;
    bool ok = true;
    try {
      // Untraced reference call, for the tree and the tracing overhead.
      ++out.attempted;
      const double t0 = now_s();
      const json::Value tree = scenario::run_scenario(spec, opts);
      untraced_wall_s = now_s() - t0;
      const bool untraced_ok = fingerprint(tree) == expected;

      // Traced re-drive of the same run.
      ++out.attempted;
      scenario::ScenarioSpec s;
      json::Value redriven;
      std::vector<core::CampaignOutcome> arms;
      {
        const Scope root(t, "scenario.run");
        {
          const Scope r(t, "scenario.resolve");
          s = scenario::resolve(spec, opts);
        }
        const core::ParallelSweepRunner runner(s.threads);
        const std::uint64_t sys0 = core::AttackCampaign::systems_simulated();
        const std::uint64_t wu0 =
            core::AttackCampaign::warmup_epochs_simulated();
        if (s.kind == scenario::ScenarioKind::kInfectionVsHtCount) {
          redriven = redrive_fig3(s, t);
        } else if (s.kind == scenario::ScenarioKind::kAttackEffect) {
          redriven = redrive_fig5(s, runner, t, counts);
        } else {
          arms = redrive_closed_loop(s, runner, t, counts);
        }
        counts.systems_simulated =
            core::AttackCampaign::systems_simulated() - sys0;
        counts.warmup_epochs_simulated =
            core::AttackCampaign::warmup_epochs_simulated() - wu0;
      }
      warmup_epochs = s.epochs.warmup;
      bool reproduced = false;
      if (redriven.is_object()) {
        json::Object envelope;
        envelope["scenario"] = json::Value(s.name);
        envelope["kind"] = json::Value(scenario::to_string(s.kind));
        envelope["quick"] = json::Value(opts.quick);
        envelope["seed"] = json::Value(static_cast<long long>(s.seed));
        for (auto& [key, value] : redriven.as_object()) {
          envelope[key] = std::move(value);
        }
        reproduced =
            fingerprint(json::Value(std::move(envelope))) == fingerprint(tree);
      } else {
        reproduced = matches_arms(tree, arms);
      }
      if (!untraced_ok) ++out.failed;
      if (!reproduced) ++out.failed;
      ok = untraced_ok && reproduced;

      const core::CampaignConfig chip = largest_chip(s);
      chip_probe(chip, s.epochs.warmup + s.epochs.measure, t, counts);
      replay_probe(s, chip, t);
    } catch (const std::exception&) {
      ++out.failed;
      ok = false;
    }
    if (ok && first_counts.has_value() && !(counts == *first_counts)) {
      ++out.failed;  // a deterministic count moved between repetitions
    }
    if (!first_counts.has_value()) first_counts = counts;
    std::vector<Span> spans = t.spans();
    RepFigures fig = analyse(spans, opts.threads);
    fig.untraced_wall_s = untraced_wall_s;
    figures.push_back(std::move(fig));
    rep_spans.push_back(spans_to_json(spans));
    reps.push_back(std::move(spans));
    rep_s = now_s() - rep_start;
    if (!ok) break;  // further repetitions would only repeat the failure
  }

  json::Object& m = out.metrics;
  const auto per_rep = [&](double RepFigures::*field) {
    std::vector<double> v;
    for (const RepFigures& f : figures) v.push_back(f.*field);
    return median(v);
  };
  for (const char* call : kTimedCalls) {
    std::vector<double> samples;
    for (const auto& spans : reps) {
      for (const Span& s : spans) {
        if (s.name == call) samples.push_back(s.end - s.start);
      }
    }
    put_latency(m, std::string(call) + "_s", std::move(samples));
  }

  const Counts c = first_counts.value_or(Counts{});
  const double systems = static_cast<double>(c.systems_simulated);
  put(m, "core.systems_simulated", systems, "count");
  put(m, "core.warmup_epochs_simulated",
      static_cast<double>(c.warmup_epochs_simulated), "count");
  const double warmup_total = systems * warmup_epochs;
  put(m, "core.warmup_reuse",
      warmup_total > 0.0
          ? 1.0 - static_cast<double>(c.warmup_epochs_simulated) / warmup_total
          : 0.0,
      "ratio");
  put(m, "core.pool_utilization", per_rep(&RepFigures::pool_utilization),
      "ratio");

  const double epoch_s = per_rep(&RepFigures::epoch_s_total);
  put(m, "system.cycles_per_s",
      epoch_s > 0.0 ? static_cast<double>(c.cycles) / epoch_s : 0.0, "1/s");
  put(m, "system.snapshot_bytes", static_cast<double>(c.snapshot_bytes),
      "bytes");

  put(m, "noc.flits_forwarded", static_cast<double>(c.flits_forwarded),
      "count");
  put(m, "noc.packets_delivered", static_cast<double>(c.packets_delivered),
      "count");
  put(m, "noc.latency_mean_cycles", c.latency_mean_cycles, "cycles");
  put(m, "noc.sa_conflict_stalls", static_cast<double>(c.sa_conflict_stalls),
      "count");
  put(m, "noc.va_stalls", static_cast<double>(c.va_stalls), "count");
  put(m, "noc.host_ns_per_flit",
      c.flits_forwarded > 0
          ? epoch_s * 1e9 / static_cast<double>(c.flits_forwarded)
          : 0.0,
      "ns");

  put(m, "cpu.instructions_retired", c.instructions_retired, "count");
  const double core_cycles =
      static_cast<double>(c.cycles) * static_cast<double>(c.cores);
  put(m, "cpu.chip_ipc",
      core_cycles > 0.0 ? c.instructions_retired / core_cycles : 0.0,
      "instr/cycle");

  put(m, "mem.l1_hits", static_cast<double>(c.l1_hits), "count");
  put(m, "mem.l1_misses", static_cast<double>(c.l1_misses), "count");
  put(m, "mem.l2_memory_fetches", static_cast<double>(c.l2_memory_fetches),
      "count");

  put(m, "power.tampered_requests", static_cast<double>(c.tampered_requests),
      "count");

  for (const char* layer : kLayers) {
    std::vector<double> v;
    for (const RepFigures& f : figures) {
      const auto it = f.self_s.find(layer);
      v.push_back(it == f.self_s.end() ? 0.0 : it->second);
    }
    put(m, std::string(layer) + ".self_s", median(v), "s");
  }

  const double traced = per_rep(&RepFigures::traced_wall_s);
  const double untraced = per_rep(&RepFigures::untraced_wall_s);
  put(m, "trace.wall_s", traced, "s");
  put(m, "trace.untraced_wall_s", untraced, "s");
  put(m, "trace.overhead_s", traced - untraced, "s");
  put(m, "trace.coverage", per_rep(&RepFigures::coverage), "ratio");

  out.span_reps = std::move(rep_spans);
  return out;
}

}  // namespace scenario_bench
