#include "scenario/report.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace htpb::scenario {

namespace {

[[nodiscard]] const json::Value& get(const json::Value& v, const char* key) {
  const json::Value* member = v.as_object().find(key);
  if (member == nullptr) {
    throw std::runtime_error(std::string("report: result has no \"") + key +
                             "\"");
  }
  return *member;
}

[[nodiscard]] double num(const json::Value& v, const char* key) {
  return get(v, key).as_double();
}

[[nodiscard]] long long integer(const json::Value& v, const char* key) {
  return static_cast<long long>(get(v, key).as_int());
}

[[nodiscard]] const char* text(const json::Value& v, const char* key) {
  return get(v, key).as_string().c_str();
}

[[nodiscard]] const json::Array& list(const json::Value& v, const char* key) {
  return get(v, key).as_array();
}

void print_header(std::FILE* out, const ScenarioSpec& spec) {
  const char* rule =
      "==============================================================\n";
  std::fprintf(out, "%s%s\npaper: %s\nexpected shape: %s\n%s", rule,
               spec.title.c_str(), spec.paper_ref.c_str(),
               spec.expectation.c_str(), rule);
}

/// Fig. 3: simulated vs analytic infection per (size, #HTs, GM placement).
void print_infection_vs_ht_count(std::FILE* out, const json::Value& r) {
  for (const json::Value& arm : list(r, "arms")) {
    std::fprintf(out, "\nsystem size = %lld\n", integer(arm, "nodes"));
    std::fprintf(out, "%6s | %-10s %-10s | %-10s %-10s\n", "", "GM center",
                 "", "GM corner", "");
    std::fprintf(out, "%6s | %-10s %-10s | %-10s %-10s\n", "#HTs",
                 "simulated", "analytic", "simulated", "analytic");
    for (const json::Value& row : list(arm, "rows")) {
      std::fprintf(out, "%6lld", integer(row, "hts"));
      for (const json::Value& cell : list(row, "cells")) {
        std::fprintf(out, " | %-10.3f %-10.3f", num(cell, "simulated"),
                     num(cell, "analytic"));
      }
      std::fprintf(out, "\n");
    }
  }
}

/// Fig. 4: the three HT distributions across system sizes.
void print_infection_vs_distribution(std::FILE* out, const json::Value& r) {
  for (const json::Value& div : list(r, "divisors")) {
    std::fprintf(out, "\n#HTs = system size / %lld\n",
                 integer(div, "divisor"));
    std::fprintf(out, "%6s %5s | %-9s %-9s %-9s | %-18s\n", "size", "#HTs",
                 "center", "random", "corner",
                 "center/random, center/corner");
    for (const json::Value& row : list(div, "rows")) {
      const double center = num(row, "center");
      const double random = num(row, "random");
      const double corner = num(row, "corner");
      std::fprintf(out, "%6lld %5lld | %-9.3f %-9.3f %-9.3f | %.2fx  %.2fx\n",
                   integer(row, "size"), integer(row, "hts"), center, random,
                   corner, random > 0 ? center / random : 0.0,
                   corner > 0 ? center / corner : 0.0);
    }
  }
}

/// Fig. 5: Q per mix against the mix-mean measured infection rate.
void print_attack_effect(std::FILE* out, const json::Value& r) {
  const json::Array& mixes = list(r, "mixes");
  std::fprintf(out, "%10s |", "infection");
  for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
    std::fprintf(out, "  Q(mix-%zu)", mix + 1);
  }
  std::fprintf(out, "\n");
  const std::size_t targets =
      mixes.empty() ? 0 : list(mixes.front(), "rows").size();
  for (std::size_t t = 0; t < targets; ++t) {
    double mean_inf = 0.0;
    for (const json::Value& mix : mixes) {
      mean_inf += num(list(mix, "rows").at(t), "infection");
    }
    std::fprintf(out, "%10.2f |", mean_inf / static_cast<double>(mixes.size()));
    for (const json::Value& mix : mixes) {
      std::fprintf(out, "  %8.3f", num(list(mix, "rows").at(t), "q"));
    }
    std::fprintf(out, "\n");
  }
  std::fprintf(out,
               "\n(Q > 1 means the attack pays off; monotone growth with the\n"
               "infection rate reproduces the paper's Fig. 5 shape)\n");
}

/// Fig. 6: per-application Theta change, one panel per mix.
void print_performance_change(std::FILE* out, const json::Value& r) {
  const json::Array& mixes = list(r, "mixes");
  for (std::size_t mix = 0; mix < mixes.size(); ++mix) {
    std::fprintf(out, "\nmix-%zu (panel %c):\n", mix + 1,
                 static_cast<char>('a' + mix));
    std::fprintf(out, "%10s |", "infection");
    for (const json::Value& app : list(mixes[mix], "apps")) {
      std::fprintf(out, " %13s%s",
                   get(app, "name").as_string().substr(0, 12).c_str(),
                   get(app, "attacker").as_bool() ? "*" : " ");
    }
    std::fprintf(out, "\n");
    for (const json::Value& row : list(mixes[mix], "rows")) {
      std::fprintf(out, "%10.3f |", num(row, "infection"));
      for (const json::Value& change : list(row, "theta_change")) {
        std::fprintf(out, " %13.3f ", change.as_double());
      }
      std::fprintf(out, "\n");
    }
  }
  std::fprintf(out, "\n(* marks attacker applications; Theta = Def. 2)\n");
}

/// Table I next to the implemented configuration, plus the zero-load
/// latency check (MATCH / MISMATCH).
void print_config_report(std::FILE* out, const json::Value& r) {
  const json::Value& p = get(r, "parameters");
  const auto n = [&](const char* key) {
    return std::to_string(integer(p, key));
  };
  const auto row = [&](const char* param, const char* paper,
                       const std::string& ours) {
    std::fprintf(out, "%-38s %-22s %s\n", param, paper, ours.c_str());
  };
  row("parameter", "paper", "this repo");
  row("Number of processors", "256 (Alpha ISA 64)",
      n("nodes") + " (" + n("width") + "x" + n("height") + " mesh)");
  row("Core model", "4-wide OoO, ROB 64", "analytical IPC(f) model");
  row("L1 D cache (private)", "16 KB two-way 32B",
      n("l1_sets") + " sets x " + n("l1_ways") + " ways, " + n("l1_mshrs") +
          " MSHRs");
  row("L2 cache (shared, MESI)", "64 KB slice/node",
      n("l2_sets") + " sets x " + n("l2_ways") + " ways per bank");
  row("Main memory latency", "200 cycles", n("mem_latency") + " cycles");
  row("Data packet size", "5 flits", n("data_packet_flits") + " flits");
  row("Meta packet size", "1 flit", n("meta_packet_flits") + " flit");
  row("NoC latency", "router 2, link 1",
      "router " + n("router_latency") + " / link " + n("link_latency") +
          " cycles");
  row("Virtual channels", "4", n("vcs"));
  row("NoC buffer", "5x5 flits", n("vc_depth") + " flits/VC");
  row("Routing algorithm", "XY", "XY (west-first adaptive selectable)");

  const json::Value& lat = get(r, "zero_load_latency");
  std::fprintf(out,
               "\nzero-load 1-hop latency: measured %lld cycles, "
               "analytic %lld cycles (%s)\n",
               integer(lat, "measured"), integer(lat, "analytic"),
               get(lat, "match").as_bool() ? "MATCH" : "MISMATCH");
}

/// Tables II-III: benchmark roster, mixes and measured Phi.
void print_benchmark_report(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-15s %-9s %8s %7s %10s %8s %7s\n", "benchmark",
               "suite", "cpi_base", "apki", "ws_lines", "shared%", "write%");
  for (const json::Value& b : list(r, "benchmarks")) {
    std::fprintf(out, "%-15s %-9s %8.2f %7.1f %10lld %8.2f %7.2f\n",
                 text(b, "name"), text(b, "suite"), num(b, "cpi_base"),
                 num(b, "apki"), integer(b, "working_set_lines"),
                 num(b, "shared_fraction"), num(b, "write_fraction"));
  }

  std::fprintf(out, "\nTable III combinations:\n");
  for (const json::Value& mix : list(r, "mixes")) {
    std::fprintf(out, "  %-7s attackers:", text(mix, "name"));
    for (const json::Value& a : list(mix, "attackers")) {
      std::fprintf(out, " %s", a.as_string().c_str());
    }
    std::fprintf(out, "  victims:");
    for (const json::Value& v : list(mix, "victims")) {
      std::fprintf(out, " %s", v.as_string().c_str());
    }
    std::fprintf(out, "\n");
  }

  std::fprintf(out,
               "\nmeasured power sensitivity Phi (Def. 5), 64-core chip:\n");
  std::fprintf(out, "%-15s %10s\n", "benchmark", "Phi");
  for (const json::Value& row : list(r, "phi")) {
    std::fprintf(out, "%-15s %10.3f\n", text(row, "name"), num(row, "phi"));
  }
}

/// Sec. III-D: the stealth numbers against the paper's.
void print_area_power_report(std::FILE* out, const json::Value& r) {
  const json::Value& m = get(r, "model");
  const auto d = [&](const char* key) { return num(m, key); };
  const auto line = [&](const char* quantity, const char* paper,
                        int digits, double value) {
    std::fprintf(out, "%-46s %14s %14.*f\n", quantity, paper, digits, value);
  };
  std::fprintf(out, "%-46s %14s %14s\n", "quantity", "paper", "this repo");
  line("HT area (um^2)", "12.1716", 4, d("ht_area_um2"));
  line("HT power (uW)", "0.55018", 5, d("ht_power_uw"));
  line("router area (um^2, DSENT)", "71814", 0, d("router_area_um2"));
  line("router power (uW, DSENT)", "31881", 0, d("router_power_uw"));
  line("HT area / router (%)", "~0.017", 4,
       d("area_fraction_of_router") * 100.0);
  line("HT power / router (%)", "~0.0017", 5,
       d("power_fraction_of_router") * 100.0);

  const json::Array& scaling = list(r, "scaling");
  const json::Value& last = scaling.back();
  line("60 HTs total area (um^2)", "730.296", 3, num(last, "total_area_um2"));
  line("60 HTs total power (uW)", "33.0108", 4, num(last, "total_power_uw"));
  line("60 HTs area / all routers, 512 nodes (%)", "~0.002", 5,
       num(last, "area_fraction_of_chip") * 100.0);
  line("60 HTs power / all routers, 512 nodes (%)", "~0.0002", 6,
       num(last, "power_fraction_of_chip") * 100.0);

  std::fprintf(out, "\nscaling with HT count (%lld-node chip):\n",
               integer(r, "chip_nodes"));
  std::fprintf(out, "%6s %16s %16s %12s %12s\n", "HTs", "area (um^2)",
               "power (uW)", "area %chip", "power %chip");
  for (const json::Value& row : scaling) {
    std::fprintf(out, "%6lld %16.4f %16.5f %12.6f %12.7f\n",
                 integer(row, "hts"), num(row, "total_area_um2"),
                 num(row, "total_power_uw"),
                 num(row, "area_fraction_of_chip") * 100.0,
                 num(row, "power_fraction_of_chip") * 100.0);
  }
}

/// Sec. V-C: optimized vs random placement per mix.
void print_placement_study(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-7s %9s %9s %9s %8s | %11s %9s\n", "mix", "Q(random)",
               "Q(model)", "Q(run)", "gain", "model R^2", "pred Q");
  for (const json::Value& row : list(r, "mixes")) {
    std::fprintf(out, "%-7s %9.3f %9.3f %9.3f %7.1f%% | %11.3f %9.3f\n",
                 text(row, "mix"), num(row, "q_random"),
                 num(row, "q_model_top"), num(row, "q_deployed"),
                 num(row, "gain") * 100.0, num(row, "model_r2"),
                 num(row, "predicted_q"));
  }
  std::fprintf(out,
               "\n(gain = realized Q of optimized placement over the mean of "
               "random 16-HT placements)\n");
}

/// Defense ROC: the DefenseSweep curve, then the stealthy-Trojan grid
/// (when the spec enables it).
void print_defense_sweep(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-13s | %8s %8s %8s | %8s %8s | %8s %8s\n",
               "band [lo,hi]", "detect", "victims", "boosted", "falsePos",
               "latency", "Q(plain)", "Q(guard)");
  for (const json::Value& pt : list(get(r, "curve"), "points")) {
    std::fprintf(out,
                 "[%4.2f, %4.2f] | %7.1f%% %7.1f%% %7.1f%% | %7.1f%% %8.1f | "
                 "%8.3f %8.3f\n",
                 num(pt, "low"), num(pt, "high"),
                 num(pt, "detection_rate") * 100.0,
                 num(pt, "victim_flag_rate") * 100.0,
                 num(pt, "attacker_flag_rate") * 100.0,
                 num(pt, "false_positive_rate") * 100.0,
                 num(pt, "mean_detection_latency"), num(pt, "mean_q_plain"),
                 num(pt, "mean_q_guarded"));
  }
  std::fprintf(out,
               "\n(detect = distinct flagged cores / monitored cores, mean "
               "over\nplacements; latency = epochs from power-on to the first "
               "confirmed\nflag; Q(guard) = residual attack effect with the "
               "GuardedBudgeter\nclamping requests into the same trust "
               "band)\n");

  const json::Value* roc = r.as_object().find("roc");
  if (roc == nullptr) return;
  std::fprintf(out,
               "\nROC sweep -- duty-cycle period x modification factor x band "
               "x detector kind\n");
  std::fprintf(out,
               "(period 0 = always-on attack live from power-on; detect/fp "
               "per band, tight -> loose)\n");
  // The runner emits one block of detector_grid points per dynamics cell,
  // ewma bands first, then cohort bands.
  const json::Array& points = list(*roc, "points");
  const auto grid = static_cast<std::size_t>(integer(*roc, "detector_grid"));
  for (std::size_t i = 0; grid > 0 && i < points.size(); i += grid) {
    for (const char* kind : {"ewma", "cohort"}) {
      std::fprintf(out, "period=%lld factor=%.2f | %-6s",
                   integer(points[i], "period"), num(points[i], "factor"),
                   kind);
      for (const auto& [label, metric] :
           {std::pair{" detect:", "detect"}, std::pair{"  fp:", "fp"}}) {
        std::fprintf(out, "%s", label);
        for (std::size_t j = i; j < i + grid && j < points.size(); ++j) {
          if (get(points[j], "kind").as_string() == kind) {
            std::fprintf(out, " %5.1f%%", num(points[j], metric) * 100.0);
          }
        }
      }
      std::fprintf(out, "\n");
    }
  }
  std::fprintf(out,
               "\n(the self-EWMA goes blind at period=0 -- its history "
               "anchors to\nthe attacked level -- while the cohort detector "
               "keeps catching\nattenuated minorities; high factors dodge "
               "loose bands entirely:\nthe stealth frontier this sweep "
               "maps)\n");
}

/// Detection and mitigation per mix.
void print_defense_evaluation(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-7s | %9s %9s | %12s %12s | %9s %9s\n", "mix",
               "Q(plain)", "Q(guard)", "victims flag", "boost flag",
               "falsePos", "worstTheta");
  for (const json::Value& row : list(r, "rows")) {
    std::fprintf(out,
                 "%-7s | %9.3f %9.3f | %6lld/%-5lld %6lld/%-5lld | "
                 "%9lld %9.3f\n",
                 text(row, "mix"), num(row, "q_plain"), num(row, "q_guarded"),
                 integer(row, "victims_flagged"), integer(row, "victim_cores"),
                 integer(row, "attackers_flagged"),
                 integer(row, "attacker_cores"),
                 integer(row, "false_positives"),
                 num(row, "worst_victim_theta"));
  }
  std::fprintf(out,
               "\n(victims flag = starved cores detected / victim cores;\n"
               "boost flag = inflated cores detected / attacker cores;\n"
               "Q(guard) = attack effect when the manager clamps requests\n"
               "into a trust band around each core's own history)\n");
}

/// False-data vs flooding, then the duty-cycle dial.
void print_attack_comparison(std::FILE* out, const json::Value& r) {
  const json::Value& clean = get(r, "clean");
  const json::Value& fd = get(r, "false_data");
  const json::Value& flood = get(r, "flooding");
  std::fprintf(out, "%-26s %14s %14s %14s\n", "", "clean", "false-data",
               "flooding");
  std::fprintf(out, "%-26s %14.3f %14.3f %14.3f\n", "victim throughput (sum)",
               num(clean, "victim_throughput"), num(fd, "victim_throughput"),
               num(flood, "victim_throughput"));
  std::fprintf(out, "%-26s %14lld %14lld %14lld\n", "extra packets injected",
               integer(clean, "extra_packets"), integer(fd, "extra_packets"),
               integer(flood, "extra_packets"));
  std::fprintf(out, "%-26s %14lld %14lld %14lld\n", "GM-router flits",
               integer(clean, "gm_flits"), integer(fd, "gm_flits"),
               integer(flood, "gm_flits"));
  std::fprintf(out,
               "(the false-data arm's GM flit count equals the clean run: "
               "the Trojan rewrites\npayloads in flight and is invisible to "
               "utilization counters)\n");

  std::fprintf(out,
               "\nduty-cycled activation (ON/OFF every N epochs, mix-1):\n");
  std::fprintf(out, "%-22s %10s %10s\n", "toggle period", "infection", "Q");
  for (const json::Value& row : list(r, "duty_cycle")) {
    const long long period = integer(row, "period");
    const std::string label =
        period == 0 ? "always on"
                    : "every " + std::to_string(period) + " epochs";
    std::fprintf(out, "%-22s %10.3f %10.3f\n", label.c_str(),
                 num(row, "infection"), num(row, "q"));
  }
  std::fprintf(out,
               "(shorter exposure halves the infection rate and the attack "
               "effect follows --\nthe attacker's stealth/damage dial from "
               "Sec. III-B)\n");
}

/// The same attack under every allocation policy.
void print_budgeter_ablation(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-14s %10s %10s %12s %12s\n", "budgeter", "Q",
               "infection", "worst victim", "best attacker");
  for (const json::Value& row : list(r, "rows")) {
    std::fprintf(out, "%-14s %10.3f %10.3f %12.3f %12.3f\n",
                 text(row, "budgeter"), num(row, "q"), num(row, "infection"),
                 num(row, "worst_victim"), num(row, "best_attacker"));
  }
  std::fprintf(out,
               "\n(victim starvation works under EVERY policy, because an\n"
               "allocator never grants more than the -- tampered -- "
               "request;\ngreedy smallest-first is the most attack-resistant "
               "side,\nsince boosted attacker requests are served last)\n");
}

/// Closed loop: one line per (placement, Trojan, response) arm, then the
/// equal-duty evasion comparison.
void print_defense_closed_loop(std::FILE* out, const json::Value& r) {
  std::fprintf(out, "%-9s %-9s %-11s | %7s %9s %7s | %10s %9s\n", "placement",
               "trojan", "response", "Q", "infection", "detect",
               "sanctioned", "recovery");
  for (const json::Value& row : list(r, "arms")) {
    std::fprintf(out, "%-9s %-9s %-11s | %7.3f %9.3f %6.1f%% |",
                 text(row, "placement"), text(row, "trojan"),
                 text(row, "response"), num(row, "q"), num(row, "infection"),
                 num(row, "detection_rate") * 100.0);
    if (row.as_object().contains("sanctioned_cores")) {
      std::fprintf(out, " %10lld %9.3f\n", integer(row, "sanctioned_cores"),
                   num(row, "victim_grant_recovery"));
    } else {
      std::fprintf(out, " %10s %9s\n", "-", "-");
    }
  }
  std::fprintf(out, "\nequal mean duty, no response (first placement):\n");
  const json::Value& cmp = get(r, "duty_comparison");
  for (const char* side : {"static", "adaptive"}) {
    const json::Value& half = get(cmp, side);
    std::fprintf(out, "  %-8s duty %.2f  detect %5.1f%%  Q %.3f\n", side,
                 num(half, "duty"), num(half, "detection_rate") * 100.0,
                 num(half, "q"));
  }
  std::fprintf(out,
               "(detect = attacker cores flagged / attacker cores; recovery "
               "= victims'\ngranted power under the response as a fraction "
               "of the un-attacked baseline)\n");
}

}  // namespace

void print_report(std::FILE* out, const ScenarioSpec& spec,
                  const json::Value& result) {
  print_header(out, spec);
  switch (spec.kind) {
    case ScenarioKind::kInfectionVsHtCount:
      print_infection_vs_ht_count(out, result);
      break;
    case ScenarioKind::kInfectionVsDistribution:
      print_infection_vs_distribution(out, result);
      break;
    case ScenarioKind::kAttackEffect:
      print_attack_effect(out, result);
      break;
    case ScenarioKind::kPerformanceChange:
      print_performance_change(out, result);
      break;
    case ScenarioKind::kConfigReport:
      print_config_report(out, result);
      break;
    case ScenarioKind::kBenchmarkReport:
      print_benchmark_report(out, result);
      break;
    case ScenarioKind::kAreaPowerReport:
      print_area_power_report(out, result);
      break;
    case ScenarioKind::kPlacementStudy:
      print_placement_study(out, result);
      break;
    case ScenarioKind::kDefenseSweep:
      print_defense_sweep(out, result);
      break;
    case ScenarioKind::kDefenseEvaluation:
      print_defense_evaluation(out, result);
      break;
    case ScenarioKind::kAttackComparison:
      print_attack_comparison(out, result);
      break;
    case ScenarioKind::kBudgeterAblation:
      print_budgeter_ablation(out, result);
      break;
    case ScenarioKind::kDefenseClosedLoop:
      print_defense_closed_loop(out, result);
      break;
  }
}

}  // namespace htpb::scenario
