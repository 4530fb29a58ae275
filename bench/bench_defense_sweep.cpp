// Defense-evaluation sweep (extension of the paper's conclusion), two
// parts:
//
//  1. Trust-band operating points x HT placements through
//     core::DefenseSweep (detection + false positives + latency + Q under
//     guard). The detection arm records one request trace per placement
//     and replays every operating point offline -- simulations scale with
//     placements, not with the detector grid.
//  2. A dense stealthy-Trojan ROC sweep: duty-cycle period x modification
//     factor x trust band x detector kind (self-EWMA vs cohort-median).
//
// Runs the registry's "defense-roc" scenario and prints its report
// (scenario/report.hpp) to stdout; the sweep axes live in
// src/scenario/registry.cpp and the execution in src/scenario/runner.cpp.
// Simulation counts and record/replay timings are written to a
// BENCH_defense_sweep.json artifact (timings also to stderr); stdout is
// byte-identical at any thread count.
//
//   bench_defense_sweep [--quick] [--json <path>]
//
//   --quick        fewer operating points / placements / dynamics cells
//   HTPB_THREADS   caps the sweep pool
#include <cstdio>
#include <cstring>
#include <exception>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"

int main(int argc, char** argv) {
  using namespace htpb;
  const char* json_path = "BENCH_defense_sweep.json";
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      return 2;
    }
  }

  const scenario::ScenarioSpec& spec =
      scenario::scenario_or_throw("defense-roc");
  scenario::RunOptions opts;
  opts.quick = quick;
  const json::Value result = scenario::run_scenario(spec, opts);
  const json::Object& root = result.as_object();
  const json::Object& curve = root.find("curve")->as_object();
  const json::Object& roc = root.find("roc")->as_object();
  const json::Object& timing = root.find("timing")->as_object();

  // Thread count to stderr so stdout is byte-identical at any pool size.
  std::fprintf(stderr, "(%lld operating points x %lld placements, %lld "
               "threads)\n",
               static_cast<long long>(
                   curve.find("operating_points")->as_int()),
               static_cast<long long>(curve.find("placements")->as_int()),
               static_cast<long long>(root.find("threads")->as_int()));
  scenario::print_report(stdout, spec, result);

  // The cost-shape evidence: simulations scale with placements and
  // dynamics cells, never with the detector grid.
  std::fprintf(stderr,
               "curve: %lld sims in %.2fs | ROC: %lld sims (%lld dynamics x "
               "%lld placements) + %lld replays of a %lld-detector grid, "
               "record %.2fs replay %.3fs\n",
               static_cast<long long>(curve.find("simulations")->as_int()),
               timing.find("curve_seconds")->as_double(),
               static_cast<long long>(roc.find("simulations")->as_int()),
               static_cast<long long>(roc.find("dynamics_cells")->as_int()),
               static_cast<long long>(roc.find("placements")->as_int()),
               static_cast<long long>(roc.find("replays")->as_int()),
               static_cast<long long>(roc.find("detector_grid")->as_int()),
               timing.find("record_seconds")->as_double(),
               timing.find("replay_seconds")->as_double());

  // JSON artifact (nightly trend tracking): same top-level keys as ever,
  // assembled through the shared common/json emitter.
  json::Object artifact;
  artifact["benchmark"] = json::Value("defense_sweep");
  artifact["quick"] = json::Value(quick ? 1 : 0);
  {
    json::Object c;
    c["operating_points"] = *curve.find("operating_points");
    c["placements"] = *curve.find("placements");
    c["simulations"] = *curve.find("simulations");
    c["seconds"] = *timing.find("curve_seconds");
    artifact["curve"] = json::Value(std::move(c));
  }
  {
    json::Object r;
    r["dynamics_cells"] = *roc.find("dynamics_cells");
    r["placements"] = *roc.find("placements");
    r["detector_grid"] = *roc.find("detector_grid");
    r["simulations"] = *roc.find("simulations");
    r["replays"] = *roc.find("replays");
    r["record_seconds"] = *timing.find("record_seconds");
    r["replay_seconds"] = *timing.find("replay_seconds");
    r["points"] = *roc.find("points");
    artifact["roc"] = json::Value(std::move(r));
  }
  try {
    json::dump_file(json::Value(std::move(artifact)), json_path);
    std::fprintf(stderr, "wrote %s\n", json_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
  }
  return 0;
}
