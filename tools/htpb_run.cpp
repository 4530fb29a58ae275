// htpb_run -- the one driver for every declarative scenario.
//
//   htpb_run --list
//   htpb_run --scenario <name|file.json> [options]
//
// Options:
//   --scenario <arg>       registry name (see --list) or a ScenarioSpec
//                          JSON file (anything containing '/' or ending
//                          in .json is treated as a path)
//   --list                 print the registry (name, kind, title) and exit
//   --set key=value        override a spec field by dotted path, e.g.
//                          --set trojan.victim_scale=0.3
//                          --set axes.infection_targets=[0.2,0.8]
//                          (repeatable; applies after the --quick
//                          overlay, so explicit overrides always win)
//   --quick                apply the spec's quick overlay (CI-size sweeps)
//   --seed <n>             reseed the whole experiment (spec seed + the
//                          per-node workload streams)
//   --threads <n>          cap the ParallelSweepRunner pool
//   --json <path|->        write the result JSON to a file, or to stdout
//                          in place of the report
//   --dump-spec [path|-]   print the fully resolved spec JSON and exit
//                          (what would run, overrides and quick applied)
//   --record-trace <path>  simulate the scenario's canonical attacked
//                          campaign once and save its request trace
//   --replay-trace <path>  replay a saved trace through the scenario's
//                          detector grid -- no simulation at all
//
// Exit status: 0 on success; 1 when the spec or the run fails (unknown
// key, validate() error, unreadable file); 2 on a malformed command line
// (unknown flag, --set without '=', a --set integer its field cannot
// hold, a non-numeric --seed/--threads).
//
// A scenario run prints its report (scenario/report.hpp: the header and
// the kind's tables) to stdout unless `--json -` sends the JSON there;
// `--json out.json` gives both. Results are bit-identical across thread
// counts and runs for a fixed (scenario, seed, quick) triple, except the
// "timing" object.
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/json.hpp"
#include "power/request_trace.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace {

using htpb::json::Value;
using htpb::scenario::RunOptions;
using htpb::scenario::ScenarioSpec;

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s --list\n"
               "       %s --scenario <name|file.json> [--quick]"
               " [--set key=value ...]\n"
               "           [--seed N] [--threads N] [--json out|-]"
               " [--dump-spec [out|-]]\n"
               "           [--record-trace path | --replay-trace path]\n",
               argv0, argv0);
}

int usage(const char* argv0) {
  print_usage(stderr, argv0);
  return 2;
}

bool looks_like_path(const std::string& arg) {
  return arg.find('/') != std::string::npos ||
         (arg.size() > 5 && arg.compare(arg.size() - 5, 5, ".json") == 0);
}

ScenarioSpec load_scenario(const std::string& arg) {
  if (looks_like_path(arg)) {
    return htpb::scenario::load_spec_file(arg);
  }
  return htpb::scenario::scenario_or_throw(arg);
}

void emit(const Value& v, const std::string& path) {
  if (path.empty() || path == "-") {
    std::printf("%s\n", htpb::json::dump(v, 2).c_str());
  } else {
    htpb::json::dump_file(v, path);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
  }
}

/// Full-consumption base-10 parse; a typo'd seed must fail loudly, not
/// silently reseed the experiment with whatever strtoull salvages.
std::uint64_t parse_uint(const char* text, const char* argv0,
                         const char* flag) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0') {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got"
                 " \"%s\"\n", argv0, flag, text);
    std::exit(2);
  }
  return v;
}

int list_registry() {
  for (const ScenarioSpec& spec : htpb::scenario::registry()) {
    std::printf("%-20s %-26s %s\n", spec.name.c_str(),
                htpb::scenario::to_string(spec.kind), spec.title.c_str());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_arg;
  std::vector<std::string> sets;
  bool quick = false;
  bool list = false;
  bool dump_spec = false;
  std::string dump_spec_path;
  std::string json_path;
  std::string record_trace_path;
  std::string replay_trace_path;
  RunOptions opts;

  const auto next_arg = [&](int& i, const char* flag) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: %s needs an argument\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strcmp(arg, "--list") == 0) {
      list = true;
    } else if (std::strcmp(arg, "--scenario") == 0) {
      scenario_arg = next_arg(i, arg);
    } else if (std::strcmp(arg, "--set") == 0) {
      sets.emplace_back(next_arg(i, arg));
    } else if (std::strcmp(arg, "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(arg, "--seed") == 0) {
      opts.seed = parse_uint(next_arg(i, arg), argv[0], "--seed");
    } else if (std::strcmp(arg, "--threads") == 0) {
      opts.threads = static_cast<int>(
          parse_uint(next_arg(i, arg), argv[0], "--threads"));
    } else if (std::strcmp(arg, "--json") == 0) {
      json_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--dump-spec") == 0) {
      dump_spec = true;
      // Optional operand: consume it unless it is the next flag ("-"
      // alone means stdout, like --json).
      if (i + 1 < argc &&
          (argv[i + 1][0] != '-' || std::strcmp(argv[i + 1], "-") == 0)) {
        dump_spec_path = argv[++i];
      }
    } else if (std::strcmp(arg, "--record-trace") == 0) {
      record_trace_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--replay-trace") == 0) {
      replay_trace_path = next_arg(i, arg);
    } else if (std::strcmp(arg, "--help") == 0 ||
               std::strcmp(arg, "-h") == 0) {
      // Asked-for help goes to stdout and exits cleanly; only the
      // error paths use the stderr usage() helper.
      print_usage(stdout, argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "%s: unknown argument \"%s\"\n", argv[0], arg);
      return usage(argv[0]);
    }
  }

  // Deterministic fault harness for the fleet tests: under
  // HTPB_FLEET_FAULT this may abort, hang, or corrupt json_path and exit.
  htpb::common::maybe_inject_fleet_fault(json_path);

  try {
    if (list) return list_registry();
    if (scenario_arg.empty()) return usage(argv[0]);

    const ScenarioSpec spec =
        htpb::scenario::apply_overrides(load_scenario(scenario_arg), quick,
                                        sets);
    opts.quick = quick;  // after with_quick() above this is a no-op merge

    if (dump_spec) {
      emit(htpb::scenario::resolve(spec, opts).to_json(), dump_spec_path);
      return 0;
    }
    if (!record_trace_path.empty()) {
      const htpb::power::RequestTrace trace =
          htpb::scenario::record_scenario_trace(spec, opts);
      trace.save(record_trace_path);
      std::fprintf(stderr,
                   "recorded %zu epochs (%d nodes) from scenario \"%s\""
                   " into %s\n",
                   trace.size(), trace.node_count, spec.name.c_str(),
                   record_trace_path.c_str());
      return 0;
    }
    if (!replay_trace_path.empty()) {
      const htpb::power::RequestTrace trace =
          htpb::power::RequestTrace::load(replay_trace_path);
      emit(htpb::scenario::replay_scenario_detectors(spec, trace, opts),
           json_path);
      return 0;
    }

    const Value result = htpb::scenario::run_scenario(spec, opts);
    if (!json_path.empty()) emit(result, json_path);
    if (json_path != "-") htpb::scenario::print_report(stdout, spec, result);
    return 0;
  } catch (const htpb::scenario::OverrideError& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 1;
  }
}
