// scenario_bench: end-to-end and per-layer benchmark of three registry
// scenarios (see README.md).
//
//   scenario_bench --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans-dir DIR]
//   scenario_bench --print-reference
//
// Prints a host header line, one "<metric> <value> <unit>" line per
// metric, and as the last line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics, --trace 1 the per-layer ones (and writes the span file into
// --spans-dir). --print-reference recomputes reference.json.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "traced.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace json = htpb::json;
using namespace scenario_bench;

namespace {

[[nodiscard]] std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

[[nodiscard]] json::Value host_info() {
  json::Object h;
  h["nproc"] =
      json::Value(static_cast<int>(std::thread::hardware_concurrency()));
  h["cpu_model"] = json::Value(cpu_model());
#if defined(__clang__)
  h["compiler"] = json::Value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  h["compiler"] = json::Value(std::string("gcc ") + __VERSION__);
#else
  h["compiler"] = json::Value("unknown");
#endif
  h["build_type"] = json::Value(SCENARIO_BENCH_BUILD_TYPE);
  h["git_describe"] = json::Value(SCENARIO_BENCH_GIT_DESCRIBE);
  return json::Value(std::move(h));
}

/// fig3 prints the analytic-vs-simulated infection gap for context; the
/// model is unvalidated against hardware, so nothing gates on it.
void print_fig3_gap(const json::Value& tree) {
  if (!tree.is_object()) return;
  const json::Value* kind = tree.as_object().find("kind");
  const char* fig3 = htpb::scenario::to_string(
      htpb::scenario::ScenarioKind::kInfectionVsHtCount);
  if (kind == nullptr || kind->as_string() != fig3) return;
  const json::Value* arms = tree.as_object().find("arms");
  double gap = 0.0;
  int cells = 0;
  for (const json::Value& arm : arms->as_array()) {
    for (const json::Value& row : arm.as_object().find("rows")->as_array()) {
      for (const json::Value& cell :
           row.as_object().find("cells")->as_array()) {
        const json::Object& c = cell.as_object();
        gap += std::abs(c.find("simulated")->as_double() -
                        c.find("analytic")->as_double());
        ++cells;
      }
    }
  }
  if (cells > 0) {
    std::printf("context: fig3 mean |simulated - analytic| infection = %.6f "
                "over %d cells (not gated)\n",
                gap / cells, cells);
  }
}

int print_reference() {
  ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
  for (const Workload& w : workloads()) {
    for (const std::uint64_t seed : ref.seeds(w.name)) {
      const json::Value tree = htpb::scenario::run_scenario(
          htpb::scenario::scenario_or_throw(w.scenario), run_options(w, seed));
      const std::uint64_t fp = fingerprint(tree);
      ref.store(w.name, seed, fp);
      std::fprintf(stderr, "%s seed %llu: %s\n", w.name.c_str(),
                   static_cast<unsigned long long>(seed), to_hex(fp).c_str());
    }
  }
  std::cout << json::dump(ref.to_json(), 2) << "\n";
  return 0;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--spans-dir DIR]\n       %s --print-reference\n",
               argv0, argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  std::string spans_dir;
  long long seed = -1;
  double seconds = -1.0;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--print-reference" && argc == 2) return print_reference();
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string val = argv[++i];
    if (arg == "--workload") {
      workload_name = val;
    } else if (arg == "--seed") {
      seed = std::strtoll(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      trace = val == "0" ? 0 : val == "1" ? 1 : -1;
    } else if (arg == "--spans-dir") {
      spans_dir = val;
    } else {
      return usage(argv[0]);
    }
  }
  if (workload_name.empty() || seed < 0 || seconds <= 0.0 || trace < 0) {
    return usage(argv[0]);
  }

  try {
    const Workload& w = workload_or_throw(workload_name);
    const ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
    const std::uint64_t scenario_seed =
        ref.scenario_seed(w.name, static_cast<std::uint64_t>(seed));
    const std::uint64_t expected = ref.expected(w.name, scenario_seed);
    const htpb::scenario::RunOptions opts = run_options(w, scenario_seed);

    json::Object header;
    header["host"] = host_info();
    header["workload"] = json::Value(w.name);
    header["scenario"] = json::Value(w.scenario);
    header["seed"] = json::Value(seed);
    header["scenario_seed"] =
        json::Value(static_cast<long long>(scenario_seed));
    header["threads"] = json::Value(opts.threads);
    header["trace"] = json::Value(trace);
    std::cout << json::dump(json::Value(header), 0) << "\n";

    json::Object metrics;
    int attempted = 0;
    int failed = 0;
    if (trace == 0) {
      EndToEndPass pass = run_end_to_end(w, opts, expected, seconds);
      attempted = pass.attempted;
      failed = pass.failed;
      metrics = std::move(pass.metrics);
      print_fig3_gap(pass.last_tree);
    } else {
      TracedPass pass = run_traced(w, opts, expected, seconds);
      attempted = pass.attempted;
      failed = pass.failed;
      metrics = std::move(pass.metrics);
      if (!spans_dir.empty()) {
        std::filesystem::create_directories(spans_dir);
        header["reps"] = json::Value(std::move(pass.span_reps));
        json::dump_file(json::Value(std::move(header)),
                        spans_dir + "/" + w.name + "-seed" +
                            std::to_string(seed) + ".json",
                        0);
      }
    }
    for (const auto& [name, m] : metrics) {
      std::printf("%-34s %.6g %s\n", name.c_str(),
                  m.as_object().find("value")->as_double(),
                  m.as_object().find("unit")->as_string().c_str());
    }
    json::Object result;
    result["correct"] = json::Value(failed == 0 && attempted > 0);
    result["attempted"] = json::Value(attempted);
    result["failed"] = json::Value(failed);
    result["metrics"] = json::Value(std::move(metrics));
    std::cout << json::dump(json::Value(std::move(result)), 0) << std::endl;
    return failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "scenario_bench: %s\n", e.what());
    return 1;
  }
}
