// Tests of the scenario benchmark itself; one ctest entry per case:
//   scenario_bench_test thread_invariance | metric_names | count_repeat |
//                       traced_reproduces
#include <cstdio>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "traced.hpp"
#include "workloads.hpp"

namespace json = htpb::json;
namespace scenario = htpb::scenario;
using namespace scenario_bench;

namespace {

int g_failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

/// Smallest budget: every pass runs exactly one repetition.
constexpr double kOneRep = 1e-3;

[[nodiscard]] std::uint64_t default_seed(const Workload& w) {
  return scenario::scenario_or_throw(w.scenario).seed;
}

/// Each workload's result tree has the same fingerprint at 1 and 2
/// threads, and it is the stored reference for the registry seed.
void thread_invariance() {
  const ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
  for (const Workload& w : workloads()) {
    const std::uint64_t seed = default_seed(w);
    const scenario::ScenarioSpec& spec =
        scenario::scenario_or_throw(w.scenario);
    const std::uint64_t one =
        fingerprint(scenario::run_scenario(spec, run_options(w, seed, 1)));
    const std::uint64_t two =
        fingerprint(scenario::run_scenario(spec, run_options(w, seed, 2)));
    check(one == two, w.name + ": fingerprint differs at 1 and 2 threads");
    check(one == ref.expected(w.name, seed),
          w.name + ": fingerprint differs from reference.json");
  }
}

[[nodiscard]] std::set<std::string> declared(const json::Value& manifest,
                                             const char* key) {
  std::set<std::string> names;
  for (const json::Value& m : manifest.as_object().find(key)->as_array()) {
    names.insert(m.as_object().find("name")->as_string());
  }
  return names;
}

[[nodiscard]] std::set<std::string> emitted(const json::Object& metrics) {
  std::set<std::string> names;
  for (const auto& [name, value] : metrics) names.insert(name);
  return names;
}

/// Every metric name is well formed, and each pass emits exactly the
/// metrics BENCHMARK.json declares for it.
void metric_names() {
  const Workload& w = workload_or_throw("closed-loop-defense");
  const ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
  const std::uint64_t seed = default_seed(w);
  const auto opts = run_options(w, seed);
  const std::uint64_t expected = ref.expected(w.name, seed);
  const EndToEndPass e2e = run_end_to_end(w, opts, expected, kOneRep);
  const TracedPass traced = run_traced(w, opts, expected, kOneRep);
  check(e2e.failed == 0 && traced.failed == 0, "a pass failed");

  const std::regex well_formed("[A-Za-z0-9_.-]+");
  for (const json::Object* metrics : {&e2e.metrics, &traced.metrics}) {
    for (const auto& [name, value] : *metrics) {
      check(std::regex_match(name, well_formed), "bad metric name " + name);
    }
  }
  const json::Value manifest = json::parse_file(SCENARIO_BENCH_MANIFEST);
  check(emitted(e2e.metrics) == declared(manifest, "end_to_end"),
        "end-to-end metrics differ from BENCHMARK.json");
  check(emitted(traced.metrics) == declared(manifest, "per_layer"),
        "per-layer metrics differ from BENCHMARK.json");
}

/// The deterministic counters repeat exactly across two traced passes.
void count_repeat() {
  const ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
  for (const Workload& w : workloads()) {
    const std::uint64_t seed = default_seed(w);
    const auto opts = run_options(w, seed);
    const std::uint64_t expected = ref.expected(w.name, seed);
    const TracedPass a = run_traced(w, opts, expected, kOneRep);
    const TracedPass b = run_traced(w, opts, expected, kOneRep);
    int compared = 0;
    for (const auto& [name, value] : a.metrics) {
      const bool count = name.rfind("noc.", 0) == 0 ||
                         name.rfind("cpu.", 0) == 0 ||
                         name.rfind("mem.", 0) == 0 ||
                         name.rfind("core.", 0) == 0;
      const std::string unit = value.as_object().find("unit")->as_string();
      if (!count || unit == "s" || unit == "%" || unit == "ns" ||
          name == "core.pool_utilization") {
        continue;  // host times vary; counts must not
      }
      ++compared;
      const json::Value* other = b.metrics.find(name);
      check(other != nullptr && *other == value,
            w.name + ": " + name + " differs between two runs");
    }
    check(compared > 0, w.name + ": no counts compared");
  }
}

/// The traced re-drive reproduces the untraced tree (run_traced counts a
/// re-drive that does not as a failed operation).
void traced_reproduces() {
  const ReferenceTable ref = ReferenceTable::load(SCENARIO_BENCH_REFERENCE);
  for (const char* name : {"fig3-infection", "fig5-attack"}) {
    const Workload& w = workload_or_throw(name);
    const std::uint64_t seed = default_seed(w);
    const TracedPass p = run_traced(w, run_options(w, seed),
                                    ref.expected(w.name, seed), kOneRep);
    check(p.attempted == 2, w.name + ": expected one untraced call and one "
                                     "re-drive");
    check(p.failed == 0, w.name + ": the untraced tree differs from the "
                                  "reference or the re-drive differs from it");
    const json::Value* coverage = p.metrics.find("trace.coverage");
    check(coverage != nullptr &&
              coverage->as_object().find("value")->as_double() >= 0.9,
          w.name + ": layer spans cover under 90% of the traced run");
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::string which = argc == 2 ? argv[1] : "";
  if (which == "thread_invariance") {
    thread_invariance();
  } else if (which == "metric_names") {
    metric_names();
  } else if (which == "count_repeat") {
    count_repeat();
  } else if (which == "traced_reproduces") {
    traced_reproduces();
  } else {
    std::fprintf(stderr, "unknown test \"%s\"\n", which.c_str());
    return 2;
  }
  std::fprintf(stderr, "%s: %d failure(s)\n", which.c_str(), g_failures);
  return g_failures == 0 ? 0 : 1;
}
