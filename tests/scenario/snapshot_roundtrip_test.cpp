// Checkpointing correctness lock (the PR-8 acceptance bar): for EVERY
// registered scenario, running at --quick with the snapshot self-test
// armed -- ManyCoreSystem::run_epochs interrupts each multi-epoch run at
// a near-boundary cut and a mid-epoch cut and round-trips the whole
// system (engine, NoC, tiles, caches, manager, RNG streams) through its
// JSON snapshot at each cut -- must produce a result tree bit-identical
// to the uninterrupted run, "timing"/"threads" excepted. Any state a
// layer forgets to save (or restores in a different iteration order)
// shows up here as a double-for-double diff.
//
// One test per registry scenario, so ctest lists (and `-j` runs) each as
// its own entry (gtest_discover_tests in tests/CMakeLists.txt).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "system/manycore_system.hpp"

namespace htpb::scenario {
namespace {

/// Wall-clock seconds and the pool size are the non-deterministic parts.
json::Value without_timing(json::Value v) {
  v.as_object()["timing"] = json::Value();
  v.as_object()["threads"] = json::Value();
  return v;
}

/// RAII so a failing scenario cannot leave the hook armed for the rest
/// of the process.
class SelfTestGuard {
 public:
  SelfTestGuard() { system::set_snapshot_self_test(true); }
  ~SelfTestGuard() { system::set_snapshot_self_test(false); }
};

std::vector<std::string> registry_names() {
  std::vector<std::string> names;
  for (const ScenarioSpec& spec : registry()) names.push_back(spec.name);
  return names;
}

/// gtest parameter names allow only [A-Za-z0-9_].
std::string param_name(const testing::TestParamInfo<std::string>& info) {
  std::string name = info.param;
  for (char& c : name) {
    if (c == '-') c = '_';
  }
  return name;
}

class SnapshotRoundtrip : public testing::TestWithParam<std::string> {};

TEST_P(SnapshotRoundtrip, BitIdenticalThroughSnapshots) {
  const ScenarioSpec& spec = scenario_or_throw(GetParam());
  RunOptions opts;
  opts.quick = true;
  ASSERT_FALSE(system::snapshot_self_test());
  const json::Value plain = without_timing(run_scenario(spec, opts));
  json::Value cut;
  {
    SelfTestGuard armed;
    cut = without_timing(run_scenario(spec, opts));
  }
  EXPECT_EQ(json::dump(plain, 0), json::dump(cut, 0))
      << "scenario \"" << spec.name
      << "\": snapshot/restore diverged from the straight-through run";
}

INSTANTIATE_TEST_SUITE_P(Registry, SnapshotRoundtrip,
                         testing::ValuesIn(registry_names()), param_name);

}  // namespace
}  // namespace htpb::scenario
