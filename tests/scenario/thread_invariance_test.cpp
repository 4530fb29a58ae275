// Thread-invariance lock: for EVERY registered scenario, the --quick
// result tree at --threads 1 must equal the one at --threads 2,
// "timing"/"threads" excepted. Cells that fan runs across the pool
// (fig3, fig4, the attack sweeps, ...) must draw their placements
// serially and reduce in index order; a reduction that follows worker
// completion order shows up here as a double-for-double diff.
//
// One test per registry scenario (gtest_discover_tests in
// tests/CMakeLists.txt), plus a small fig3 fan-out case cheap enough to
// run under TSan.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/json.hpp"
#include "scenario/registry.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {
namespace {

/// Wall-clock seconds and the pool size are the non-deterministic parts.
std::string tree_at(const ScenarioSpec& spec, int threads) {
  RunOptions opts;
  opts.quick = true;
  opts.threads = threads;
  json::Value v = run_scenario(spec, opts);
  v.as_object()["timing"] = json::Value();
  v.as_object()["threads"] = json::Value();
  return json::dump(v, 0);
}

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

class ThreadInvariance : public testing::TestWithParam<std::string> {};

TEST_P(ThreadInvariance, SameTreeAtOneAndTwoThreads) {
  const ScenarioSpec& spec = scenario_or_throw(GetParam());
  EXPECT_EQ(tree_at(spec, 1), tree_at(spec, 2))
      << "scenario \"" << spec.name << "\" depends on the thread count";
}

INSTANTIATE_TEST_SUITE_P(Registry, ThreadInvariance,
                         testing::ValuesIn(registry_names()), param_name);

// fig3's fan-out on one 64-node cell: (GM center, corner) x 2 seeds,
// four infection runs on two workers.
TEST(Fig3FanOut, SmallArmSameAtOneAndTwoThreads) {
  ScenarioSpec spec = scenario_or_throw("fig3");
  spec.axes.arms = {{64, {10}}};
  spec.validate();
  const std::string serial = tree_at(spec, 1);
  EXPECT_EQ(serial, tree_at(spec, 2));
  EXPECT_NE(serial.find("\"simulated\""), std::string::npos);
}

}  // namespace
}  // namespace htpb::scenario
