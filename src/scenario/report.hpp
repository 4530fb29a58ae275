// Human-readable tables for a scenario result tree: the default stdout
// of `htpb_run --scenario <name>`.
//
// One printer per ScenarioKind, each reading only the run_scenario
// envelope, so a report can be re-rendered from any saved `--json` tree.
// Output is a pure function of the tree minus "timing" and "threads":
// byte-identical at every thread count.
#pragma once

#include <cstdio>

#include "common/json.hpp"
#include "scenario/spec.hpp"

namespace htpb::scenario {

/// Prints the spec's header (title, paper reference, expected shape) and
/// then the kind's table(s) for `result`. Throws std::runtime_error when
/// the tree lacks a member the kind's table needs.
void print_report(std::FILE* out, const ScenarioSpec& spec,
                  const json::Value& result);

}  // namespace htpb::scenario
