// The traced pass: re-drives the calls the scenario runner makes with a
// span around each call into a layer's public API, then probes the
// workload's chip (build, epochs, snapshot, JSON, teardown) and the
// power layer's trace replay, and reads the public counters of the NoC,
// cores and caches. Produces every per-layer metric.
#pragma once

#include <cstdint>
#include <string>

#include "common/json.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace scenario_bench {

struct TracedPass {
  htpb::json::Object metrics;  ///< per-layer metric name -> {value, unit}
  int attempted = 0;
  int failed = 0;
  htpb::json::Array span_reps;  ///< per repetition, spans_to_json()
};

/// Runs (untraced run_scenario + traced re-drive + probes) repetitions
/// until `seconds` would be exceeded, at least once. An untraced call
/// fails when its fingerprint differs from `expected`; a re-drive fails
/// when it does not reproduce the untraced tree; a repetition whose
/// deterministic counts differ from the first one's fails as well.
[[nodiscard]] TracedPass run_traced(const Workload& w,
                                    const htpb::scenario::RunOptions& opts,
                                    std::uint64_t expected, double seconds);

}  // namespace scenario_bench
