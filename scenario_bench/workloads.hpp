// The benchmark's workloads, their reference fingerprints, set-up and
// the untraced end-to-end pass. A workload is one registry scenario at
// its --quick size with a fixed sweep-pool size; the benchmark seed picks
// the scenario seed (RunOptions::seed).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "core/campaign.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "workload/application.hpp"

namespace scenario_bench {

struct Workload {
  std::string name;      ///< benchmark workload name (BENCHMARK.json)
  std::string scenario;  ///< registry scenario it runs
  int threads = 1;       ///< ParallelSweepRunner pool size
};

[[nodiscard]] const std::vector<Workload>& workloads();
/// Throws std::invalid_argument listing the known names.
[[nodiscard]] const Workload& workload_or_throw(std::string_view name);

/// The workload's run options: quick overlay, its pool size (unless
/// `threads` > 0 overrides it) and the scenario seed.
[[nodiscard]] htpb::scenario::RunOptions run_options(const Workload& w,
                                                     std::uint64_t seed,
                                                     int threads = 0);

/// FNV-1a (64-bit) over json::dump(tree, 0) with the "timing" and
/// "threads" members of the envelope removed: the result proper, which
/// is bit-identical at every pool size.
[[nodiscard]] std::uint64_t fingerprint(const htpb::json::Value& tree);
[[nodiscard]] std::string to_hex(std::uint64_t v);

/// reference.json: per workload, the seeds the benchmark folds onto and
/// the stored fingerprint of each (plus a held-out seed).
class ReferenceTable {
 public:
  struct Entry {
    std::vector<std::uint64_t> fold;  ///< seeds --seed is folded onto
    std::uint64_t held_out = 0;       ///< stored, but never folded onto
    std::map<std::uint64_t, std::uint64_t> fnv1a;  ///< seed -> fingerprint
  };

  [[nodiscard]] static ReferenceTable load(const std::string& path);
  [[nodiscard]] htpb::json::Value to_json() const;

  /// The workload's fold seeds plus its held-out seed.
  [[nodiscard]] std::vector<std::uint64_t> seeds(
      const std::string& workload) const;
  void store(const std::string& workload, std::uint64_t seed,
             std::uint64_t fnv1a);
  /// A benchmark seed with a stored fingerprint runs as is; any other is
  /// folded onto fold[seed % fold.size()], so every run is checked
  /// against a stored fingerprint.
  [[nodiscard]] std::uint64_t scenario_seed(const std::string& workload,
                                            std::uint64_t bench_seed) const;
  /// Stored fingerprint; throws when (workload, seed) has none.
  [[nodiscard]] std::uint64_t expected(const std::string& workload,
                                       std::uint64_t seed) const;

 private:
  [[nodiscard]] const Entry& entry(const std::string& workload) const;

  std::map<std::string, Entry> entries_;
};

/// The campaign configuration the runner derives from a resolved spec
/// (mirrors the runner's own mapping; the traced re-drive depends on it
/// matching, which the reproduction check catches when it drifts).
/// `mix_name` empty = the uniform infection-only workload.
[[nodiscard]] htpb::core::CampaignConfig campaign_config(
    const htpb::scenario::ScenarioSpec& spec, const std::string& mix_name);

/// The workload's largest chip: for a size sweep its biggest arm, else
/// the spec's mesh with its first (or only) mix.
[[nodiscard]] htpb::core::CampaignConfig largest_chip(
    const htpb::scenario::ScenarioSpec& resolved);

/// Result of the untraced pass.
struct EndToEndPass {
  htpb::json::Object metrics;  ///< wall_s, setup_s, peak_rss_mb
  int attempted = 0;
  int failed = 0;
  htpb::json::Value last_tree;  ///< tree of the last correct call
};

/// Sets up at least 21 times and for at least 2 s (setup_s = their
/// median; one set-up is the registry lookup, scenario::resolve, and one
/// construction and destruction of the largest chip), then calls
/// run_scenario until `seconds` would be exceeded, at least once (wall_s =
/// the median call). A call fails if it throws or its fingerprint differs
/// from `expected`.
[[nodiscard]] EndToEndPass run_end_to_end(
    const Workload& w, const htpb::scenario::RunOptions& opts,
    std::uint64_t expected, double seconds);

/// Adds {"value": value, "unit": unit} to `metrics` under `name`.
void put(htpb::json::Object& metrics, const std::string& name, double value,
         const char* unit);

[[nodiscard]] double median(std::vector<double> v);

}  // namespace scenario_bench
