// The declarative scenario API: one serializable value type that captures
// an entire experiment -- mesh/system, workload mix, Trojan behaviour
// (duty-cycle included), placement axes, detector operating points,
// epochs, seeds and thread budget.
//
// Every paper experiment (Figs. 3-6, Tables I-III, the Sec. V placement
// study, the defense extensions) is a ScenarioSpec in the registry
// (scenario/registry.hpp); the single `htpb_run` driver executes specs
// through scenario/runner.hpp and prints scenario/report.hpp's tables. New
// scenarios -- new Trojan kinds, detector grids, response policies -- are
// new specs (or spec files), not new binaries.
//
// Serialization contract (locked by tests/scenario/spec_test.cpp):
//  - The schema is one field list per section struct (spec.cpp names
//    every (key, member) pair once); one generic writer and one strict
//    reader walk those lists. Only ScenarioSpec's own to_json/from_json
//    are written out, for the schema_version / quick / name checks.
//  - to_json / from_json round-trip exactly: from_json(to_json(s)) == s,
//    including double fields bit for bit.
//  - from_json is strict: unknown keys anywhere in the document are an
//    error (typos must not silently change an experiment), and
//    schema_version must match kSchemaVersion.
//  - Integers must fit the member's type: a width beyond int, a NodeId
//    beyond uint32 or a negative Cycle/seed is rejected with its dotted
//    path ("scenario.system.width"), never truncated.
//  - Members are emitted sparsely (only values that differ from the
//    default; an engaged optional always appears), array entries densely,
//    so checked-in spec files stay readable.
//
// C++ callers (the registry, tests) fill a ScenarioSpec's fields directly
// and call validate(); mesh_for_size() maps paper node counts to shapes.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hpp"
#include "common/types.hpp"
#include "power/budgeter.hpp"
#include "power/defense.hpp"
#include "power/response.hpp"
#include "system/system_config.hpp"

namespace htpb::scenario {

/// Bump on any incompatible spec-schema change; from_json rejects files
/// written for a different version instead of guessing.
inline constexpr std::int64_t kSchemaVersion = 1;

/// The experiment families of the paper reproduction. One value per
/// reduction shape (what is swept and what is reported); the shared
/// sections (system/workload/trojan/...) mean the same thing under every
/// kind.
enum class ScenarioKind : std::uint8_t {
  kInfectionVsHtCount,       ///< Fig. 3: infection rate vs #HTs, GM arms
  kInfectionVsDistribution,  ///< Fig. 4: center/random/corner clusters
  kAttackEffect,             ///< Fig. 5: Q vs infection rate per mix
  kPerformanceChange,        ///< Fig. 6: per-app Theta vs infection rate
  kPlacementStudy,           ///< Sec. V-C: model-optimized vs random
  kDefenseSweep,             ///< Defense ROC: bands x placements (+ROC grid)
  kDefenseEvaluation,        ///< Detection & mitigation per mix
  kAttackComparison,         ///< False-data vs flooding; duty-cycling
  kBudgeterAblation,         ///< Q under every budgeting algorithm
  kConfigReport,             ///< Table I: configuration + timing check
  kBenchmarkReport,          ///< Tables II-III: roster, mixes, measured Phi
  kAreaPowerReport,          ///< Sec. III-D: HT area/power stealth numbers
  kDefenseClosedLoop,        ///< Response policies x {static, adaptive} Trojan
};
inline constexpr int kScenarioKindCount = 13;

/// Enum <-> string maps used by the JSON schema. Every to_string is an
/// exhaustive switch and every from_string throws std::invalid_argument
/// on unknown names; tests/scenario/spec_test.cpp walks all enumerators
/// through both directions.
[[nodiscard]] const char* to_string(ScenarioKind kind) noexcept;
[[nodiscard]] ScenarioKind scenario_kind_from_string(std::string_view name);
[[nodiscard]] const char* to_string(system::GmPlacement placement) noexcept;
[[nodiscard]] system::GmPlacement gm_placement_from_string(
    std::string_view name);
[[nodiscard]] power::BudgeterKind budgeter_kind_from_string(
    std::string_view name);
[[nodiscard]] const char* to_string(power::DetectorKind kind) noexcept;
[[nodiscard]] power::DetectorKind detector_kind_from_string(
    std::string_view name);

/// Paper mesh shape for a node count (64/128/256/512, Table I's sweep);
/// throws std::invalid_argument otherwise. The spec stores width x height
/// so arbitrary meshes are first-class; size-swept kinds (Figs. 3-4) map
/// their per-arm node counts through this.
[[nodiscard]] std::pair<int, int> mesh_for_size(int nodes);

/// The chip (system::SystemConfig's experiment-relevant surface).
struct SystemSpec {
  int width = 16;
  int height = 16;
  Cycle epoch_cycles = 2000;
  Cycle first_epoch_cycle = 10;
  double budget_fraction = 0.50;
  power::BudgeterKind budgeter = power::BudgeterKind::kProportional;
  bool guard_requests = false;
  system::GmPlacement gm_placement = system::GmPlacement::kCenter;
  std::optional<NodeId> gm_node;
  /// Per-node workload stream seed (SystemConfig::seed).
  std::uint64_t seed = 1;

  [[nodiscard]] system::SystemConfig to_system_config() const;

  friend bool operator==(const SystemSpec&, const SystemSpec&) = default;
};

/// What runs on the chip.
struct WorkloadSpec {
  /// Table III mix name ("mix-1".."mix-4"); empty = the uniform
  /// infection-only workload (Figs. 3-4).
  std::string mix;
  /// Mix axis for kinds that sweep several mixes (Figs. 5-6, the
  /// placement study, the defense evaluation). Takes precedence over
  /// `mix` for those kinds.
  std::vector<std::string> mixes;
  /// Threads per application; 0 = divide all cores evenly.
  int threads_per_app = 0;

  friend bool operator==(const WorkloadSpec&, const WorkloadSpec&) = default;
};

/// The adaptive attacker agent's duty-cycle controller (mirrors
/// core::TrojanAdaptation; the runner bridges the fields). Mutually
/// exclusive with toggle_period_epochs -- both steer the same activation
/// signal.
struct AdaptationSpec {
  bool enabled = false;
  double alpha = 0.5;
  double backoff_ratio = 0.7;
  int max_on_epochs = 1;
  int hold_off_epochs = 1;

  friend bool operator==(const AdaptationSpec&, const AdaptationSpec&) = default;
};

/// The attacker's CONFIG_CMD payload plus its activation schedule.
struct TrojanSpec {
  bool active = true;
  bool attenuate_victims = true;
  bool boost_attackers = true;
  double victim_scale = 0.125;
  double attacker_boost = 4.0;
  /// Duty-cycled activation: flip the activation signal every N epochs
  /// (Sec. III-B); 0 = static.
  int toggle_period_epochs = 0;
  /// Grant-feedback adaptation (the closed loop's attacker half).
  AdaptationSpec adaptation;

  friend bool operator==(const TrojanSpec&, const TrojanSpec&) = default;
};

struct EpochSpec {
  int warmup = 2;
  int measure = 5;

  friend bool operator==(const EpochSpec&, const EpochSpec&) = default;
};

/// A detector operating point (mirrors power::DetectorConfig).
struct DetectorSpec {
  power::DetectorKind kind = power::DetectorKind::kSelfEwma;
  double history_alpha = 0.25;
  double low_ratio = 0.45;
  double high_ratio = 2.2;
  int warmup_epochs = 2;
  int confirm_epochs = 2;

  [[nodiscard]] power::DetectorConfig to_config() const;
  [[nodiscard]] static DetectorSpec from_config(
      const power::DetectorConfig& cfg);

  friend bool operator==(const DetectorSpec&, const DetectorSpec&) = default;
};

/// A closed-loop response policy (mirrors power::ResponseConfig).
struct ResponseSpec {
  power::ResponseKind kind = power::ResponseKind::kQuarantine;
  power::ResponseTrigger trigger = power::ResponseTrigger::kHigh;
  int sanction_epochs = 3;
  double recovery_threshold = 0.9;

  [[nodiscard]] power::ResponseConfig to_config() const;
  [[nodiscard]] static ResponseSpec from_config(
      const power::ResponseConfig& cfg);

  friend bool operator==(const ResponseSpec&, const ResponseSpec&) = default;
};

/// A trust band [low, high] around the detector reference -- the
/// operating-point axis of defense sweeps.
struct BandSpec {
  double low = 0.45;
  double high = 2.2;

  friend bool operator==(const BandSpec&, const BandSpec&) = default;
};

/// One Fig. 3 arm: a chip size and the #HT sweep evaluated on it.
struct InfectionArm {
  int nodes = 64;
  std::vector<int> ht_counts;

  friend bool operator==(const InfectionArm&, const InfectionArm&) = default;
};

/// A clustered Trojan placement, anchored declaratively so the spec needs
/// no concrete node ids (they depend on the mesh and GM placement).
struct ClusterSpec {
  enum class At : std::uint8_t {
    kGm,       ///< around the global manager (worst case for the defender)
    kCenter,   ///< around the mesh center
    kCorner,   ///< in the (0,0) corner
    kQuarter,  ///< at (width/4, height/4) -- the mid-mesh defense arm
  };
  static constexpr int kAtCount = 4;

  At at = At::kGm;
  int hts = 8;

  friend bool operator==(const ClusterSpec&, const ClusterSpec&) = default;
};

[[nodiscard]] const char* to_string(ClusterSpec::At at) noexcept;
[[nodiscard]] ClusterSpec::At cluster_at_from_string(std::string_view name);

/// The stealthy-Trojan ROC grid riding on the defense sweep: dynamics
/// axes (duty-cycle period x modification factor) are simulated once per
/// placement; the detector grid (bands x kinds) replays the traces.
struct RocSpec {
  std::vector<int> periods;      ///< toggle periods; 0 = always-on
  std::vector<double> factors;   ///< victim_scale values
  /// How many of the sweep's placements the grid records (a prefix).
  int placements = 0;
  /// first_epoch_cycle for the period=0 (attack-from-epoch-0) cells: the
  /// CONFIG_CMD broadcast must land before the first POWER_REQ.
  Cycle epoch0_first_epoch_cycle = 600;

  [[nodiscard]] bool enabled() const noexcept {
    return !periods.empty() && !factors.empty() && placements > 0;
  }

  friend bool operator==(const RocSpec&, const RocSpec&) = default;
};

/// Kind-specific sweep axes. Sparse: a spec serializes only the fields
/// that differ from these defaults, and validate() checks that the ones
/// its kind reads are populated.
struct AxesSpec {
  // kInfectionVsHtCount
  std::vector<InfectionArm> arms;
  std::vector<system::GmPlacement> gm_placements;
  // kInfectionVsDistribution
  std::vector<int> sizes;
  std::vector<int> ht_divisors;
  /// Random-placement repetitions averaged per cell (Figs. 3-4).
  int seeds = 0;
  // kAttackEffect / kPerformanceChange
  std::vector<double> infection_targets;
  int placement_max_hts = 64;
  // kPlacementStudy (+ kBenchmarkReport / kAreaPowerReport chip size)
  int nodes = 0;
  int max_hts = 16;
  int train_samples = 24;
  int random_trials = 4;
  int candidates_per_m = 60;
  int shortlist = 3;
  // kDefenseSweep / kDefenseEvaluation / kDefenseClosedLoop
  std::vector<BandSpec> bands;
  std::vector<ClusterSpec> placements;
  int cluster_hts = 8;
  int detection_measure_epochs = 6;
  RocSpec roc;
  /// kDefenseClosedLoop: the response-policy axis (each kind is one arm;
  /// kDefenseSweep rejects it).
  std::vector<power::ResponseKind> responses;
  // kAttackComparison
  std::vector<NodeId> flood_sources;
  double flood_rate = 0.15;
  std::vector<int> toggle_periods;
  int duty_warmup_epochs = 0;
  int duty_measure_epochs = 8;
  // kBudgeterAblation
  std::vector<power::BudgeterKind> budgeters;
  // kAreaPowerReport
  std::vector<int> ht_counts;

  friend bool operator==(const AxesSpec&, const AxesSpec&) = default;
};

struct ScenarioSpec {
  std::int64_t schema_version = kSchemaVersion;
  std::string name;
  ScenarioKind kind = ScenarioKind::kConfigReport;
  /// Header strings benches print (experiment line, paper reference and
  /// the expected qualitative shape).
  std::string title;
  std::string paper_ref;
  std::string expectation;

  SystemSpec system;
  WorkloadSpec workload;
  TrojanSpec trojan;
  EpochSpec epochs;
  /// Detection policy for kinds that run one detector in-sim
  /// (kDefenseEvaluation, kDefenseClosedLoop); sweeps carry their grids
  /// in axes.bands.
  std::optional<DetectorSpec> detector;
  /// Closed-loop response policy; requires `detector`. For
  /// kDefenseClosedLoop this sets trigger/sanction/recovery parameters
  /// while axes.responses supplies the policy-kind axis.
  std::optional<ResponseSpec> response;
  AxesSpec axes;

  /// Experiment-level seed: every stochastic choice the runner makes
  /// (random placements, training samples, optimizer streams, flooder
  /// phases) derives from this value and loop indices alone -- no entry
  /// point reachable from a scenario run draws from a default-seeded Rng
  /// (tests/scenario/runner_test.cpp locks same-seed determinism).
  std::uint64_t seed = 1;
  /// ParallelSweepRunner pool cap; 0 = default (HTPB_THREADS or cores).
  /// The pool parallelises inside one cell (scenario/cells.hpp); cells
  /// run in order.
  int threads = 0;

  /// Sparse JSON overlay merged over the spec by with_quick() -- the
  /// CI-size trims `--quick` applies. Objects merge recursively,
  /// everything else (arrays included) replaces. kNull = no quick
  /// variant.
  json::Value quick;

  /// Unread; kept only while scenario_bench/workloads.cpp assigns it.
  // json-exempt: unread, outside the spec schema
  std::string checkpoint_dir;

  [[nodiscard]] json::Value to_json() const;
  [[nodiscard]] static ScenarioSpec from_json(const json::Value& v);

  /// Schema-level sanity: kind-required axes populated, ranges legal,
  /// mix names known, mesh shape usable. Throws std::invalid_argument.
  void validate() const;

  /// The spec with its quick overlay applied (and re-validated); returns
  /// *this unchanged when no overlay is present.
  [[nodiscard]] ScenarioSpec with_quick() const;

  friend bool operator==(const ScenarioSpec&, const ScenarioSpec&) = default;
};

/// Parses, deserializes and validates a spec file in one step. Every
/// error -- unreadable file, malformed JSON, schema violation, validate()
/// failure -- is rethrown with the offending path prefixed, so a fleet
/// worker's stderr names which cell file broke.
[[nodiscard]] ScenarioSpec load_spec_file(const std::string& path);

/// Recursive JSON merge used by with_quick(): objects merge member-wise
/// (patch members override or extend), every other patch value replaces
/// the base wholesale.
[[nodiscard]] json::Value merge_patch(const json::Value& base,
                                      const json::Value& patch);

/// `--set key=value` override grammar: `key` is a dot-separated path into
/// the spec JSON ("trojan.victim_scale", "axes.bands", "epochs.measure");
/// `value` is parsed as JSON first ("0.3", "[1,2]", "true") and taken as
/// a bare string when that fails ("mix-2"). Creates missing object
/// members; throws std::runtime_error when the path crosses a non-object.
void apply_override(json::Value& spec_json, std::string_view dotted_key,
                    std::string_view value_text);

/// A malformed `--set` argument: not `key=value`, or an integer its field
/// cannot hold. The CLI tools treat it as a usage error (exit 2); every
/// other spec error stays a run failure (exit 1).
class OverrideError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

/// The `--set` front end shared by htpb_run and htpb_fleet. With no
/// `sets` the spec comes back untouched (resolve() applies quick later).
/// Otherwise the quick overlay goes first (when `quick`) and each
/// "key=value" after it, in order, so an explicit override always wins;
/// the result is re-read and validated. Throws OverrideError for a
/// malformed argument.
[[nodiscard]] ScenarioSpec apply_overrides(ScenarioSpec spec, bool quick,
                                           const std::vector<std::string>& sets);

}  // namespace htpb::scenario
