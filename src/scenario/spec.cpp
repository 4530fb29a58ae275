#include "scenario/spec.hpp"

#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "workload/application.hpp"

namespace htpb::scenario {

// ----------------------------------------------------- enum string maps

const char* to_string(ScenarioKind kind) noexcept {
  switch (kind) {
    case ScenarioKind::kInfectionVsHtCount: return "infection_vs_ht_count";
    case ScenarioKind::kInfectionVsDistribution:
      return "infection_vs_distribution";
    case ScenarioKind::kAttackEffect: return "attack_effect";
    case ScenarioKind::kPerformanceChange: return "performance_change";
    case ScenarioKind::kPlacementStudy: return "placement_study";
    case ScenarioKind::kDefenseSweep: return "defense_sweep";
    case ScenarioKind::kDefenseEvaluation: return "defense_evaluation";
    case ScenarioKind::kAttackComparison: return "attack_comparison";
    case ScenarioKind::kBudgeterAblation: return "budgeter_ablation";
    case ScenarioKind::kConfigReport: return "config_report";
    case ScenarioKind::kBenchmarkReport: return "benchmark_report";
    case ScenarioKind::kAreaPowerReport: return "area_power_report";
    case ScenarioKind::kDefenseClosedLoop: return "defense_closed_loop";
  }
  return "?";
}

ScenarioKind scenario_kind_from_string(std::string_view name) {
  for (int i = 0; i < kScenarioKindCount; ++i) {
    const auto kind = static_cast<ScenarioKind>(i);
    if (name == to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown scenario kind \"" + std::string(name) +
                              "\"");
}

const char* to_string(system::GmPlacement placement) noexcept {
  switch (placement) {
    case system::GmPlacement::kCenter: return "center";
    case system::GmPlacement::kCorner: return "corner";
  }
  return "?";
}

system::GmPlacement gm_placement_from_string(std::string_view name) {
  if (name == "center") return system::GmPlacement::kCenter;
  if (name == "corner") return system::GmPlacement::kCorner;
  throw std::invalid_argument("unknown gm placement \"" + std::string(name) +
                              "\" (center|corner)");
}

power::BudgeterKind budgeter_kind_from_string(std::string_view name) {
  // Names match power::to_string (and Budgeter::name()).
  static constexpr power::BudgeterKind kKinds[] = {
      power::BudgeterKind::kUniform, power::BudgeterKind::kGreedy,
      power::BudgeterKind::kProportional,
      power::BudgeterKind::kDynamicProgramming, power::BudgeterKind::kMarket};
  for (const auto kind : kKinds) {
    if (name == power::to_string(kind)) return kind;
  }
  throw std::invalid_argument("unknown budgeter \"" + std::string(name) +
                              "\" (uniform|greedy|proportional|dp|market)");
}

const char* to_string(power::DetectorKind kind) noexcept {
  switch (kind) {
    case power::DetectorKind::kSelfEwma: return "ewma";
    case power::DetectorKind::kCohortMedian: return "cohort";
  }
  return "?";
}

power::DetectorKind detector_kind_from_string(std::string_view name) {
  if (name == "ewma") return power::DetectorKind::kSelfEwma;
  if (name == "cohort") return power::DetectorKind::kCohortMedian;
  throw std::invalid_argument("unknown detector kind \"" + std::string(name) +
                              "\" (ewma|cohort)");
}

const char* to_string(ClusterSpec::At at) noexcept {
  switch (at) {
    case ClusterSpec::At::kGm: return "gm";
    case ClusterSpec::At::kCenter: return "center";
    case ClusterSpec::At::kCorner: return "corner";
    case ClusterSpec::At::kQuarter: return "quarter";
  }
  return "?";
}

ClusterSpec::At cluster_at_from_string(std::string_view name) {
  for (int i = 0; i < ClusterSpec::kAtCount; ++i) {
    const auto at = static_cast<ClusterSpec::At>(i);
    if (name == to_string(at)) return at;
  }
  throw std::invalid_argument("unknown cluster anchor \"" +
                              std::string(name) +
                              "\" (gm|center|corner|quarter)");
}

std::pair<int, int> mesh_for_size(int nodes) {
  switch (nodes) {
    case 64: return {8, 8};
    case 128: return {16, 8};
    case 256: return {16, 16};
    case 512: return {32, 16};
    default:
      throw std::invalid_argument(
          "no paper mesh shape for " + std::to_string(nodes) +
          " nodes (64/128/256/512)");
  }
}

// -------------------------------------------------------- config bridges

system::SystemConfig SystemSpec::to_system_config() const {
  system::SystemConfig cfg = system::SystemConfig::with_mesh(width, height);
  cfg.epoch_cycles = epoch_cycles;
  cfg.first_epoch_cycle = first_epoch_cycle;
  cfg.budget_fraction = budget_fraction;
  cfg.budgeter = budgeter;
  cfg.guard_requests = guard_requests;
  cfg.gm_placement = gm_placement;
  cfg.gm_node = gm_node;
  cfg.seed = seed;
  return cfg;
}

power::DetectorConfig DetectorSpec::to_config() const {
  power::DetectorConfig cfg;
  cfg.kind = kind;
  cfg.history_alpha = history_alpha;
  cfg.low_ratio = low_ratio;
  cfg.high_ratio = high_ratio;
  cfg.warmup_epochs = warmup_epochs;
  cfg.confirm_epochs = confirm_epochs;
  return cfg;
}

DetectorSpec DetectorSpec::from_config(const power::DetectorConfig& cfg) {
  DetectorSpec spec;
  spec.kind = cfg.kind;
  spec.history_alpha = cfg.history_alpha;
  spec.low_ratio = cfg.low_ratio;
  spec.high_ratio = cfg.high_ratio;
  spec.warmup_epochs = cfg.warmup_epochs;
  spec.confirm_epochs = cfg.confirm_epochs;
  return spec;
}

power::ResponseConfig ResponseSpec::to_config() const {
  power::ResponseConfig cfg;
  cfg.kind = kind;
  cfg.trigger = trigger;
  cfg.sanction_epochs = sanction_epochs;
  cfg.recovery_threshold = recovery_threshold;
  return cfg;
}

ResponseSpec ResponseSpec::from_config(const power::ResponseConfig& cfg) {
  ResponseSpec spec;
  spec.kind = cfg.kind;
  spec.trigger = cfg.trigger;
  spec.sanction_epochs = cfg.sanction_epochs;
  spec.recovery_threshold = cfg.recovery_threshold;
  return spec;
}

// ----------------------------------------------------------- field lists
//
// The spec schema, written once: each section struct lists its
// (key, member) pairs in emission order, and the generic writer and reader
// below are the only code that walks them. A key marked kRequired must be
// present on read; every other key falls back to the member's default.

namespace {

constexpr bool kRequired = true;

template <typename V>
void fields(V& v, std::type_identity<SystemSpec>) {
  using S = SystemSpec;
  v("width", &S::width);
  v("height", &S::height);
  v("epoch_cycles", &S::epoch_cycles);
  v("first_epoch_cycle", &S::first_epoch_cycle);
  v("budget_fraction", &S::budget_fraction);
  v("budgeter", &S::budgeter);
  v("guard_requests", &S::guard_requests);
  v("gm_placement", &S::gm_placement);
  v("gm_node", &S::gm_node);
  v("seed", &S::seed);
}

template <typename V>
void fields(V& v, std::type_identity<WorkloadSpec>) {
  using S = WorkloadSpec;
  v("mix", &S::mix);
  v("mixes", &S::mixes);
  v("threads_per_app", &S::threads_per_app);
}

template <typename V>
void fields(V& v, std::type_identity<AdaptationSpec>) {
  using S = AdaptationSpec;
  v("enabled", &S::enabled);
  v("alpha", &S::alpha);
  v("backoff_ratio", &S::backoff_ratio);
  v("max_on_epochs", &S::max_on_epochs);
  v("hold_off_epochs", &S::hold_off_epochs);
}

template <typename V>
void fields(V& v, std::type_identity<TrojanSpec>) {
  using S = TrojanSpec;
  v("active", &S::active);
  v("attenuate_victims", &S::attenuate_victims);
  v("boost_attackers", &S::boost_attackers);
  v("victim_scale", &S::victim_scale);
  v("attacker_boost", &S::attacker_boost);
  v("toggle_period_epochs", &S::toggle_period_epochs);
  v("adaptation", &S::adaptation);
}

template <typename V>
void fields(V& v, std::type_identity<EpochSpec>) {
  v("warmup", &EpochSpec::warmup);
  v("measure", &EpochSpec::measure);
}

template <typename V>
void fields(V& v, std::type_identity<DetectorSpec>) {
  using S = DetectorSpec;
  v("kind", &S::kind);
  v("history_alpha", &S::history_alpha);
  v("low_ratio", &S::low_ratio);
  v("high_ratio", &S::high_ratio);
  v("warmup_epochs", &S::warmup_epochs);
  v("confirm_epochs", &S::confirm_epochs);
}

template <typename V>
void fields(V& v, std::type_identity<ResponseSpec>) {
  using S = ResponseSpec;
  v("kind", &S::kind);
  v("trigger", &S::trigger);
  v("sanction_epochs", &S::sanction_epochs);
  v("recovery_threshold", &S::recovery_threshold);
}

template <typename V>
void fields(V& v, std::type_identity<BandSpec>) {
  v("low", &BandSpec::low, kRequired);
  v("high", &BandSpec::high, kRequired);
}

template <typename V>
void fields(V& v, std::type_identity<ClusterSpec>) {
  v("at", &ClusterSpec::at, kRequired);
  v("hts", &ClusterSpec::hts);
}

template <typename V>
void fields(V& v, std::type_identity<RocSpec>) {
  using S = RocSpec;
  v("periods", &S::periods);
  v("factors", &S::factors);
  v("placements", &S::placements);
  v("epoch0_first_epoch_cycle", &S::epoch0_first_epoch_cycle);
}

template <typename V>
void fields(V& v, std::type_identity<InfectionArm>) {
  v("nodes", &InfectionArm::nodes, kRequired);
  v("ht_counts", &InfectionArm::ht_counts, kRequired);
}

template <typename V>
void fields(V& v, std::type_identity<AxesSpec>) {
  using S = AxesSpec;
  v("arms", &S::arms);
  v("gm_placements", &S::gm_placements);
  v("sizes", &S::sizes);
  v("ht_divisors", &S::ht_divisors);
  v("seeds", &S::seeds);
  v("infection_targets", &S::infection_targets);
  v("placement_max_hts", &S::placement_max_hts);
  v("nodes", &S::nodes);
  v("max_hts", &S::max_hts);
  v("train_samples", &S::train_samples);
  v("random_trials", &S::random_trials);
  v("candidates_per_m", &S::candidates_per_m);
  v("shortlist", &S::shortlist);
  v("bands", &S::bands);
  v("placements", &S::placements);
  v("cluster_hts", &S::cluster_hts);
  v("detection_measure_epochs", &S::detection_measure_epochs);
  v("roc", &S::roc);
  v("responses", &S::responses);
  v("flood_sources", &S::flood_sources);
  v("flood_rate", &S::flood_rate);
  v("toggle_periods", &S::toggle_periods);
  v("duty_warmup_epochs", &S::duty_warmup_epochs);
  v("duty_measure_epochs", &S::duty_measure_epochs);
  v("budgeters", &S::budgeters);
  v("ht_counts", &S::ht_counts);
}

template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

template <typename T>
inline constexpr bool kIsOptional = false;
template <typename T>
inline constexpr bool kIsOptional<std::optional<T>> = true;

/// Section structs: everything that is not a scalar, string or container.
template <typename T>
inline constexpr bool kIsSection = std::is_class_v<T> &&
                                   !std::is_same_v<T, std::string> &&
                                   !kIsVector<T> && !kIsOptional<T>;

// ----------------------------------------------------------------- writer
//
// Members are sparse: a value is emitted only when it differs from the
// default-constructed struct's, so an engaged optional always appears
// (even as {}) while empty arrays and all-default nested sections vanish.
// Array entries are dense: every key of every element is written.

template <typename S>
json::Object write_object(const S& s, bool dense);

template <typename T>
json::Value write_value(const T& v, const char* key) {
  if constexpr (kIsOptional<T>) {
    return write_value(*v, key);
  } else if constexpr (kIsVector<T>) {
    json::Array out;
    out.reserve(v.size());
    for (const auto& e : v) {
      if constexpr (kIsSection<typename T::value_type>) {
        out.emplace_back(write_object(e, /*dense=*/true));
      } else {
        out.push_back(write_value(e, key));
      }
    }
    return json::Value(std::move(out));
  } else if constexpr (kIsSection<T>) {
    return json::Value(write_object(v, /*dense=*/false));
  } else if constexpr (std::is_enum_v<T>) {
    return json::Value(to_string(v));
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    if (!std::in_range<std::int64_t>(v)) {
      throw std::invalid_argument(std::string(key) + " = " +
                                  std::to_string(v) +
                                  " does not fit the JSON int64 range");
    }
    return json::Value(static_cast<long long>(v));
  } else {
    return json::Value(v);  // bool, double, string
  }
}

template <typename T>
void put_sparse(json::Object& o, const char* key, const T& value,
                const T& fallback) {
  if (!(value == fallback)) o[key] = write_value(value, key);
}

template <typename S>
struct Writer {
  const S& s;
  const S& defaults;
  json::Object& out;
  bool dense = false;

  template <typename T>
  void operator()(const char* key, T S::*member, bool /*required*/ = false) {
    if (dense) {
      out[key] = write_value(s.*member, key);
    } else {
      put_sparse(out, key, s.*member, defaults.*member);
    }
  }
};

template <typename S>
json::Object write_object(const S& s, bool dense) {
  const S defaults;
  json::Object out;
  Writer<S> w{s, defaults, out, dense};
  fields(w, std::type_identity<S>{});
  return out;
}

// ----------------------------------------------------------------- reader
//
// Strict: every object goes through json::ObjectReader, so unknown keys
// fail at finish() with the object's path. Integers are range-checked
// against the member's type here, and nowhere else.

/// Where a value sits ("scenario.axes.bands[]"), rendered only when an
/// error or a nested object's reader needs the text.
struct Where {
  const std::string& path;  ///< the enclosing object's path
  const char* key = "";
  bool element = false;     ///< an entry of the array at `key`

  [[nodiscard]] std::string str() const {
    return path + "." + key + (element ? "[]" : "");
  }
};

void read_enum(std::string_view s, system::GmPlacement& out) {
  out = gm_placement_from_string(s);
}
void read_enum(std::string_view s, power::BudgeterKind& out) {
  out = budgeter_kind_from_string(s);
}
void read_enum(std::string_view s, power::DetectorKind& out) {
  out = detector_kind_from_string(s);
}
void read_enum(std::string_view s, power::ResponseKind& out) {
  out = power::response_kind_from_string(s);
}
void read_enum(std::string_view s, power::ResponseTrigger& out) {
  out = power::response_trigger_from_string(s);
}
void read_enum(std::string_view s, ClusterSpec::At& out) {
  out = cluster_at_from_string(s);
}

template <typename S>
S read_object(const json::Value& v, const std::string& path);

template <typename T>
void read_value(const json::Value& v, T& out, const Where& at) {
  if constexpr (kIsOptional<T>) {
    read_value(v, out.emplace(), at);
  } else if constexpr (kIsVector<T>) {
    using E = typename T::value_type;
    const Where entry{at.path, at.key, true};
    out.clear();
    for (const json::Value& e : v.as_array()) {
      if constexpr (kIsSection<E>) {
        out.push_back(read_object<E>(e, entry.str()));
      } else {
        read_value(e, out.emplace_back(), entry);
      }
    }
  } else if constexpr (kIsSection<T>) {
    out = read_object<T>(v, at.str());
  } else if constexpr (std::is_enum_v<T>) {
    read_enum(v.as_string(), out);
  } else if constexpr (std::is_same_v<T, bool>) {
    out = v.as_bool();
  } else if constexpr (std::is_integral_v<T>) {
    const std::int64_t raw = v.as_int();
    if (!std::in_range<T>(raw)) {
      throw std::out_of_range(
          at.str() + ": " + std::to_string(raw) + " is outside [" +
          std::to_string(std::numeric_limits<T>::min()) + ", " +
          std::to_string(std::numeric_limits<T>::max()) + "]");
    }
    out = static_cast<T>(raw);
  } else if constexpr (std::is_same_v<T, double>) {
    out = v.as_double();
  } else {
    out = v.as_string();
  }
}

/// Reads `key` into `out` when present; absent keys keep `out` as is.
template <typename T>
void read_member(json::ObjectReader& r, const char* key, T& out,
                 bool required = false) {
  const json::Value* v = required ? &r.require(key) : r.optional(key);
  if (v != nullptr) read_value(*v, out, Where{r.path(), key, false});
}

template <typename S>
struct Reader {
  S& s;
  json::ObjectReader& r;

  template <typename T>
  void operator()(const char* key, T S::*member, bool required = false) {
    read_member(r, key, s.*member, required);
  }
};

template <typename S>
S read_object(const json::Value& v, const std::string& path) {
  S s;
  json::ObjectReader r(v.as_object(), path);
  Reader<S> reader{s, r};
  fields(reader, std::type_identity<S>{});
  r.finish();
  return s;
}

}  // namespace

// ------------------------------------------------------ to_json/from_json

json::Value ScenarioSpec::to_json() const {
  const ScenarioSpec d;
  json::Object o;
  o["schema_version"] = json::Value(static_cast<long long>(schema_version));
  o["name"] = json::Value(name);
  o["kind"] = json::Value(to_string(kind));
  put_sparse(o, "title", title, d.title);
  put_sparse(o, "paper_ref", paper_ref, d.paper_ref);
  put_sparse(o, "expectation", expectation, d.expectation);
  put_sparse(o, "system", system, d.system);
  put_sparse(o, "workload", workload, d.workload);
  put_sparse(o, "trojan", trojan, d.trojan);
  put_sparse(o, "epochs", epochs, d.epochs);
  put_sparse(o, "detector", detector, d.detector);
  put_sparse(o, "response", response, d.response);
  put_sparse(o, "axes", axes, d.axes);
  put_sparse(o, "seed", seed, d.seed);
  put_sparse(o, "threads", threads, d.threads);
  if (!quick.is_null()) o["quick"] = quick;
  return json::Value(std::move(o));
}

ScenarioSpec ScenarioSpec::from_json(const json::Value& v) {
  ScenarioSpec spec;
  json::ObjectReader r(v.as_object(), "scenario");
  spec.schema_version = r.require("schema_version").as_int();
  if (spec.schema_version != kSchemaVersion) {
    r.fail("schema_version " + std::to_string(spec.schema_version) +
           " is not supported (this build reads version " +
           std::to_string(kSchemaVersion) + ")");
  }
  spec.name = r.require("name").as_string();
  spec.kind = scenario_kind_from_string(r.require("kind").as_string());
  read_member(r, "title", spec.title);
  read_member(r, "paper_ref", spec.paper_ref);
  read_member(r, "expectation", spec.expectation);
  read_member(r, "system", spec.system);
  read_member(r, "workload", spec.workload);
  read_member(r, "trojan", spec.trojan);
  read_member(r, "epochs", spec.epochs);
  read_member(r, "detector", spec.detector);
  read_member(r, "response", spec.response);
  read_member(r, "axes", spec.axes);
  read_member(r, "seed", spec.seed);
  read_member(r, "threads", spec.threads);
  if (const json::Value* q = r.optional("quick")) {
    if (!q->is_object()) r.fail("quick must be an object overlay");
    spec.quick = *q;
  }
  r.finish();
  return spec;
}


ScenarioSpec load_spec_file(const std::string& path) {
  // parse_file already prefixes the path on read/parse errors; schema and
  // validation errors speak in terms of "scenario.<field>" and need the
  // file named too.
  const json::Value doc = json::parse_file(path);
  try {
    ScenarioSpec spec = ScenarioSpec::from_json(doc);
    spec.validate();
    return spec;
  } catch (const std::exception& e) {
    throw std::runtime_error("scenario spec " + path + ": " + e.what());
  }
}

// --------------------------------------------------------------- validate

namespace {

[[noreturn]] void invalid(const std::string& name, const std::string& what) {
  throw std::invalid_argument("scenario \"" + name + "\": " + what);
}

void check_mix_name(const std::string& name, const std::string& mix) {
  if (mix.empty()) return;  // uniform infection-only workload
  for (const auto& m : workload::standard_mixes()) {
    if (m.name == mix) return;
  }
  invalid(name, "unknown mix \"" + mix + "\"");
}

void check_mixes(const std::string& name,
                 const std::vector<std::string>& mixes) {
  if (mixes.empty()) invalid(name, "workload.mixes must not be empty");
  for (const auto& m : mixes) {
    if (m.empty()) invalid(name, "workload.mixes entries must be named");
    check_mix_name(name, m);
  }
}

}  // namespace

void ScenarioSpec::validate() const {
  if (name.empty()) invalid("(unnamed)", "name must not be empty");
  if (schema_version != kSchemaVersion) {
    invalid(name, "unsupported schema_version");
  }
  // SystemConfig::validate enforces the same cap; checked here first so
  // the error names the spec fields.
  const long long nodes = static_cast<long long>(system.width) * system.height;
  if (nodes > system::SystemConfig::kMaxNodes) {
    invalid(name, "scenario.system.width x scenario.system.height = " +
                      std::to_string(nodes) + " nodes, above the " +
                      std::to_string(system::SystemConfig::kMaxNodes) +
                      "-node cap of 16-bit packet node ids");
  }
  // The chip must build (mesh shape, GM bounds) for every simulating kind.
  system.to_system_config().validate();
  // Cycle is unsigned, so the reader already refused a negative
  // first_epoch_cycle; a zero-length epoch would never reach a boundary.
  if (system.epoch_cycles < 1) {
    invalid(name, "system.epoch_cycles must be >= 1");
  }
  check_mix_name(name, workload.mix);
  if (trojan.victim_scale <= 0.0 || trojan.victim_scale > 1.0) {
    invalid(name, "trojan.victim_scale must be in (0, 1]");
  }
  if (trojan.attacker_boost < 1.0) {
    invalid(name, "trojan.attacker_boost must be >= 1");
  }
  if (trojan.toggle_period_epochs < 0) {
    invalid(name, "trojan.toggle_period_epochs must be >= 0");
  }
  {
    // Ranges are checked even when disabled: kDefenseClosedLoop carries
    // the parameters with enabled=false and flips the switch per arm.
    const AdaptationSpec& a = trojan.adaptation;
    if (a.enabled && trojan.toggle_period_epochs > 0) {
      invalid(name,
              "trojan.adaptation and trojan.toggle_period_epochs are rival "
              "duty-cycle controllers; enable one");
    }
    if (a.alpha <= 0.0 || a.alpha > 1.0) {
      invalid(name, "trojan.adaptation.alpha must be in (0, 1]");
    }
    if (a.backoff_ratio <= 0.0 || a.backoff_ratio >= 1.0) {
      invalid(name, "trojan.adaptation.backoff_ratio must be in (0, 1)");
    }
    if (a.max_on_epochs < 1 || a.hold_off_epochs < 1) {
      invalid(name,
              "trojan.adaptation.max_on_epochs and hold_off_epochs must "
              "be >= 1");
    }
  }
  if (response.has_value()) {
    if (!detector.has_value()) {
      invalid(name, "response requires a detector to act on");
    }
    if (response->sanction_epochs < 1) {
      invalid(name, "response.sanction_epochs must be >= 1");
    }
    if (response->recovery_threshold <= 0.0 ||
        response->recovery_threshold > 2.0) {
      invalid(name, "response.recovery_threshold must be in (0, 2]");
    }
  }
  if (epochs.warmup < 0 || epochs.measure < 1) {
    invalid(name, "epochs.warmup must be >= 0 and epochs.measure >= 1");
  }
  if (threads < 0) invalid(name, "threads must be >= 0");

  const auto require_bands = [&] {
    if (axes.bands.empty()) invalid(name, "axes.bands must not be empty");
    for (const BandSpec& b : axes.bands) {
      if (b.low <= 0.0 || b.high <= b.low) {
        invalid(name, "axes.bands entries need 0 < low < high");
      }
    }
  };
  const auto require_placements = [&] {
    if (axes.placements.empty()) {
      invalid(name, "axes.placements must not be empty");
    }
    for (const ClusterSpec& c : axes.placements) {
      if (c.hts < 1) invalid(name, "axes.placements hts must be >= 1");
    }
  };

  switch (kind) {
    case ScenarioKind::kInfectionVsHtCount:
      if (axes.arms.empty()) invalid(name, "axes.arms must not be empty");
      for (const InfectionArm& arm : axes.arms) {
        (void)mesh_for_size(arm.nodes);
        if (arm.ht_counts.empty()) {
          invalid(name, "axes.arms ht_counts must not be empty");
        }
      }
      if (axes.gm_placements.empty()) {
        invalid(name, "axes.gm_placements must not be empty");
      }
      if (axes.seeds < 1) invalid(name, "axes.seeds must be >= 1");
      break;
    case ScenarioKind::kInfectionVsDistribution:
      if (axes.sizes.empty()) invalid(name, "axes.sizes must not be empty");
      for (const int size : axes.sizes) (void)mesh_for_size(size);
      if (axes.ht_divisors.empty()) {
        invalid(name, "axes.ht_divisors must not be empty");
      }
      for (const int d : axes.ht_divisors) {
        if (d < 1) invalid(name, "axes.ht_divisors must be >= 1");
      }
      if (axes.seeds < 1) invalid(name, "axes.seeds must be >= 1");
      break;
    case ScenarioKind::kAttackEffect:
    case ScenarioKind::kPerformanceChange:
      check_mixes(name, workload.mixes);
      if (axes.infection_targets.empty()) {
        invalid(name, "axes.infection_targets must not be empty");
      }
      for (const double t : axes.infection_targets) {
        if (t <= 0.0 || t > 1.0) {
          invalid(name, "axes.infection_targets must be in (0, 1]");
        }
      }
      if (axes.placement_max_hts < 1) {
        invalid(name, "axes.placement_max_hts must be >= 1");
      }
      break;
    case ScenarioKind::kPlacementStudy:
      check_mixes(name, workload.mixes);
      (void)mesh_for_size(axes.nodes);
      if (axes.max_hts < 1) invalid(name, "axes.max_hts must be >= 1");
      if (axes.train_samples < 2) {
        invalid(name, "axes.train_samples must be >= 2 (model fit)");
      }
      if (axes.random_trials < 1) {
        invalid(name, "axes.random_trials must be >= 1");
      }
      if (axes.shortlist < 1 || axes.candidates_per_m < axes.shortlist) {
        invalid(name, "need candidates_per_m >= shortlist >= 1");
      }
      break;
    case ScenarioKind::kDefenseSweep:
      require_bands();
      require_placements();
      // The sweep's curve rides on trace replays of passive detectors; a
      // response would perturb the dynamics it replays.
      if (response.has_value() || !axes.responses.empty()) {
        invalid(name,
                "defense_sweep takes no response section or axes.responses "
                "(run responses through defense_closed_loop)");
      }
      if (axes.roc.enabled()) {
        if (axes.roc.placements >
            static_cast<int>(axes.placements.size())) {
          invalid(name, "axes.roc.placements exceeds axes.placements");
        }
        for (const double f : axes.roc.factors) {
          if (f <= 0.0 || f > 1.0) {
            invalid(name, "axes.roc.factors must be in (0, 1]");
          }
        }
        for (const int p : axes.roc.periods) {
          if (p < 0) invalid(name, "axes.roc.periods must be >= 0");
        }
      }
      break;
    case ScenarioKind::kDefenseEvaluation:
      check_mixes(name, workload.mixes);
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      if (axes.detection_measure_epochs < 1) {
        invalid(name, "axes.detection_measure_epochs must be >= 1");
      }
      break;
    case ScenarioKind::kAttackComparison: {
      if (workload.mix.empty()) invalid(name, "workload.mix must be set");
      if (axes.flood_sources.empty()) {
        invalid(name, "axes.flood_sources must not be empty");
      }
      const auto node_count =
          static_cast<NodeId>(system.width * system.height);
      for (const NodeId src : axes.flood_sources) {
        if (src >= node_count) {
          invalid(name, "axes.flood_sources outside the mesh");
        }
      }
      if (axes.flood_rate <= 0.0) {
        invalid(name, "axes.flood_rate must be > 0");
      }
      if (axes.toggle_periods.empty()) {
        invalid(name, "axes.toggle_periods must not be empty");
      }
      if (axes.duty_warmup_epochs < 0 || axes.duty_measure_epochs < 1) {
        invalid(name, "duty epochs need warmup >= 0 and measure >= 1");
      }
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      break;
    }
    case ScenarioKind::kBudgeterAblation:
      if (workload.mix.empty()) invalid(name, "workload.mix must be set");
      if (axes.budgeters.empty()) {
        invalid(name, "axes.budgeters must not be empty");
      }
      if (axes.cluster_hts < 1) invalid(name, "axes.cluster_hts must be >= 1");
      break;
    case ScenarioKind::kConfigReport:
      break;
    case ScenarioKind::kBenchmarkReport:
      (void)mesh_for_size(axes.nodes);
      break;
    case ScenarioKind::kAreaPowerReport:
      if (axes.ht_counts.empty()) {
        invalid(name, "axes.ht_counts must not be empty");
      }
      if (axes.nodes < 1) invalid(name, "axes.nodes must be >= 1");
      break;
    case ScenarioKind::kDefenseClosedLoop:
      require_placements();
      if (!detector.has_value()) {
        invalid(name, "detector must be set (responses need verdicts)");
      }
      if (!response.has_value()) {
        invalid(name,
                "response must be set (trigger / sanction parameters; "
                "axes.responses supplies the policy axis)");
      }
      if (axes.responses.empty()) {
        invalid(name, "axes.responses must not be empty");
      }
      if (trojan.toggle_period_epochs < 1) {
        invalid(name,
                "trojan.toggle_period_epochs must be >= 1 (the static "
                "duty-cycled arm)");
      }
      break;
  }
}

// ----------------------------------------------------------- quick / set

json::Value merge_patch(const json::Value& base, const json::Value& patch) {
  if (!base.is_object() || !patch.is_object()) return patch;
  json::Value merged = base;
  json::Object& out = merged.as_object();
  for (const auto& [key, value] : patch.as_object()) {
    if (const json::Value* existing = out.find(key)) {
      out[key] = merge_patch(*existing, value);
    } else {
      out[key] = value;
    }
  }
  return merged;
}

ScenarioSpec ScenarioSpec::with_quick() const {
  if (quick.is_null()) return *this;
  ScenarioSpec stripped = *this;
  stripped.quick = json::Value();
  const json::Value merged = merge_patch(stripped.to_json(), quick);
  ScenarioSpec out = from_json(merged);
  out.validate();
  return out;
}

void apply_override(json::Value& spec_json, std::string_view dotted_key,
                    std::string_view value_text) {
  json::Value parsed;
  try {
    parsed = json::parse(value_text);
  } catch (const std::exception&) {
    parsed = json::Value(value_text);  // bare strings need no quotes
  }

  json::Value* node = &spec_json;
  std::string_view rest = dotted_key;
  for (;;) {
    const std::size_t dot = rest.find('.');
    const std::string_view head = rest.substr(0, dot);
    if (head.empty()) {
      throw std::runtime_error("--set: empty path segment in \"" +
                               std::string(dotted_key) + "\"");
    }
    if (!node->is_object()) {
      throw std::runtime_error("--set: \"" + std::string(dotted_key) +
                               "\" crosses a non-object value");
    }
    json::Object& o = node->as_object();
    if (dot == std::string_view::npos) {
      o[head] = std::move(parsed);
      return;
    }
    node = &o[head];  // creates a null member, promoted to object below
    if (node->is_null()) *node = json::Value(json::Object{});
    rest = rest.substr(dot + 1);
  }
}

ScenarioSpec apply_overrides(ScenarioSpec spec, bool quick,
                             const std::vector<std::string>& sets) {
  if (sets.empty()) return spec;
  if (quick) spec = spec.with_quick();
  json::Value spec_json = spec.to_json();
  for (const std::string& kv : sets) {
    const std::size_t eq = kv.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw OverrideError("--set expects key=value, got \"" + kv + "\"");
    }
    apply_override(spec_json, std::string_view(kv).substr(0, eq),
                   std::string_view(kv).substr(eq + 1));
  }
  try {
    spec = ScenarioSpec::from_json(spec_json);
  } catch (const std::out_of_range& e) {
    // Like a --seed that is not a non-negative integer: a --set integer
    // its field cannot hold is a malformed argument.
    throw OverrideError(std::string("--set: ") + e.what());
  }
  spec.validate();
  return spec;
}

}  // namespace htpb::scenario
