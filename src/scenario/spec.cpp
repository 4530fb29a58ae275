#include "scenario/spec.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

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

// ---------------------------------------------------------- to_json

namespace {

/// Sparse emission: a member is written only when it differs from the
/// default-constructed value, so spec files stay small and readable while
/// from_json's defaults make the round trip exact.
template <typename T>
void put_if(json::Object& o, const char* key, const T& value,
            const T& fallback) {
  if (value == fallback) return;
  if constexpr (std::is_same_v<T, double>) {
    o[key] = json::Value(value);
  } else if constexpr (std::is_integral_v<T> && !std::is_same_v<T, bool>) {
    o[key] = json::Value(static_cast<long long>(value));
  } else {
    o[key] = json::Value(value);
  }
}

json::Value checked_seed(std::uint64_t seed, const char* what) {
  if (seed > static_cast<std::uint64_t>(
                 std::numeric_limits<std::int64_t>::max())) {
    throw std::invalid_argument(std::string(what) +
                                " does not fit the JSON int64 range");
  }
  return json::Value(static_cast<long long>(seed));
}

std::uint64_t read_seed(json::ObjectReader& r, const char* key,
                        std::uint64_t fallback) {
  const json::Value* v = r.optional(key);
  if (v == nullptr) return fallback;
  const std::int64_t raw = v->as_int();
  if (raw < 0) r.fail(std::string(key) + " must be >= 0");
  return static_cast<std::uint64_t>(raw);
}

template <typename T, typename Fn>
json::Array array_of(const std::vector<T>& items, Fn&& to_value) {
  json::Array out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(to_value(item));
  return out;
}

json::Value system_to_json(const SystemSpec& s) {
  const SystemSpec d;
  json::Object o;
  put_if(o, "width", s.width, d.width);
  put_if(o, "height", s.height, d.height);
  put_if(o, "epoch_cycles", s.epoch_cycles, d.epoch_cycles);
  put_if(o, "first_epoch_cycle", s.first_epoch_cycle, d.first_epoch_cycle);
  put_if(o, "budget_fraction", s.budget_fraction, d.budget_fraction);
  if (s.budgeter != d.budgeter) o["budgeter"] = power::to_string(s.budgeter);
  put_if(o, "guard_requests", s.guard_requests, d.guard_requests);
  if (s.gm_placement != d.gm_placement) {
    o["gm_placement"] = to_string(s.gm_placement);
  }
  if (s.gm_node.has_value()) {
    o["gm_node"] = json::Value(static_cast<long long>(*s.gm_node));
  }
  if (s.seed != d.seed) o["seed"] = checked_seed(s.seed, "system.seed");
  return json::Value(std::move(o));
}

json::Value workload_to_json(const WorkloadSpec& w) {
  const WorkloadSpec d;
  json::Object o;
  put_if(o, "mix", w.mix, d.mix);
  if (!w.mixes.empty()) {
    o["mixes"] = array_of(w.mixes,
                          [](const std::string& m) { return json::Value(m); });
  }
  put_if(o, "threads_per_app", w.threads_per_app, d.threads_per_app);
  return json::Value(std::move(o));
}

json::Value adaptation_to_json(const AdaptationSpec& a) {
  const AdaptationSpec d;
  json::Object o;
  put_if(o, "enabled", a.enabled, d.enabled);
  put_if(o, "alpha", a.alpha, d.alpha);
  put_if(o, "backoff_ratio", a.backoff_ratio, d.backoff_ratio);
  put_if(o, "max_on_epochs", a.max_on_epochs, d.max_on_epochs);
  put_if(o, "hold_off_epochs", a.hold_off_epochs, d.hold_off_epochs);
  return json::Value(std::move(o));
}

json::Value trojan_to_json(const TrojanSpec& t) {
  const TrojanSpec d;
  json::Object o;
  put_if(o, "active", t.active, d.active);
  put_if(o, "attenuate_victims", t.attenuate_victims, d.attenuate_victims);
  put_if(o, "boost_attackers", t.boost_attackers, d.boost_attackers);
  put_if(o, "victim_scale", t.victim_scale, d.victim_scale);
  put_if(o, "attacker_boost", t.attacker_boost, d.attacker_boost);
  put_if(o, "toggle_period_epochs", t.toggle_period_epochs,
         d.toggle_period_epochs);
  if (!(t.adaptation == d.adaptation)) {
    o["adaptation"] = adaptation_to_json(t.adaptation);
  }
  return json::Value(std::move(o));
}

json::Value epochs_to_json(const EpochSpec& e) {
  const EpochSpec d;
  json::Object o;
  put_if(o, "warmup", e.warmup, d.warmup);
  put_if(o, "measure", e.measure, d.measure);
  return json::Value(std::move(o));
}

json::Value detector_to_json(const DetectorSpec& s) {
  const DetectorSpec d;
  json::Object o;
  if (s.kind != d.kind) o["kind"] = to_string(s.kind);
  put_if(o, "history_alpha", s.history_alpha, d.history_alpha);
  put_if(o, "low_ratio", s.low_ratio, d.low_ratio);
  put_if(o, "high_ratio", s.high_ratio, d.high_ratio);
  put_if(o, "warmup_epochs", s.warmup_epochs, d.warmup_epochs);
  put_if(o, "confirm_epochs", s.confirm_epochs, d.confirm_epochs);
  return json::Value(std::move(o));
}

json::Value response_to_json(const ResponseSpec& s) {
  const ResponseSpec d;
  json::Object o;
  if (s.kind != d.kind) o["kind"] = power::to_string(s.kind);
  if (s.trigger != d.trigger) o["trigger"] = power::to_string(s.trigger);
  put_if(o, "sanction_epochs", s.sanction_epochs, d.sanction_epochs);
  put_if(o, "recovery_threshold", s.recovery_threshold, d.recovery_threshold);
  return json::Value(std::move(o));
}

json::Value band_to_json(const BandSpec& b) {
  json::Object o;
  o["low"] = json::Value(b.low);
  o["high"] = json::Value(b.high);
  return json::Value(std::move(o));
}

json::Value cluster_to_json(const ClusterSpec& c) {
  json::Object o;
  o["at"] = to_string(c.at);
  o["hts"] = json::Value(static_cast<long long>(c.hts));
  return json::Value(std::move(o));
}

json::Value roc_to_json(const RocSpec& r) {
  const RocSpec d;
  json::Object o;
  if (!r.periods.empty()) {
    o["periods"] = array_of(r.periods, [](int p) { return json::Value(p); });
  }
  if (!r.factors.empty()) {
    o["factors"] =
        array_of(r.factors, [](double f) { return json::Value(f); });
  }
  put_if(o, "placements", r.placements, d.placements);
  put_if(o, "epoch0_first_epoch_cycle", r.epoch0_first_epoch_cycle,
         d.epoch0_first_epoch_cycle);
  return json::Value(std::move(o));
}

json::Value axes_to_json(const AxesSpec& a) {
  const AxesSpec d;
  json::Object o;
  if (!a.arms.empty()) {
    o["arms"] = array_of(a.arms, [](const InfectionArm& arm) {
      json::Object ao;
      ao["nodes"] = json::Value(static_cast<long long>(arm.nodes));
      ao["ht_counts"] =
          array_of(arm.ht_counts, [](int n) { return json::Value(n); });
      return json::Value(std::move(ao));
    });
  }
  if (!a.gm_placements.empty()) {
    o["gm_placements"] = array_of(a.gm_placements, [](system::GmPlacement p) {
      return json::Value(to_string(p));
    });
  }
  if (!a.sizes.empty()) {
    o["sizes"] = array_of(a.sizes, [](int n) { return json::Value(n); });
  }
  if (!a.ht_divisors.empty()) {
    o["ht_divisors"] =
        array_of(a.ht_divisors, [](int n) { return json::Value(n); });
  }
  put_if(o, "seeds", a.seeds, d.seeds);
  if (!a.infection_targets.empty()) {
    o["infection_targets"] =
        array_of(a.infection_targets, [](double t) { return json::Value(t); });
  }
  put_if(o, "placement_max_hts", a.placement_max_hts, d.placement_max_hts);
  put_if(o, "nodes", a.nodes, d.nodes);
  put_if(o, "max_hts", a.max_hts, d.max_hts);
  put_if(o, "train_samples", a.train_samples, d.train_samples);
  put_if(o, "random_trials", a.random_trials, d.random_trials);
  put_if(o, "candidates_per_m", a.candidates_per_m, d.candidates_per_m);
  put_if(o, "shortlist", a.shortlist, d.shortlist);
  if (!a.bands.empty()) o["bands"] = array_of(a.bands, band_to_json);
  if (!a.placements.empty()) {
    o["placements"] = array_of(a.placements, cluster_to_json);
  }
  put_if(o, "cluster_hts", a.cluster_hts, d.cluster_hts);
  put_if(o, "detection_measure_epochs", a.detection_measure_epochs,
         d.detection_measure_epochs);
  if (!(a.roc == d.roc)) o["roc"] = roc_to_json(a.roc);
  if (!a.responses.empty()) {
    o["responses"] = array_of(a.responses, [](power::ResponseKind k) {
      return json::Value(power::to_string(k));
    });
  }
  if (!a.flood_sources.empty()) {
    o["flood_sources"] = array_of(a.flood_sources, [](NodeId n) {
      return json::Value(static_cast<long long>(n));
    });
  }
  put_if(o, "flood_rate", a.flood_rate, d.flood_rate);
  if (!a.toggle_periods.empty()) {
    o["toggle_periods"] =
        array_of(a.toggle_periods, [](int p) { return json::Value(p); });
  }
  put_if(o, "duty_warmup_epochs", a.duty_warmup_epochs, d.duty_warmup_epochs);
  put_if(o, "duty_measure_epochs", a.duty_measure_epochs,
         d.duty_measure_epochs);
  if (!a.budgeters.empty()) {
    o["budgeters"] = array_of(a.budgeters, [](power::BudgeterKind k) {
      return json::Value(power::to_string(k));
    });
  }
  if (!a.ht_counts.empty()) {
    o["ht_counts"] =
        array_of(a.ht_counts, [](int n) { return json::Value(n); });
  }
  return json::Value(std::move(o));
}

}  // namespace

json::Value ScenarioSpec::to_json() const {
  json::Object o;
  o["schema_version"] = json::Value(static_cast<long long>(schema_version));
  o["name"] = json::Value(name);
  o["kind"] = json::Value(to_string(kind));
  if (!title.empty()) o["title"] = json::Value(title);
  if (!paper_ref.empty()) o["paper_ref"] = json::Value(paper_ref);
  if (!expectation.empty()) o["expectation"] = json::Value(expectation);

  if (json::Value sys = system_to_json(system); !sys.as_object().empty()) {
    o["system"] = std::move(sys);
  }
  if (json::Value w = workload_to_json(workload); !w.as_object().empty()) {
    o["workload"] = std::move(w);
  }
  if (json::Value t = trojan_to_json(trojan); !t.as_object().empty()) {
    o["trojan"] = std::move(t);
  }
  if (json::Value e = epochs_to_json(epochs); !e.as_object().empty()) {
    o["epochs"] = std::move(e);
  }
  if (detector.has_value()) o["detector"] = detector_to_json(*detector);
  if (response.has_value()) o["response"] = response_to_json(*response);
  if (json::Value a = axes_to_json(axes); !a.as_object().empty()) {
    o["axes"] = std::move(a);
  }
  if (seed != 1) o["seed"] = checked_seed(seed, "seed");
  if (threads != 0) o["threads"] = json::Value(threads);
  if (!quick.is_null()) o["quick"] = quick;
  return json::Value(std::move(o));
}

// -------------------------------------------------------------- from_json

namespace {

int read_int(const json::Value& v) { return static_cast<int>(v.as_int()); }

template <typename Fn>
auto read_array(const json::Value& v, Fn&& item) {
  using R = decltype(item(v));
  std::vector<R> out;
  for (const json::Value& e : v.as_array()) out.push_back(item(e));
  return out;
}

SystemSpec system_from_json(const json::Value& v, const std::string& path) {
  SystemSpec s;
  json::ObjectReader r(v.as_object(), path);
  s.width = static_cast<int>(r.get_int("width", s.width));
  s.height = static_cast<int>(r.get_int("height", s.height));
  s.epoch_cycles = static_cast<Cycle>(
      r.get_int("epoch_cycles", static_cast<std::int64_t>(s.epoch_cycles)));
  s.first_epoch_cycle = static_cast<Cycle>(r.get_int(
      "first_epoch_cycle", static_cast<std::int64_t>(s.first_epoch_cycle)));
  s.budget_fraction = r.get_double("budget_fraction", s.budget_fraction);
  if (const json::Value* b = r.optional("budgeter")) {
    s.budgeter = budgeter_kind_from_string(b->as_string());
  }
  s.guard_requests = r.get_bool("guard_requests", s.guard_requests);
  if (const json::Value* g = r.optional("gm_placement")) {
    s.gm_placement = gm_placement_from_string(g->as_string());
  }
  if (const json::Value* g = r.optional("gm_node")) {
    s.gm_node = static_cast<NodeId>(g->as_int());
  }
  s.seed = read_seed(r, "seed", s.seed);
  r.finish();
  return s;
}

WorkloadSpec workload_from_json(const json::Value& v,
                                const std::string& path) {
  WorkloadSpec w;
  json::ObjectReader r(v.as_object(), path);
  w.mix = r.get_string("mix", w.mix);
  if (const json::Value* m = r.optional("mixes")) {
    w.mixes =
        read_array(*m, [](const json::Value& e) { return e.as_string(); });
  }
  w.threads_per_app =
      static_cast<int>(r.get_int("threads_per_app", w.threads_per_app));
  r.finish();
  return w;
}

AdaptationSpec adaptation_from_json(const json::Value& v,
                                    const std::string& path) {
  AdaptationSpec a;
  json::ObjectReader r(v.as_object(), path);
  a.enabled = r.get_bool("enabled", a.enabled);
  a.alpha = r.get_double("alpha", a.alpha);
  a.backoff_ratio = r.get_double("backoff_ratio", a.backoff_ratio);
  a.max_on_epochs =
      static_cast<int>(r.get_int("max_on_epochs", a.max_on_epochs));
  a.hold_off_epochs =
      static_cast<int>(r.get_int("hold_off_epochs", a.hold_off_epochs));
  r.finish();
  return a;
}

TrojanSpec trojan_from_json(const json::Value& v, const std::string& path) {
  TrojanSpec t;
  json::ObjectReader r(v.as_object(), path);
  t.active = r.get_bool("active", t.active);
  t.attenuate_victims = r.get_bool("attenuate_victims", t.attenuate_victims);
  t.boost_attackers = r.get_bool("boost_attackers", t.boost_attackers);
  t.victim_scale = r.get_double("victim_scale", t.victim_scale);
  t.attacker_boost = r.get_double("attacker_boost", t.attacker_boost);
  t.toggle_period_epochs = static_cast<int>(
      r.get_int("toggle_period_epochs", t.toggle_period_epochs));
  if (const json::Value* a = r.optional("adaptation")) {
    t.adaptation = adaptation_from_json(*a, path + ".adaptation");
  }
  r.finish();
  return t;
}

EpochSpec epochs_from_json(const json::Value& v, const std::string& path) {
  EpochSpec e;
  json::ObjectReader r(v.as_object(), path);
  e.warmup = static_cast<int>(r.get_int("warmup", e.warmup));
  e.measure = static_cast<int>(r.get_int("measure", e.measure));
  r.finish();
  return e;
}

DetectorSpec detector_from_json(const json::Value& v,
                                const std::string& path) {
  DetectorSpec s;
  json::ObjectReader r(v.as_object(), path);
  if (const json::Value* k = r.optional("kind")) {
    s.kind = detector_kind_from_string(k->as_string());
  }
  s.history_alpha = r.get_double("history_alpha", s.history_alpha);
  s.low_ratio = r.get_double("low_ratio", s.low_ratio);
  s.high_ratio = r.get_double("high_ratio", s.high_ratio);
  s.warmup_epochs =
      static_cast<int>(r.get_int("warmup_epochs", s.warmup_epochs));
  s.confirm_epochs =
      static_cast<int>(r.get_int("confirm_epochs", s.confirm_epochs));
  r.finish();
  return s;
}

ResponseSpec response_from_json(const json::Value& v,
                                const std::string& path) {
  ResponseSpec s;
  json::ObjectReader r(v.as_object(), path);
  if (const json::Value* k = r.optional("kind")) {
    s.kind = power::response_kind_from_string(k->as_string());
  }
  if (const json::Value* t = r.optional("trigger")) {
    s.trigger = power::response_trigger_from_string(t->as_string());
  }
  s.sanction_epochs =
      static_cast<int>(r.get_int("sanction_epochs", s.sanction_epochs));
  s.recovery_threshold =
      r.get_double("recovery_threshold", s.recovery_threshold);
  r.finish();
  return s;
}

BandSpec band_from_json(const json::Value& v, const std::string& path) {
  BandSpec b;
  json::ObjectReader r(v.as_object(), path);
  b.low = r.require("low").as_double();
  b.high = r.require("high").as_double();
  r.finish();
  return b;
}

ClusterSpec cluster_from_json(const json::Value& v, const std::string& path) {
  ClusterSpec c;
  json::ObjectReader r(v.as_object(), path);
  c.at = cluster_at_from_string(r.require("at").as_string());
  c.hts = static_cast<int>(r.get_int("hts", c.hts));
  r.finish();
  return c;
}

RocSpec roc_from_json(const json::Value& v, const std::string& path) {
  RocSpec roc;
  json::ObjectReader r(v.as_object(), path);
  if (const json::Value* p = r.optional("periods")) {
    roc.periods = read_array(*p, read_int);
  }
  if (const json::Value* f = r.optional("factors")) {
    roc.factors =
        read_array(*f, [](const json::Value& e) { return e.as_double(); });
  }
  roc.placements = static_cast<int>(r.get_int("placements", roc.placements));
  roc.epoch0_first_epoch_cycle = static_cast<Cycle>(
      r.get_int("epoch0_first_epoch_cycle",
                static_cast<std::int64_t>(roc.epoch0_first_epoch_cycle)));
  r.finish();
  return roc;
}

AxesSpec axes_from_json(const json::Value& v, const std::string& path) {
  AxesSpec a;
  json::ObjectReader r(v.as_object(), path);
  if (const json::Value* arms = r.optional("arms")) {
    a.arms = read_array(*arms, [&](const json::Value& e) {
      InfectionArm arm;
      json::ObjectReader ar(e.as_object(), path + ".arms[]");
      arm.nodes = static_cast<int>(ar.require("nodes").as_int());
      arm.ht_counts = read_array(ar.require("ht_counts"), read_int);
      ar.finish();
      return arm;
    });
  }
  if (const json::Value* g = r.optional("gm_placements")) {
    a.gm_placements = read_array(*g, [](const json::Value& e) {
      return gm_placement_from_string(e.as_string());
    });
  }
  if (const json::Value* s = r.optional("sizes")) {
    a.sizes = read_array(*s, read_int);
  }
  if (const json::Value* d = r.optional("ht_divisors")) {
    a.ht_divisors = read_array(*d, read_int);
  }
  a.seeds = static_cast<int>(r.get_int("seeds", a.seeds));
  if (const json::Value* t = r.optional("infection_targets")) {
    a.infection_targets =
        read_array(*t, [](const json::Value& e) { return e.as_double(); });
  }
  a.placement_max_hts =
      static_cast<int>(r.get_int("placement_max_hts", a.placement_max_hts));
  a.nodes = static_cast<int>(r.get_int("nodes", a.nodes));
  a.max_hts = static_cast<int>(r.get_int("max_hts", a.max_hts));
  a.train_samples =
      static_cast<int>(r.get_int("train_samples", a.train_samples));
  a.random_trials =
      static_cast<int>(r.get_int("random_trials", a.random_trials));
  a.candidates_per_m =
      static_cast<int>(r.get_int("candidates_per_m", a.candidates_per_m));
  a.shortlist = static_cast<int>(r.get_int("shortlist", a.shortlist));
  if (const json::Value* b = r.optional("bands")) {
    a.bands = read_array(*b, [&](const json::Value& e) {
      return band_from_json(e, path + ".bands[]");
    });
  }
  if (const json::Value* p = r.optional("placements")) {
    a.placements = read_array(*p, [&](const json::Value& e) {
      return cluster_from_json(e, path + ".placements[]");
    });
  }
  a.cluster_hts = static_cast<int>(r.get_int("cluster_hts", a.cluster_hts));
  a.detection_measure_epochs = static_cast<int>(
      r.get_int("detection_measure_epochs", a.detection_measure_epochs));
  if (const json::Value* roc = r.optional("roc")) {
    a.roc = roc_from_json(*roc, path + ".roc");
  }
  if (const json::Value* resp = r.optional("responses")) {
    a.responses = read_array(*resp, [](const json::Value& e) {
      return power::response_kind_from_string(e.as_string());
    });
  }
  if (const json::Value* f = r.optional("flood_sources")) {
    a.flood_sources = read_array(*f, [](const json::Value& e) {
      return static_cast<NodeId>(e.as_int());
    });
  }
  a.flood_rate = r.get_double("flood_rate", a.flood_rate);
  if (const json::Value* t = r.optional("toggle_periods")) {
    a.toggle_periods = read_array(*t, read_int);
  }
  a.duty_warmup_epochs =
      static_cast<int>(r.get_int("duty_warmup_epochs", a.duty_warmup_epochs));
  a.duty_measure_epochs = static_cast<int>(
      r.get_int("duty_measure_epochs", a.duty_measure_epochs));
  if (const json::Value* b = r.optional("budgeters")) {
    a.budgeters = read_array(*b, [](const json::Value& e) {
      return budgeter_kind_from_string(e.as_string());
    });
  }
  if (const json::Value* h = r.optional("ht_counts")) {
    a.ht_counts = read_array(*h, read_int);
  }
  r.finish();
  return a;
}

}  // namespace

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
  spec.title = r.get_string("title", "");
  spec.paper_ref = r.get_string("paper_ref", "");
  spec.expectation = r.get_string("expectation", "");
  if (const json::Value* s = r.optional("system")) {
    spec.system = system_from_json(*s, "scenario.system");
  }
  if (const json::Value* w = r.optional("workload")) {
    spec.workload = workload_from_json(*w, "scenario.workload");
  }
  if (const json::Value* t = r.optional("trojan")) {
    spec.trojan = trojan_from_json(*t, "scenario.trojan");
  }
  if (const json::Value* e = r.optional("epochs")) {
    spec.epochs = epochs_from_json(*e, "scenario.epochs");
  }
  if (const json::Value* d = r.optional("detector")) {
    spec.detector = detector_from_json(*d, "scenario.detector");
  }
  if (const json::Value* resp = r.optional("response")) {
    spec.response = response_from_json(*resp, "scenario.response");
  }
  if (const json::Value* a = r.optional("axes")) {
    spec.axes = axes_from_json(*a, "scenario.axes");
  }
  spec.seed = read_seed(r, "seed", spec.seed);
  spec.threads = static_cast<int>(r.get_int("threads", spec.threads));
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
  // The chip must build (mesh shape, GM bounds) for every simulating kind.
  system.to_system_config().validate();
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

// ---------------------------------------------------------------- builder

ScenarioBuilder::ScenarioBuilder(std::string name, ScenarioKind kind) {
  spec_.name = std::move(name);
  spec_.kind = kind;
}

ScenarioBuilder& ScenarioBuilder::title(std::string text) {
  spec_.title = std::move(text);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::paper_ref(std::string text) {
  spec_.paper_ref = std::move(text);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::expectation(std::string text) {
  spec_.expectation = std::move(text);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::mesh(int width, int height) {
  spec_.system.width = width;
  spec_.system.height = height;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::size(int nodes) {
  const auto [w, h] = mesh_for_size(nodes);
  return mesh(w, h);
}
ScenarioBuilder& ScenarioBuilder::epoch_cycles(Cycle cycles) {
  spec_.system.epoch_cycles = cycles;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::first_epoch_cycle(Cycle cycle) {
  spec_.system.first_epoch_cycle = cycle;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::budget_fraction(double fraction) {
  spec_.system.budget_fraction = fraction;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::budgeter(power::BudgeterKind kind) {
  spec_.system.budgeter = kind;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::guard_requests(bool on) {
  spec_.system.guard_requests = on;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::gm_placement(system::GmPlacement placement) {
  spec_.system.gm_placement = placement;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::mix(std::string name) {
  spec_.workload.mix = std::move(name);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::standard_mixes() {
  spec_.workload.mixes.clear();
  for (const auto& m : workload::standard_mixes()) {
    spec_.workload.mixes.push_back(m.name);
  }
  return *this;
}
ScenarioBuilder& ScenarioBuilder::threads_per_app(int threads) {
  spec_.workload.threads_per_app = threads;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::trojan_active(bool active) {
  spec_.trojan.active = active;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::victim_scale(double scale) {
  spec_.trojan.victim_scale = scale;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::attacker_boost(double boost) {
  spec_.trojan.attacker_boost = boost;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::toggle_period(int epochs) {
  spec_.trojan.toggle_period_epochs = epochs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::warmup_epochs(int epochs) {
  spec_.epochs.warmup = epochs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::measure_epochs(int epochs) {
  spec_.epochs.measure = epochs;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::detector(DetectorSpec spec) {
  spec_.detector = spec;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::response(ResponseSpec spec) {
  spec_.response = spec;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::adaptation(AdaptationSpec spec) {
  spec_.trojan.adaptation = spec;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t value) {
  spec_.seed = value;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::threads(int count) {
  spec_.threads = count;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::quick(std::string_view overlay_json) {
  spec_.quick = json::parse(overlay_json);
  return *this;
}

ScenarioSpec ScenarioBuilder::build() const {
  spec_.validate();
  // The quick variant must be valid too; surface overlay typos at build
  // (i.e. registry construction) time, not at --quick use time.
  (void)spec_.with_quick();
  return spec_;
}

}  // namespace htpb::scenario
