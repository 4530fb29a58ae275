// The ScenarioSpec serialization contract: exact JSON round trips,
// unknown-key rejection, integer range checks, schema versioning,
// exhaustive enum <-> string maps, the quick overlay and the --set
// override grammar.
#include "scenario/spec.hpp"

#include <gtest/gtest.h>

#include "scenario/registry.hpp"

namespace htpb::scenario {
namespace {

/// A spec exercising every section and most axis fields with non-default
/// values (the round trip must preserve each one).
ScenarioSpec full_spec() {
  ScenarioSpec s;
  s.name = "kitchen-sink";
  s.kind = ScenarioKind::kDefenseClosedLoop;
  s.title = "t";
  s.paper_ref = "p";
  s.expectation = "e";
  s.system.width = 10;
  s.system.height = 6;
  s.system.epoch_cycles = 1234;
  s.system.first_epoch_cycle = 77;
  s.system.budget_fraction = 0.37;
  s.system.budgeter = power::BudgeterKind::kMarket;
  s.system.guard_requests = true;
  s.system.gm_placement = system::GmPlacement::kCorner;
  s.system.seed = 17;
  s.workload.mix = "mix-2";
  s.workload.threads_per_app = 4;
  s.trojan.active = false;
  s.trojan.victim_scale = 0.21;
  s.trojan.attacker_boost = 5.5;
  s.trojan.toggle_period_epochs = 3;
  s.epochs = {1, 4};
  s.seed = 987654321;
  s.threads = 3;
  s.quick = json::parse(R"({"epochs": {"measure": 2}})");
  DetectorSpec& det = s.detector.emplace();
  det.kind = power::DetectorKind::kCohortMedian;
  det.low_ratio = 0.5;
  det.high_ratio = 1.9;
  det.history_alpha = 0.3;
  det.warmup_epochs = 1;
  det.confirm_epochs = 3;
  ResponseSpec& resp = s.response.emplace();
  resp.kind = power::ResponseKind::kThrottle;
  resp.trigger = power::ResponseTrigger::kBoth;
  resp.sanction_epochs = 5;
  resp.recovery_threshold = 0.8;
  // Parameters without the switch: enabled stays off.
  AdaptationSpec& adapt = s.trojan.adaptation;
  adapt.alpha = 0.25;
  adapt.backoff_ratio = 0.5;
  adapt.max_on_epochs = 2;
  adapt.hold_off_epochs = 3;
  s.axes.responses = {power::ResponseKind::kThrottle,
                      power::ResponseKind::kMigrate};
  s.axes.bands = {{0.7, 1.4}, {0.33, 2.9}};
  s.axes.placements = {{ClusterSpec::At::kQuarter, 6},
                       {ClusterSpec::At::kCorner, 4}};
  s.axes.roc.periods = {0, 2};
  s.axes.roc.factors = {0.25, 0.75};
  s.axes.roc.placements = 1;
  s.axes.roc.epoch0_first_epoch_cycle = 555;
  s.validate();
  return s;
}

TEST(ScenarioSpec, RoundTripIsExact) {
  const ScenarioSpec spec = full_spec();
  const json::Value j = spec.to_json();
  const ScenarioSpec back = ScenarioSpec::from_json(j);
  EXPECT_EQ(back, spec);
  // Text-level stability: dump -> parse -> dump is a fixed point.
  const std::string text = json::dump(j, 2);
  EXPECT_EQ(json::dump(json::parse(text), 2), text);
}

TEST(ScenarioSpec, RejectsUnknownKeysEverywhere) {
  const auto corrupt = [](const char* path, const char* key) {
    json::Value j = full_spec().to_json();
    json::Value* node = &j;
    if (path[0] != '\0') node = node->as_object().find(path);
    ASSERT_NE(node, nullptr) << path;
    node->as_object()[key] = json::Value(1);
    EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error)
        << path << "." << key;
  };
  corrupt("", "victim_scale");      // top level (belongs under trojan)
  corrupt("system", "epochCycles"); // typo'd casing
  corrupt("trojan", "scale");
  corrupt("epochs", "cooldown");
  corrupt("axes", "band");          // singular typo of "bands"
  corrupt("detector", "threshold");
  corrupt("response", "duration");  // belongs nowhere (sanction_epochs)

  // Nested one deeper: the adaptation block under trojan.
  json::Value j = full_spec().to_json();
  json::Value* trojan = j.as_object().find("trojan");
  ASSERT_NE(trojan, nullptr);
  json::Value* adaptation = trojan->as_object().find("adaptation");
  ASSERT_NE(adaptation, nullptr);
  adaptation->as_object()["aggressiveness"] = json::Value(1);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

TEST(ScenarioSpec, RejectsWrongSchemaVersion) {
  json::Value j = full_spec().to_json();
  j.as_object()["schema_version"] = json::Value(2);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
  j.as_object()["schema_version"] = json::Value(0);
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

TEST(ScenarioSpec, EnumStringMapsAreCompleteAndInvertible) {
  for (int i = 0; i < kScenarioKindCount; ++i) {
    const auto kind = static_cast<ScenarioKind>(i);
    EXPECT_STRNE(to_string(kind), "?");
    EXPECT_EQ(scenario_kind_from_string(to_string(kind)), kind);
  }
  for (const auto p : {system::GmPlacement::kCenter,
                       system::GmPlacement::kCorner}) {
    EXPECT_EQ(gm_placement_from_string(to_string(p)), p);
  }
  for (const auto k : {power::DetectorKind::kSelfEwma,
                       power::DetectorKind::kCohortMedian}) {
    EXPECT_EQ(detector_kind_from_string(to_string(k)), k);
  }
  for (int i = 0; i < ClusterSpec::kAtCount; ++i) {
    const auto at = static_cast<ClusterSpec::At>(i);
    EXPECT_STRNE(to_string(at), "?");
    EXPECT_EQ(cluster_at_from_string(to_string(at)), at);
  }
  for (const auto b :
       {power::BudgeterKind::kUniform, power::BudgeterKind::kGreedy,
        power::BudgeterKind::kProportional,
        power::BudgeterKind::kDynamicProgramming,
        power::BudgeterKind::kMarket}) {
    EXPECT_EQ(budgeter_kind_from_string(power::to_string(b)), b);
  }
  for (const auto k :
       {power::ResponseKind::kQuarantine, power::ResponseKind::kThrottle,
        power::ResponseKind::kMigrate}) {
    EXPECT_EQ(power::response_kind_from_string(power::to_string(k)), k);
  }
  for (const auto t :
       {power::ResponseTrigger::kHigh, power::ResponseTrigger::kLow,
        power::ResponseTrigger::kBoth}) {
    EXPECT_EQ(power::response_trigger_from_string(power::to_string(t)), t);
  }
  EXPECT_THROW((void)scenario_kind_from_string("fig99"),
               std::invalid_argument);
  EXPECT_THROW((void)gm_placement_from_string("middle"),
               std::invalid_argument);
  EXPECT_THROW((void)detector_kind_from_string("oracle"),
               std::invalid_argument);
  EXPECT_THROW((void)budgeter_kind_from_string("fair"),
               std::invalid_argument);
  EXPECT_THROW((void)cluster_at_from_string("edge"), std::invalid_argument);
  EXPECT_THROW((void)power::response_kind_from_string("exile"),
               std::invalid_argument);
  EXPECT_THROW((void)power::response_trigger_from_string("medium"),
               std::invalid_argument);
}

TEST(ScenarioSpec, DetectorSpecBridgesDetectorConfigExactly) {
  DetectorSpec spec;
  spec.kind = power::DetectorKind::kCohortMedian;
  spec.low_ratio = 0.31;
  spec.high_ratio = 2.7;
  spec.history_alpha = 0.4;
  spec.warmup_epochs = 5;
  spec.confirm_epochs = 1;
  EXPECT_EQ(DetectorSpec::from_config(spec.to_config()), spec);
}

TEST(ScenarioSpec, QuickOverlayMergesObjectsAndReplacesArrays) {
  const ScenarioSpec spec = full_spec();
  const ScenarioSpec quick = spec.with_quick();
  EXPECT_EQ(quick.epochs.measure, 2);   // patched
  EXPECT_EQ(quick.epochs.warmup, 1);    // sibling untouched
  EXPECT_EQ(quick.axes.bands, spec.axes.bands);
  EXPECT_TRUE(quick.quick.is_null());   // overlay consumed

  // Arrays replace wholesale.
  ScenarioSpec arr = spec;
  arr.quick = json::parse(R"({"axes": {"bands": [{"low": 0.5,
                                                  "high": 2.0}]}})");
  const ScenarioSpec arr_quick = arr.with_quick();
  ASSERT_EQ(arr_quick.axes.bands.size(), 1U);
  EXPECT_DOUBLE_EQ(arr_quick.axes.bands[0].low, 0.5);

  // A typo'd overlay key is rejected, not ignored.
  ScenarioSpec bad = spec;
  bad.quick = json::parse(R"({"epochs": {"measur": 2}})");
  EXPECT_THROW((void)bad.with_quick(), std::runtime_error);

  // No overlay = unchanged.
  ScenarioSpec none = spec;
  none.quick = json::Value();
  EXPECT_EQ(none.with_quick(), none);
}

TEST(ScenarioSpec, ApplyOverrideGrammar) {
  json::Value j = full_spec().to_json();
  apply_override(j, "trojan.victim_scale", "0.5");
  apply_override(j, "epochs.measure", "7");
  apply_override(j, "workload.mix", "mix-3");  // bare string
  apply_override(j, "axes.bands", R"([{"low": 0.4, "high": 2.5}])");
  const ScenarioSpec spec = ScenarioSpec::from_json(j);
  EXPECT_DOUBLE_EQ(spec.trojan.victim_scale, 0.5);
  EXPECT_EQ(spec.epochs.measure, 7);
  EXPECT_EQ(spec.workload.mix, "mix-3");
  ASSERT_EQ(spec.axes.bands.size(), 1U);
  EXPECT_DOUBLE_EQ(spec.axes.bands[0].high, 2.5);

  // Paths crossing a scalar are an error, not a silent overwrite.
  EXPECT_THROW(apply_override(j, "name.sub", "1"), std::runtime_error);
  EXPECT_THROW(apply_override(j, "a..b", "1"), std::runtime_error);
  // Unknown keys introduced by --set surface at parse time.
  apply_override(j, "trojan.scale", "0.5");
  EXPECT_THROW((void)ScenarioSpec::from_json(j), std::runtime_error);
}

TEST(ScenarioSpec, ValidateCatchesBadSpecs) {
  ScenarioSpec spec = full_spec();
  spec.trojan.victim_scale = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = scenario_or_throw("defense-roc");
  spec.axes.bands.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.workload.mix = "mix-9";
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = scenario_or_throw("defense-roc");
  spec.axes.roc.placements = 99;  // exceeds axes.placements
  EXPECT_THROW(spec.validate(), std::invalid_argument);

  spec = full_spec();
  spec.system.width = 1;  // below the 2x2 mesh floor
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(ScenarioSpec, ValidateAndQuickOverlayRejectIncompleteSpecs) {
  ScenarioSpec bad;
  bad.name = "bad";
  bad.kind = ScenarioKind::kDefenseSweep;
  EXPECT_THROW(bad.validate(), std::invalid_argument);  // no bands

  ScenarioSpec typo;
  typo.name = "typo";
  typo.kind = ScenarioKind::kBudgeterAblation;
  typo.workload.mix = "mix-1";
  typo.axes.budgeters = {power::BudgeterKind::kGreedy};
  // The overlay's section name is typo'd.
  typo.quick = json::parse(R"({"epoch": {"measure": 2}})");
  EXPECT_NO_THROW(typo.validate());
  EXPECT_THROW((void)typo.with_quick(), std::runtime_error);
}

// Robustness property: every mutation of the closed-loop spec's JSON --
// unknown keys at each new nesting level, type confusion, out-of-range
// values, bad enum strings -- is rejected with a thrown std::exception.
// Parse-then-validate must never crash or silently accept.
TEST(ScenarioSpec, ResponseMutationCorpusIsCleanlyRejected) {
  const json::Value base =
      scenario_or_throw("defense-closed-loop").to_json();

  // Mutators navigate with dotted paths; a missing intermediate object is
  // created so sparse-emitted sections can still be corrupted.
  const auto mutate = [&](const char* path, json::Value v) {
    json::Value j = base;
    json::Value* node = &j;
    std::string key;
    for (const char* c = path;; ++c) {
      if (*c == '.' || *c == '\0') {
        if (*c == '\0') {
          node->as_object()[key] = std::move(v);
          return j;
        }
        json::Value* next = node->as_object().find(key);
        if (next == nullptr) {
          node->as_object()[key] = json::Value(json::Object{});
          next = node->as_object().find(key);
        }
        node = next;
        key.clear();
      } else {
        key += *c;
      }
    }
  };
  const auto rejected = [](const json::Value& j, const char* what) {
    try {
      const ScenarioSpec spec = ScenarioSpec::from_json(j);
      spec.validate();
      ADD_FAILURE() << "mutation accepted: " << what;
    } catch (const std::exception&) {
      // Clean rejection -- the property under test.
    }
  };

  // The un-mutated base must survive both steps (the corpus is live).
  EXPECT_NO_THROW(ScenarioSpec::from_json(base).validate());

  // Unknown keys at every new nesting level.
  rejected(mutate("response.duration", json::Value(3)), "response unknown");
  rejected(mutate("trojan.adaptation.aggressiveness", json::Value(2)),
           "adaptation unknown");
  rejected(mutate("axes.response", json::Value(json::Array{})),
           "axes singular typo");

  // Type confusion.
  rejected(mutate("response.kind", json::Value(5)), "kind as int");
  rejected(mutate("response.trigger", json::Value(json::Array{})),
           "trigger as array");
  rejected(mutate("response.sanction_epochs", json::Value("three")),
           "sanction_epochs as string");
  rejected(mutate("trojan.adaptation.alpha", json::Value("high")),
           "alpha as string");
  rejected(mutate("trojan.adaptation.enabled", json::Value(1)),
           "enabled as int");
  rejected(mutate("axes.responses", json::Value(3)), "responses as int");
  {
    json::Array mixed;
    mixed.push_back(json::Value("quarantine"));
    mixed.push_back(json::Value(7));
    rejected(mutate("axes.responses", json::Value(std::move(mixed))),
             "responses mixed-type array");
  }

  // Bad enum strings.
  rejected(mutate("response.kind", json::Value("exile")), "bad kind");
  rejected(mutate("response.trigger", json::Value("medium")), "bad trigger");

  // Out-of-range values (parse fine, validate must throw).
  rejected(mutate("response.sanction_epochs", json::Value(0)),
           "sanction_epochs 0");
  rejected(mutate("response.sanction_epochs", json::Value(-3)),
           "sanction_epochs negative");
  rejected(mutate("response.recovery_threshold", json::Value(0.0)),
           "recovery_threshold 0");
  rejected(mutate("response.recovery_threshold", json::Value(3.5)),
           "recovery_threshold 3.5");
  rejected(mutate("trojan.adaptation.alpha", json::Value(0.0)), "alpha 0");
  rejected(mutate("trojan.adaptation.alpha", json::Value(1.5)), "alpha 1.5");
  rejected(mutate("trojan.adaptation.backoff_ratio", json::Value(1.0)),
           "backoff_ratio 1");
  rejected(mutate("trojan.adaptation.max_on_epochs", json::Value(0)),
           "max_on_epochs 0");
  rejected(mutate("trojan.adaptation.hold_off_epochs", json::Value(0)),
           "hold_off_epochs 0");
  // Rival duty controllers: grant feedback AND a blind toggle.
  rejected(mutate("trojan.adaptation.enabled", json::Value(true)),
           "adaptation enabled under a toggle period");
  // An empty response axis on a closed-loop scenario has nothing to run.
  rejected(mutate("axes.responses", json::Value(json::Array{})),
           "responses empty");
}

// Integers that do not fit their member, and epoch lengths the simulator
// cannot run, are rejected with the dotted path named -- never truncated
// (2^32 + 4 must not read as width 4) and never simulated (an epoch of
// 2^64 - 1 cycles never ends).
TEST(ScenarioSpec, IntegerRangeCorpusIsCleanlyRejected) {
  const json::Value base = scenario_or_throw("fig5").to_json();
  const auto rejected = [&](const char* key, const char* value,
                            const char* path) {
    json::Value j = base;
    apply_override(j, key, value);
    try {
      ScenarioSpec::from_json(j).validate();
      ADD_FAILURE() << "accepted " << key << "=" << value;
    } catch (const std::exception& e) {
      EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
          << key << "=" << value << ": " << e.what();
    }
  };
  rejected("system.width", "4294967300", "scenario.system.width");
  // Representable but past the 16-bit node ids: refused before any chip
  // is built, not after it tries to allocate 1.6 M tiles.
  rejected("system.width", "100000", "scenario.system.width");
  rejected("system.height", "-4294967296", "scenario.system.height");
  rejected("system.gm_node", "4294967296", "scenario.system.gm_node");
  rejected("system.gm_node", "-1", "scenario.system.gm_node");
  rejected("system.epoch_cycles", "-1", "scenario.system.epoch_cycles");
  rejected("system.epoch_cycles", "0", "system.epoch_cycles");
  rejected("system.first_epoch_cycle", "-1",
           "scenario.system.first_epoch_cycle");
  rejected("system.seed", "-1", "scenario.system.seed");
  rejected("seed", "-1", "scenario.seed");
  rejected("threads", "2147483648", "scenario.threads");
  rejected("axes.placement_max_hts", "2147483648",
           "scenario.axes.placement_max_hts");
  rejected("axes.placement_max_hts", "9223372036854775807",
           "scenario.axes.placement_max_hts");
  rejected("axes.roc.epoch0_first_epoch_cycle", "-600",
           "scenario.axes.roc.epoch0_first_epoch_cycle");
  rejected("axes.sizes", "[64, 4294967360]", "scenario.axes.sizes[]");
  rejected("axes.flood_sources", "[-1]", "scenario.axes.flood_sources[]");
  rejected("axes.arms", R"([{"nodes": 4294967360, "ht_counts": [2]}])",
           "scenario.axes.arms[].nodes");
  rejected("axes.arms", R"([{"nodes": 64, "ht_counts": [2147483648]}])",
           "scenario.axes.arms[].ht_counts[]");

  // The type's own bounds still read back exactly.
  json::Value edge = base;
  apply_override(edge, "system.gm_node", "4294967295");
  apply_override(edge, "axes.placement_max_hts", "2147483647");
  const ScenarioSpec read = ScenarioSpec::from_json(edge);
  EXPECT_EQ(read.system.gm_node, NodeId{4294967295U});
  EXPECT_EQ(read.axes.placement_max_hts, 2147483647);

  // The writer refuses a seed JSON cannot carry instead of wrapping it.
  ScenarioSpec huge = scenario_or_throw("fig5");
  huge.seed = std::uint64_t{1} << 63;
  EXPECT_THROW((void)huge.to_json(), std::invalid_argument);
}

TEST(ScenarioSpec, DefenseSweepRejectsResponses) {
  const ScenarioSpec& roc = scenario_or_throw("defense-roc");
  const auto rejects = [](const ScenarioSpec& spec, const char* what) {
    try {
      spec.validate();
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("defense_sweep"),
                std::string::npos)
          << what << ": " << e.what();
    }
  };

  ScenarioSpec axis = roc;
  axis.axes.responses = {power::ResponseKind::kQuarantine};
  rejects(axis, "axes.responses");

  // A response section with the detector it needs is still refused.
  ScenarioSpec section = roc;
  section.detector = DetectorSpec{};
  section.response = ResponseSpec{};
  rejects(section, "response section");

  // The CLI path: --set axes.responses=["quarantine"].
  json::Value j = roc.to_json();
  apply_override(j, "axes.responses", "[\"quarantine\"]");
  rejects(ScenarioSpec::from_json(j), "--set axes.responses");
}

TEST(ScenarioSpec, MeshForSizeCoversPaperPresetsOnly) {
  EXPECT_EQ(mesh_for_size(64), (std::pair<int, int>{8, 8}));
  EXPECT_EQ(mesh_for_size(128), (std::pair<int, int>{16, 8}));
  EXPECT_EQ(mesh_for_size(256), (std::pair<int, int>{16, 16}));
  EXPECT_EQ(mesh_for_size(512), (std::pair<int, int>{32, 16}));
  EXPECT_THROW((void)mesh_for_size(100), std::invalid_argument);
}

}  // namespace
}  // namespace htpb::scenario
