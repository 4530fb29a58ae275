#include "workloads.hpp"

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "scenario/registry.hpp"
#include "system/manycore_system.hpp"
#include "tracer.hpp"

namespace scenario_bench {

namespace json = htpb::json;
namespace scenario = htpb::scenario;

const std::vector<Workload>& workloads() {
  // Why these three (see README.md): fig3 has the largest NoC working set
  // and a serial sweep; fig5 keeps cores, caches and the manager busy on
  // one thread; the closed loop is detector/response heavy, already
  // parallel, and restores each warmup checkpoint many times.
  static const std::vector<Workload> all = {
      {"fig3-infection", "fig3", 2},
      {"fig5-attack", "fig5", 1},
      {"closed-loop-defense", "defense-closed-loop", 2},
  };
  return all;
}

const Workload& workload_or_throw(std::string_view name) {
  std::string known;
  for (const Workload& w : workloads()) {
    if (w.name == name) return w;
    known += (known.empty() ? "" : ", ") + w.name;
  }
  throw std::invalid_argument("unknown workload \"" + std::string(name) +
                              "\" (known: " + known + ")");
}

scenario::RunOptions run_options(const Workload& w, std::uint64_t seed,
                                 int threads) {
  scenario::RunOptions opts;
  opts.quick = true;
  opts.threads = threads > 0 ? threads : w.threads;
  opts.seed = seed;
  return opts;
}

std::uint64_t fingerprint(const json::Value& tree) {
  json::Object result;
  for (const auto& [key, value] : tree.as_object()) {
    if (key != "timing" && key != "threads") result[key] = value;
  }
  const std::string text = json::dump(json::Value(std::move(result)), 0);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string to_hex(std::uint64_t v) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[v & 0xF];
    v >>= 4;
  }
  return out;
}

// ------------------------------------------------------------ reference

namespace {

[[nodiscard]] const json::Value& member(const json::Value& v,
                                        std::string_view key) {
  const json::Value* m = v.as_object().find(key);
  if (m == nullptr) {
    throw std::runtime_error("reference.json: missing \"" + std::string(key) +
                             "\"");
  }
  return *m;
}

}  // namespace

ReferenceTable ReferenceTable::load(const std::string& path) {
  const json::Value doc = json::parse_file(path);
  ReferenceTable table;
  for (const auto& [name, o] : member(doc, "workloads").as_object()) {
    Entry e;
    for (const json::Value& s : member(o, "fold").as_array()) {
      e.fold.push_back(static_cast<std::uint64_t>(s.as_int()));
    }
    e.held_out = static_cast<std::uint64_t>(member(o, "held_out").as_int());
    for (const auto& [seed, hex] : member(o, "fnv1a").as_object()) {
      e.fnv1a[std::stoull(seed)] = std::stoull(hex.as_string(), nullptr, 16);
    }
    if (e.fold.empty()) throw std::runtime_error(path + ": empty fold list");
    table.entries_[name] = std::move(e);
  }
  return table;
}

json::Value ReferenceTable::to_json() const {
  json::Object wl;
  for (const auto& [name, e] : entries_) {
    json::Object o;
    json::Array fold;
    for (const std::uint64_t s : e.fold) {
      fold.push_back(json::Value(static_cast<long long>(s)));
    }
    o["fold"] = json::Value(std::move(fold));
    o["held_out"] = json::Value(static_cast<long long>(e.held_out));
    json::Object fp;
    for (const auto& [seed, h] : e.fnv1a) {
      fp[std::to_string(seed)] = json::Value(to_hex(h));
    }
    o["fnv1a"] = json::Value(std::move(fp));
    wl[name] = json::Value(std::move(o));
  }
  json::Object doc;
  doc["workloads"] = json::Value(std::move(wl));
  return json::Value(std::move(doc));
}

const ReferenceTable::Entry& ReferenceTable::entry(
    const std::string& workload) const {
  const auto it = entries_.find(workload);
  if (it == entries_.end()) {
    throw std::runtime_error("reference.json has no workload \"" + workload +
                             "\"");
  }
  return it->second;
}

std::vector<std::uint64_t> ReferenceTable::seeds(
    const std::string& workload) const {
  const Entry& e = entry(workload);
  std::vector<std::uint64_t> out = e.fold;
  out.push_back(e.held_out);
  return out;
}

void ReferenceTable::store(const std::string& workload, std::uint64_t seed,
                           std::uint64_t fnv1a) {
  (void)entry(workload);  // throws for an unknown workload
  entries_[workload].fnv1a[seed] = fnv1a;
}

std::uint64_t ReferenceTable::scenario_seed(const std::string& workload,
                                            std::uint64_t bench_seed) const {
  const Entry& e = entry(workload);
  if (e.fnv1a.count(bench_seed) != 0) return bench_seed;
  return e.fold[bench_seed % e.fold.size()];
}

std::uint64_t ReferenceTable::expected(const std::string& workload,
                                       std::uint64_t seed) const {
  const Entry& e = entry(workload);
  const auto it = e.fnv1a.find(seed);
  if (it == e.fnv1a.end()) {
    throw std::runtime_error("reference.json has no fingerprint for " +
                             workload + " seed " + std::to_string(seed));
  }
  return it->second;
}

// ------------------------------------------------------------ chip set-up

namespace {

[[nodiscard]] const htpb::workload::Mix& mix_by_name(const std::string& name) {
  for (const auto& m : htpb::workload::standard_mixes()) {
    if (m.name == name) return m;
  }
  throw std::invalid_argument("unknown mix \"" + name + "\"");
}

}  // namespace

htpb::core::CampaignConfig campaign_config(const scenario::ScenarioSpec& spec,
                                           const std::string& mix_name) {
  htpb::core::CampaignConfig cfg;
  cfg.system = spec.system.to_system_config();
  if (!mix_name.empty()) cfg.mix = mix_by_name(mix_name);
  cfg.threads_per_app = spec.workload.threads_per_app;
  cfg.trojan.active = spec.trojan.active;
  cfg.trojan.attenuate_victims = spec.trojan.attenuate_victims;
  cfg.trojan.boost_attackers = spec.trojan.boost_attackers;
  cfg.trojan.victim_scale = spec.trojan.victim_scale;
  cfg.trojan.attacker_boost = spec.trojan.attacker_boost;
  cfg.toggle_period_epochs = spec.trojan.toggle_period_epochs;
  cfg.trojan.adapt.enabled = spec.trojan.adaptation.enabled;
  cfg.trojan.adapt.alpha = spec.trojan.adaptation.alpha;
  cfg.trojan.adapt.backoff_ratio = spec.trojan.adaptation.backoff_ratio;
  cfg.trojan.adapt.max_on_epochs = spec.trojan.adaptation.max_on_epochs;
  cfg.trojan.adapt.hold_off_epochs = spec.trojan.adaptation.hold_off_epochs;
  cfg.warmup_epochs = spec.epochs.warmup;
  cfg.measure_epochs = spec.epochs.measure;
  if (spec.detector.has_value()) cfg.detector = spec.detector->to_config();
  if (spec.response.has_value()) cfg.response = spec.response->to_config();
  cfg.checkpoint_dir = spec.checkpoint_dir;
  return cfg;
}

htpb::core::CampaignConfig largest_chip(
    const scenario::ScenarioSpec& resolved) {
  scenario::ScenarioSpec s = resolved;
  std::string mix = s.workload.mix;
  if (!s.workload.mixes.empty()) mix = s.workload.mixes.front();
  int nodes = 0;
  for (const scenario::InfectionArm& arm : s.axes.arms) {
    nodes = std::max(nodes, arm.nodes);
  }
  if (nodes > 0) {
    const auto [w, h] = scenario::mesh_for_size(nodes);
    s.system.width = w;
    s.system.height = h;
    if (!s.axes.gm_placements.empty()) {
      s.system.gm_placement = s.axes.gm_placements.front();
    }
  }
  return campaign_config(s, mix);
}

// ------------------------------------------------------------ untraced pass

namespace {

/// Set-ups per run: at least kMinSetups and for at least kSetupBudget_s;
/// set-up is reported as their median. One set-up takes milliseconds and
/// varies with the host's memory traffic, so it needs many samples.
constexpr int kMinSetups = 21;
constexpr double kSetupBudget_s = 2.0;

[[nodiscard]] double setup_once(const Workload& w,
                                const scenario::RunOptions& opts) {
  const double t0 = now_s();
  const scenario::ScenarioSpec& spec = scenario::scenario_or_throw(w.scenario);
  const scenario::ScenarioSpec resolved = scenario::resolve(spec, opts);
  const htpb::core::CampaignConfig cfg = largest_chip(resolved);
  const htpb::core::AttackCampaign campaign(cfg);
  { const htpb::system::ManyCoreSystem chip(cfg.system, campaign.apps()); }
  return now_s() - t0;
}

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

}  // namespace

EndToEndPass run_end_to_end(const Workload& w,
                            const scenario::RunOptions& opts,
                            std::uint64_t expected, double seconds) {
  std::vector<double> setups;
  const double setup_start = now_s();
  while (setups.size() < kMinSetups || now_s() - setup_start < kSetupBudget_s) {
    setups.push_back(setup_once(w, opts));
  }

  const scenario::ScenarioSpec& spec = scenario::scenario_or_throw(w.scenario);
  EndToEndPass out;
  std::vector<double> walls;
  const double start = now_s();
  // Start another call only while it is expected to end inside the
  // budget, so a run lasts about `seconds` whatever one call costs.
  while (out.attempted == 0 || now_s() - start + median(walls) <= seconds) {
    ++out.attempted;
    try {
      const double t0 = now_s();
      json::Value tree = scenario::run_scenario(spec, opts);
      walls.push_back(now_s() - t0);
      if (fingerprint(tree) != expected) {
        ++out.failed;
      } else {
        out.last_tree = std::move(tree);
      }
    } catch (const std::exception&) {
      ++out.failed;
      if (walls.empty()) break;  // nothing to pace further calls by
    }
  }
  put(out.metrics, "wall_s", median(walls), "s");
  put(out.metrics, "setup_s", median(setups), "s");
  put(out.metrics, "peak_rss_mb", peak_rss_mb(), "MiB");
  return out;
}

void put(json::Object& metrics, const std::string& name, double value,
         const char* unit) {
  json::Object o;
  o["value"] = json::Value(value);
  o["unit"] = json::Value(unit);
  metrics[name] = json::Value(std::move(o));
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace scenario_bench
