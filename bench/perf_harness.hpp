// Minimal vendored timing harness for the hot-path benches: wall-clock
// measurement, cycles/sec reporting, a JSON emitter (through the shared
// common/json utility) whose header records the host the numbers came
// from, and a tolerance-based comparison against a checked-in baseline
// JSON. No external dependency (ROADMAP:
// libbenchmark-dev is absent on some machines, so the perf trajectory
// must not hinge on it).
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace htpb::bench {

[[nodiscard]] inline double now_seconds() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// The host header: a rate means little without the machine, compiler,
/// build type and source revision that produced it. HTPB_BENCH_BUILD_TYPE
/// and HTPB_BENCH_GIT_DESCRIBE come from bench/CMakeLists.txt.
[[nodiscard]] inline json::Value host_info() {
  json::Object h;
  h["nproc"] =
      json::Value(static_cast<int>(std::thread::hardware_concurrency()));
  h["cpu_model"] = json::Value(cpu_model());
#if defined(__clang__)
  h["compiler"] = json::Value(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  h["compiler"] = json::Value(std::string("gcc ") + __VERSION__);
#else
  h["compiler"] = json::Value("unknown");
#endif
  h["build_type"] = json::Value(HTPB_BENCH_BUILD_TYPE);
  h["git_describe"] = json::Value(HTPB_BENCH_GIT_DESCRIBE);
  return json::Value(std::move(h));
}

/// One measured workload. `cycles_per_sec` is the figure of merit; the
/// counter fields double as a determinism cross-check (same seed ->
/// same delivered count, whatever the core's internals look like).
struct PerfResult {
  std::string name;
  std::uint64_t sim_cycles = 0;
  double seconds = 0.0;
  double cycles_per_sec = 0.0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t flits_forwarded = 0;
  double avg_latency = 0.0;
};

/// Times `fn` (which simulates a fixed number of cycles) `reps` times and
/// keeps the fastest run -- the standard trick to shed scheduler noise
/// without statistics machinery. Every rep is a cold start (callers
/// rebuild their network inside `fn`), so single-rep quick mode measures
/// cold-start cost too; regression gates must compare like with like.
template <typename Fn>
[[nodiscard]] inline double best_seconds_of(int reps, Fn&& fn) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_seconds();
    fn();
    const double dt = now_seconds() - t0;
    if (dt < best) best = dt;
  }
  return best;
}

class PerfReport {
 public:
  /// `benchmark` names the suite in the JSON header so baseline files
  /// are self-identifying (default keeps existing NoC baselines valid).
  explicit PerfReport(std::string benchmark = "noc_hotpath")
      : benchmark_(std::move(benchmark)) {}

  void add(PerfResult r) {
    std::printf("  %-28s %12.0f cycles/s  (%llu cycles, %.3fs, "
                "%llu pkts delivered)\n",
                r.name.c_str(), r.cycles_per_sec,
                static_cast<unsigned long long>(r.sim_cycles), r.seconds,
                static_cast<unsigned long long>(r.packets_delivered));
    results_.push_back(std::move(r));
  }

  [[nodiscard]] const std::vector<PerfResult>& results() const noexcept {
    return results_;
  }

  bool write_json(const std::string& path) const {
    json::Object root;
    root["benchmark"] = json::Value(benchmark_);
    root["host"] = host_info();
    json::Array results;
    for (const PerfResult& r : results_) {
      json::Object row;
      row["name"] = json::Value(r.name);
      row["cycles_per_sec"] = json::Value(
          static_cast<long long>(std::llround(r.cycles_per_sec)));
      row["sim_cycles"] = json::Value(static_cast<long long>(r.sim_cycles));
      row["seconds"] = json::Value(r.seconds);
      row["packets_delivered"] =
          json::Value(static_cast<long long>(r.packets_delivered));
      row["flits_forwarded"] =
          json::Value(static_cast<long long>(r.flits_forwarded));
      row["avg_latency"] = json::Value(r.avg_latency);
      results.push_back(json::Value(std::move(row)));
    }
    root["results"] = json::Value(std::move(results));
    try {
      json::dump_file(json::Value(std::move(root)), path);
    } catch (const std::exception&) {
      return false;
    }
    return true;
  }

  /// Compares against a baseline emitted by write_json. Returns true when
  /// every workload present in both files is within `max_regression`
  /// (e.g. 0.25 = tolerate down to 75% of baseline cycles/sec). Prints a
  /// per-workload verdict; unknown names are ignored so baselines and
  /// benches can evolve independently.
  bool check_against(const std::string& baseline_path,
                     double max_regression) const {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "perf_harness: cannot open baseline %s\n",
                   baseline_path.c_str());
      return false;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();

    bool ok = true;
    int compared = 0;
    for (const PerfResult& r : results_) {
      double base = 0.0;
      if (!find_baseline_rate(text, r.name, &base) || base <= 0.0) continue;
      ++compared;
      const double ratio = r.cycles_per_sec / base;
      const bool pass = ratio >= 1.0 - max_regression;
      std::printf("  %-28s baseline %12.0f  now %12.0f  (%+.1f%%) %s\n",
                  r.name.c_str(), base, r.cycles_per_sec,
                  (ratio - 1.0) * 100.0, pass ? "ok" : "REGRESSION");
      ok = ok && pass;
    }
    if (compared == 0) {
      std::fprintf(stderr,
                   "perf_harness: no overlapping workloads with %s\n",
                   baseline_path.c_str());
      return false;
    }
    return ok;
  }

 private:
  /// Tiny special-purpose scan of our own flat JSON: finds the object
  /// containing `"name": "<name>"` and reads its cycles_per_sec. Not a
  /// general JSON parser and does not pretend to be.
  static bool find_baseline_rate(const std::string& text,
                                 const std::string& name, double* out) {
    const std::string key = "\"name\": \"" + name + "\"";
    const std::size_t at = text.find(key);
    if (at == std::string::npos) return false;
    const std::string rate_key = "\"cycles_per_sec\": ";
    const std::size_t rate_at = text.find(rate_key, at);
    if (rate_at == std::string::npos) return false;
    *out = std::strtod(text.c_str() + rate_at + rate_key.size(), nullptr);
    return true;
  }

  std::string benchmark_;
  std::vector<PerfResult> results_;
};

}  // namespace htpb::bench
