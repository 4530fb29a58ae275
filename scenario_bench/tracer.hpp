// In-memory span recorder for the benchmark's traced pass. Spans are
// opened around calls into the simulator's public API from the
// benchmark's own code (nothing under src/ is instrumented), kept in
// memory, and written out once when the benchmark ends.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/json.hpp"

namespace scenario_bench {

/// Host seconds on the steady clock; the only clock the benchmark reads.
[[nodiscard]] double now_s();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = a root span
  std::string name;          ///< "<layer>.<call>", e.g. "core.run"
  double start = 0.0;        ///< now_s() at open
  double end = 0.0;          ///< now_s() at close
  int thread = 0;            ///< dense per-tracer thread index, 0 = first seen
};

class Tracer {
 public:
  /// Records one span from construction to destruction. The parent is
  /// the innermost scope still open on the calling thread, or `parent`
  /// when given (pool tasks run on threads with no open scope).
  class Scope {
   public:
    Scope(Tracer& tracer, std::string_view name, std::uint64_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    Scope(Scope&&) = delete;
    Scope& operator=(Scope&&) = delete;

    [[nodiscard]] std::uint64_t id() const noexcept { return span_.id; }

   private:
    Tracer& tracer_;
    Span span_;
  };

  /// Every closed span, ordered by id (= open order).
  [[nodiscard]] std::vector<Span> spans() const;

 private:
  [[nodiscard]] std::uint64_t next_id();
  void close(const Span& span);
  [[nodiscard]] int thread_index();

  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::vector<Span> spans_;
  std::vector<std::thread::id> threads_;
};

/// Seconds of [span.start, span.end) covered by the union of `children`
/// (clipped to the span). Children on several threads may overlap; the
/// union counts overlapping time once.
[[nodiscard]] double covered_s(const Span& span,
                               const std::vector<const Span*>& children);

/// Each span's self time: its duration minus covered_s() of its direct
/// children. Indexed like `spans`.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// The span file body: {"spans": [{id, parent, name, start, end, thread,
/// self}, ...]} with times relative to the earliest start.
[[nodiscard]] htpb::json::Value spans_to_json(const std::vector<Span>& spans);

}  // namespace scenario_bench
