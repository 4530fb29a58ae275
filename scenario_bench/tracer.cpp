#include "tracer.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace scenario_bench {

namespace {

/// Ids of the scopes open on this thread, innermost last.
thread_local std::vector<std::uint64_t> t_open;

}  // namespace

double now_s() {
  using clock = std::chrono::steady_clock;
  // htpb-lint: allow(nondet-call) host time is what the benchmark measures; it never feeds a simulated result
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer& tracer, std::string_view name,
                     std::uint64_t parent)
    : tracer_(tracer) {
  span_.parent = parent != 0 ? parent : (t_open.empty() ? 0 : t_open.back());
  span_.id = tracer_.next_id();
  span_.name = std::string(name);
  span_.thread = tracer_.thread_index();
  t_open.push_back(span_.id);
  span_.start = now_s();
}

Tracer::Scope::~Scope() {
  span_.end = now_s();
  t_open.pop_back();
  tracer_.close(span_);
}

std::uint64_t Tracer::next_id() {
  const std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::close(const Span& span) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

int Tracer::thread_index() {
  const std::thread::id self = std::this_thread::get_id();
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = std::find(threads_.begin(), threads_.end(), self);
  if (it != threads_.end()) return static_cast<int>(it - threads_.begin());
  threads_.push_back(self);
  return static_cast<int>(threads_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> out;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

double covered_s(const Span& span, const std::vector<const Span*>& children) {
  std::vector<std::pair<double, double>> iv;
  iv.reserve(children.size());
  for (const Span* c : children) {
    const double a = std::max(c->start, span.start);
    const double b = std::min(c->end, span.end);
    if (b > a) iv.emplace_back(a, b);
  }
  std::sort(iv.begin(), iv.end());
  double covered = 0.0;
  double reach = span.start;
  for (const auto& [a, b] : iv) {
    const double from = std::max(a, reach);
    if (b > from) covered += b - from;
    reach = std::max(reach, b);
  }
  return covered;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<const Span*>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent == 0) continue;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].id == s.parent) {
        children[i].push_back(&s);
        break;
      }
    }
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    out[i] = (spans[i].end - spans[i].start) - covered_s(spans[i], children[i]);
  }
  return out;
}

htpb::json::Value spans_to_json(const std::vector<Span>& spans) {
  namespace json = htpb::json;
  double t0 = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (i == 0 || spans[i].start < t0) t0 = spans[i].start;
  }
  const std::vector<double> self = self_times(spans);
  json::Array rows;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json::Object o;
    o["id"] = json::Value(static_cast<long long>(s.id));
    o["parent"] = json::Value(static_cast<long long>(s.parent));
    o["name"] = json::Value(s.name);
    o["start"] = json::Value(s.start - t0);
    o["end"] = json::Value(s.end - t0);
    o["thread"] = json::Value(s.thread);
    o["self"] = json::Value(self[i]);
    rows.push_back(json::Value(std::move(o)));
  }
  json::Object out;
  out["spans"] = json::Value(std::move(rows));
  return json::Value(std::move(out));
}

}  // namespace scenario_bench
