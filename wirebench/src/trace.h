#ifndef WIREBENCH_TRACE_H_
#define WIREBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

/// \file
/// In-memory spans for the traced run. Every wire request is a root
/// span; the calls the benchmark then makes into each module's public
/// functions are child spans carrying the root's id. Spans stay in the
/// connection's buffer until the run ends, and nothing is recorded in
/// the untraced run.

namespace wirebench {

using Clock = std::chrono::steady_clock;

struct Span {
  uint64_t id = 0;
  /// 0 for a root span; the root's id for its children.
  uint64_t parent = 0;
  std::string name;
  Clock::time_point start;
  Clock::time_point end;

  double us() const {
    return std::chrono::duration<double, std::micro>(end - start).count();
  }
};

/// One connection's span log. Not thread-safe: each connection thread
/// owns one. Ids are unique across tracers when their bases differ.
class Tracer {
 public:
  explicit Tracer(uint64_t id_base) : next_id_(id_base) {}

  /// Opens a root span; children recorded until EndRoot carry its id.
  void BeginRoot(std::string name);
  void EndRoot();

  /// Runs `fn` as a child span `name` of the open root and returns what
  /// it returns.
  template <typename Fn>
  auto Child(const char* name, Fn&& fn) {
    Span span;
    span.id = ++next_id_;
    span.parent = root_;
    span.name = name;
    span.start = Clock::now();
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      span.end = Clock::now();
      spans_.push_back(std::move(span));
    } else {
      auto result = fn();
      span.end = Clock::now();
      spans_.push_back(std::move(span));
      return result;
    }
  }

  /// Records an already-timed child span of the open root.
  void AddChild(const char* name, Clock::time_point start,
                Clock::time_point end);

  std::vector<Span>& spans() { return spans_; }

 private:
  uint64_t next_id_;
  uint64_t root_ = 0;
  size_t root_index_ = 0;
  std::vector<Span> spans_;
};

/// A sample of measured values with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  /// Nearest-rank percentile, q in [0, 1]. Sorts lazily.
  double Quantile(double q) const;
  /// The highest quantile, at most `want`, that leaves at least ten
  /// samples beyond it (0 when the sample is too small for any).
  double TailQuantile(double want) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

}  // namespace wirebench

#endif  // WIREBENCH_TRACE_H_
