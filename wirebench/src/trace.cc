#include "trace.h"

#include <algorithm>
#include <cmath>

namespace wirebench {

void Tracer::BeginRoot(std::string name) {
  Span span;
  span.id = ++next_id_;
  span.name = std::move(name);
  span.start = Clock::now();
  root_ = span.id;
  root_index_ = spans_.size();
  spans_.push_back(std::move(span));
}

void Tracer::EndRoot() {
  spans_[root_index_].end = Clock::now();
  root_ = 0;
}

void Tracer::AddChild(const char* name, Clock::time_point start,
                      Clock::time_point end) {
  Span span;
  span.id = ++next_id_;
  span.parent = root_;
  span.name = name;
  span.start = start;
  span.end = end;
  spans_.push_back(std::move(span));
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(std::ceil(q * values_.size()));
  if (rank > 0) --rank;
  return values_[std::min(rank, values_.size() - 1)];
}

double Samples::TailQuantile(double want) const {
  if (values_.size() <= 10) return 0;
  double cap = 1.0 - 10.0 / values_.size();
  return std::min(want, cap);
}

}  // namespace wirebench
