#ifndef WIREBENCH_REPORT_H_
#define WIREBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

/// \file
/// What one benchmark run reports: named metrics with units, the
/// attempted/failed counts, the host and run metadata every record is
/// stamped with, and (traced run only) the spans.

namespace wirebench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  /// Sample count behind a timing; 0 for counts and ratios.
  uint64_t samples = 0;
  /// The percentile actually taken, for tail timings (see
  /// Samples::TailQuantile); 0 otherwise.
  double quantile = 0;
};

struct Report {
  /// False as soon as any answer disagrees with its reference.
  bool correct = true;
  uint64_t attempted = 0;
  /// Failed and refused requests, plus wrong answers.
  uint64_t failed = 0;
  std::string first_error;
  /// End-to-end metrics of the workload (only those of verbs it
  /// issues).
  std::vector<Metric> end_to_end;
  /// Per-layer metrics; traced run only.
  std::vector<Metric> layers;
  /// Host and run metadata, in print order.
  std::vector<std::pair<std::string, std::string>> meta;
  /// Every span of the traced pass; empty for an untraced run.
  std::vector<Span> spans;

  /// The metric called `name`, or null.
  const Metric* Find(const std::string& name) const;
};

/// nproc, CPU model, build type, compiler and the CQA_WITH_SQLITE flag
/// of this binary.
std::vector<std::pair<std::string, std::string>> HostMetadata();

/// Appends `"name": {"value": v, "unit": u, ...}` entries
/// (comma-separated) for `metrics` to `out`, with the sample count and
/// the percentile taken where they apply.
void AppendMetricsJson(const std::vector<Metric>& metrics, std::string* out);

/// JSON string literal for `s`.
std::string JsonString(const std::string& s);

/// Formats a double with all its digits (round-trippable).
std::string JsonNumber(double v);

}  // namespace wirebench

#endif  // WIREBENCH_REPORT_H_
