#ifndef WIREBENCH_RUNNER_H_
#define WIREBENCH_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "report.h"
#include "util/status.h"

/// \file
/// One benchmark run: host a `net::Server` over a `Service` on
/// loopback, set the workload's tenants up over the wire, drive its
/// closed loop from a fixed number of client connections for a fixed
/// time, check every answer, and report.
///
/// An untraced run records no spans. A traced run first repeats the
/// untraced pass (for the tracing overhead), then sets up afresh and
/// replays the workload with the same seed and length, timing the calls
/// into each module's public functions on in-process twins of the
/// served tenants.

namespace wirebench {

struct RunConfig {
  /// One of WorkloadNames().
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the durable tenants; created if missing, and
  /// everything the run puts there is removed before it returns.
  std::string work_dir;
  /// How many times set-up is repeated; `setup_s` is the median.
  int setup_repeats = 7;
  /// Fault injection for the error accounting: when > 0, every n-th
  /// request of each connection is sent to a database that does not
  /// exist, so the server refuses it.
  int refuse_every = 0;
};

/// point_mix, answer_stream, frontier_decide.
const std::vector<std::string>& WorkloadNames();

/// Runs the benchmark. Fails (without a report) when the workload is
/// unknown or set-up fails; a wrong answer or a failed request does not
/// fail the call but shows in the report.
cqa::Result<Report> RunBenchmark(const RunConfig& config);

}  // namespace wirebench

#endif  // WIREBENCH_RUNNER_H_
