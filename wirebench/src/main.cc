// wirebench: the end-to-end serving benchmark (see ../README.md).
//
//   wirebench --workload point_mix|answer_stream|frontier_decide
//             --seed N --seconds S --trace 0|1 [--work-dir DIR]
//
// Prints a human-readable table, then, as the last line, one JSON
// record: host and run metadata, correct/attempted/failed, every
// end-to-end metric of the workload and (with --trace 1) every
// per-layer metric, each with its unit. Exit code 0 once a record is
// printed; 1 when set-up fails; 2 on bad arguments.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "report.h"
#include "runner.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: wirebench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR]\n");
  return 2;
}

void PrintTable(const char* title, const std::vector<wirebench::Metric>& ms) {
  std::printf("%s\n", title);
  for (const wirebench::Metric& m : ms) {
    std::printf("  %-36s %14.3f %-18s", m.name.c_str(), m.value,
                m.unit.c_str());
    if (m.samples > 0) std::printf(" n=%llu", (unsigned long long)m.samples);
    if (m.quantile > 0) std::printf(" q=%.4f", m.quantile);
    std::printf("\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  wirebench::RunConfig config;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; i += 2) {
    if (i + 1 >= argc) return Usage();
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::atof(value);
    } else if (flag == "--trace") {
      config.trace = std::strcmp(value, "1") == 0;
      have_trace = std::strcmp(value, "0") == 0 || config.trace;
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || !have_trace || config.seconds <= 0) return Usage();
  if (config.work_dir.empty()) {
    config.work_dir = ".bench_build/wirebench-work-" + std::to_string(getpid());
  }

  cqa::Result<wirebench::Report> report = wirebench::RunBenchmark(config);
  if (!report.ok()) {
    std::fprintf(stderr, "wirebench: %s\n", report.status().ToString().c_str());
    return 1;
  }

  for (const auto& [key, value] : report->meta) {
    std::printf("# %s: %s\n", key.c_str(), value.c_str());
  }
  std::printf("# correct=%s attempted=%llu failed=%llu%s%s\n",
              report->correct ? "true" : "false",
              (unsigned long long)report->attempted,
              (unsigned long long)report->failed,
              report->first_error.empty() ? "" : " first_error=",
              report->first_error.c_str());
  PrintTable("end-to-end:", report->end_to_end);
  if (config.trace) PrintTable("per-layer (traced pass):", report->layers);

  std::string line = "{\"meta\": {";
  bool first = true;
  for (const auto& [key, value] : report->meta) {
    if (!first) line += ", ";
    first = false;
    line += wirebench::JsonString(key) + ": " + wirebench::JsonString(value);
  }
  line += "}, \"correct\": ";
  line += report->correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(report->attempted);
  line += ", \"failed\": " + std::to_string(report->failed);
  line += ", \"first_error\": " + wirebench::JsonString(report->first_error);
  line += ", \"end_to_end\": {";
  wirebench::AppendMetricsJson(report->end_to_end, &line);
  line += "}, \"per_layer\": {";
  wirebench::AppendMetricsJson(report->layers, &line);
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}
