#include "report.h"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace wirebench {

const Metric* Report::Find(const std::string& name) const {
  for (const std::vector<Metric>* list : {&end_to_end, &layers}) {
    for (const Metric& m : *list) {
      if (m.name == name) return &m;
    }
  }
  return nullptr;
}

namespace {

/// The CPU brand string from CPUID, so no file outside the checkout is
/// read to learn it.
std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned int i = 0; i < 3; ++i) {
      unsigned int regs[4] = {0, 0, 0, 0};
      __get_cpuid(0x80000002u + i, &regs[0], &regs[1], &regs[2], &regs[3]);
      std::memcpy(brand + 16 * i, regs, sizeof(regs));
    }
    std::string model(brand);
    size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

}  // namespace

std::vector<std::pair<std::string, std::string>> HostMetadata() {
  std::vector<std::pair<std::string, std::string>> meta;
  meta.emplace_back("nproc",
                    std::to_string(std::thread::hardware_concurrency()));
  meta.emplace_back("cpu_model", CpuModel());
#ifdef WIREBENCH_BUILD_TYPE
  meta.emplace_back("build_type", WIREBENCH_BUILD_TYPE);
#endif
#if defined(__clang__)
  meta.emplace_back("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  meta.emplace_back("compiler", std::string("g++ ") + __VERSION__);
#endif
#if defined(CQA_WITH_SQLITE)
  meta.emplace_back("cqa_with_sqlite", "ON");
#else
  meta.emplace_back("cqa_with_sqlite", "OFF");
#endif
  return meta;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void AppendMetricsJson(const std::vector<Metric>& metrics, std::string* out) {
  bool first = true;
  for (const Metric& m : metrics) {
    if (!first) *out += ", ";
    first = false;
    *out += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": " + JsonString(m.unit);
    if (m.samples > 0) {
      *out += ", \"samples\": " + std::to_string(m.samples);
    }
    if (m.quantile > 0) {
      *out += ", \"quantile\": " + JsonNumber(m.quantile);
    }
    *out += "}";
  }
}

}  // namespace wirebench
