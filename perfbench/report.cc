// Statistics, process and host measurements, and the JSON output lines.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size()) - 1;
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB.
}

CpuTimes ReadCpuTimes() {
  // First line of /proc/stat: "cpu user nice system idle iowait irq softirq
  // steal guest guest_nice", in jiffies summed over all CPUs.
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string label;
  if (!(in >> label) || label != "cpu") return t;
  uint64_t field[8] = {};
  for (uint64_t& f : field) {
    if (!(in >> f)) break;
  }
  t.steal = field[7];
  for (uint64_t f : field) t.total += f;
  return t;
}

double StealFrac(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double ProbeMs() {
  // A fixed integer loop (xorshift over a dependency chain, no memory
  // traffic), timed five times; the median shows how fast this host runs
  // plain CPU work right now.
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const int64_t start = NowNs();
    uint64_t x = 0x9e3779b97f4a7c15ULL + static_cast<uint64_t>(rep);
    for (int i = 0; i < 4000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    volatile uint64_t sink = x;
    (void)sink;
    times.push_back(static_cast<double>(NowNs() - start) / 1e6);
  }
  return Median(times);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void PrintJsonLine(
    const std::string& key,
    const std::vector<std::pair<std::string, std::string>>& fields) {
  std::ostringstream out;
  out << "{\"" << key << "\": {";
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(fields[i].first) << "\": " << fields[i].second;
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

void PrintResult(const Outcome& outcome) {
  for (const std::string& problem : outcome.problems) {
    std::fprintf(stderr, "perfbench: %s\n", problem.c_str());
  }
  std::ostringstream out;
  out << "{\"correct\": " << (outcome.correct ? "true" : "false")
      << ", \"attempted\": " << outcome.attempted
      << ", \"failed\": " << outcome.failed << ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    if (i > 0) out << ", ";
    out << "\"" << JsonEscape(m.name) << "\": {\"value\": " << Number(m.value)
        << ", \"unit\": \"" << JsonEscape(m.unit) << "\"}";
  }
  out << "}}\n";
  std::fputs(out.str().c_str(), stdout);
  std::fflush(stdout);
}

}  // namespace perfbench
