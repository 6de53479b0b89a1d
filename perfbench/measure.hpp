#pragma once
// Clocks, order statistics, peak-memory reading and the run manifest used by
// pga_perfbench.  Nothing here touches pgalib.

#include <time.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sched.h>

namespace perfbench {

/// Monotonic wall clock in nanoseconds.
[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time consumed by every thread of this process, in seconds.
[[nodiscard]] inline double process_cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// The q-th percentile (q in [0, 100]) of `v`, interpolating linearly between
/// the two closest ranks: rank (n - 1) * q / 100, as numpy's default and
/// Python's statistics.quantiles(method="inclusive") compute it.
[[nodiscard]] inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) throw std::invalid_argument("percentile of an empty sample");
  if (!(q >= 0.0 && q <= 100.0))
    throw std::invalid_argument("percentile rank outside [0, 100]");
  std::sort(v.begin(), v.end());
  const double rank = (static_cast<double>(v.size()) - 1.0) * q / 100.0;
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 50.0);
}

/// Median cost of one now_ns() read, measured once per process.  A timed
/// interval includes about one read, so sampled call timings subtract it.
[[nodiscard]] inline double clock_overhead_ns() {
  static const double overhead = [] {
    std::vector<double> d(1001);
    for (auto& x : d) {
      const std::int64_t a = now_ns();
      x = static_cast<double>(now_ns() - a);
    }
    return median(std::move(d));
  }();
  return overhead;
}

/// Parses the `VmHWM:` line of a /proc/<pid>/status text; returns the peak
/// resident set in KiB, or nullopt when the line is missing or malformed.
[[nodiscard]] inline std::optional<std::uint64_t> parse_vmhwm_kib(
    std::string_view status) {
  constexpr std::string_view kKey = "VmHWM:";
  std::size_t pos = 0;
  while (pos < status.size()) {
    const std::size_t eol = std::min(status.find('\n', pos), status.size());
    const std::string_view line = status.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.substr(0, kKey.size()) != kKey) continue;
    std::string_view rest = line.substr(kKey.size());
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t'))
      rest.remove_prefix(1);
    std::uint64_t kib = 0;
    const auto [end, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), kib);
    if (ec != std::errc{} || end == rest.data()) return std::nullopt;
    std::string_view unit(end, static_cast<std::size_t>(rest.data() + rest.size() - end));
    while (!unit.empty() && unit.front() == ' ') unit.remove_prefix(1);
    while (!unit.empty() && (unit.back() == ' ' || unit.back() == '\r'))
      unit.remove_suffix(1);
    if (unit != "kB") return std::nullopt;
    return kib;
  }
  return std::nullopt;
}

/// Peak resident set of this process in MiB (VmHWM).  ru_maxrss is not used:
/// it keeps the launcher's pre-exec peak.
[[nodiscard]] inline double peak_rss_mib() {
  std::ifstream in("/proc/self/status");
  std::stringstream text;
  text << in.rdbuf();
  const auto kib = parse_vmhwm_kib(text.str());
  if (!kib) throw std::runtime_error("VmHWM not found in /proc/self/status");
  return static_cast<double>(*kib) / 1024.0;
}

/// Cores this process may run on (affinity mask), falling back to
/// hardware_concurrency.
[[nodiscard]] inline unsigned usable_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return static_cast<unsigned>(CPU_COUNT(&set));
  return std::thread::hardware_concurrency();
}

/// Minimal JSON string escaping for the names and messages pga_perfbench prints.
[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
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
  return out + "\"";
}

/// Full-precision JSON number (NaN/inf are not JSON; they print as null).
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Build facts every result is printed with.
[[nodiscard]] inline std::string manifest_json(std::string_view workload,
                                               std::uint64_t seed,
                                               std::uint64_t generations) {
  std::string m = "{\"cores\": " + std::to_string(usable_cores());
  m += ", \"hardware_concurrency\": " + std::to_string(std::thread::hardware_concurrency());
#if defined(__clang__)
  m += ", \"compiler\": " + json_string(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  m += ", \"compiler\": " + json_string(std::string("gcc ") + __VERSION__);
#else
  m += ", \"compiler\": \"unknown\"";
#endif
  m += ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE);
  m += std::string(", \"PGA_NATIVE\": ") + (PERFBENCH_PGA_NATIVE ? "true" : "false");
#ifdef PGA_TRACE_DEFAULT_OFF
  m += ", \"PGA_TRACE_DEFAULT_OFF\": true";
#else
  m += ", \"PGA_TRACE_DEFAULT_OFF\": false";
#endif
  m += ", \"workload\": " + json_string(workload);
  m += ", \"seed\": " + std::to_string(seed);
  m += ", \"generations\": " + std::to_string(generations) + "}";
  return m;
}

}  // namespace perfbench
