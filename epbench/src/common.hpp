// Shared vocabulary of the epbench driver: clocks, the benchmark's own
// key type, latency samples and the result every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace epbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) * 1e-9;
}

enum class Dev { P100 = 0, K40c = 1 };  // EPB1 device byte order

inline const char* devName(Dev d) { return d == Dev::P100 ? "p100" : "k40c"; }

// One tune request as the benchmark generates it.
struct TuneKey {
  Dev dev = Dev::P100;
  int n = 0;
  double budget = 0.0;  // maxDegradation
};

// Linear-interpolated quantile (q in [0, 1]) of `v`; reorders `v`.
double quantile(std::vector<double>& v, double q);

// The paper's Section V workload sizes (bench_front_statistics).
const std::vector<int>& sectionVSizes(Dev d);

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> errors;  // first few check failures

  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::int64_t startNs = 0;  // driver process start (setup_s origin)
};

}  // namespace epbench
