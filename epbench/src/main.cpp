// epbench_driver: one run of one workload against a fresh epserved.
//
//   epbench_driver --workload <study_metered|tune_churn>
//                  --seed <n> --seconds <s> --trace <0|1>
//   epbench_driver --selftest
//
// Prints human-readable tables, then as its last stdout line one JSON
// object {"correct","attempted","failed","metrics"}: the end-to-end
// metrics with --trace 0, the per-layer metrics with --trace 1.  Exits 0
// only when every check passed.
#include <charconv>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "checks.hpp"
#include "common.hpp"
#include "daemon.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::cerr << "usage: epbench_driver --workload W --seed N --seconds S"
               " --trace 0|1\n       epbench_driver --selftest\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  epbench::Options opts;
  opts.startNs = epbench::nowNs();
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return epbench::selfTest();
    if (i + 1 >= argc) return usage();
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opts.workload = v;
        haveWorkload = epbench::isWorkload(v);
      } else if (a == "--seed") {
        opts.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opts.seconds = std::stod(v);
      } else if (a == "--trace") {
        opts.trace = v == "1";
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (!haveWorkload || !(opts.seconds > 0.0)) return usage();

  epbench::installSignalCleanup();
  epbench::RunResult res;
  try {
    res = epbench::runWorkload(opts);
  } catch (const std::exception& e) {
    std::cerr << "epbench: " << opts.workload << " aborted: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& e : res.errors) std::cerr << "check failed: " << e << "\n";

  std::string json = "{\"correct\": ";
  json += res.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : res.metrics) {
    json += (first ? "" : ", ") + jsonString(name) + ": {\"value\": " +
            number(m.value) + ", \"unit\": " + jsonString(m.unit) + "}";
    first = false;
  }
  json += "}}";
  std::cout << json << std::endl;
  return res.correct ? 0 : 1;
}
