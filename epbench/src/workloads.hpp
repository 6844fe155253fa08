// The benchmark's workloads, all closed loops of tune requests against a
// freshly spawned epserved:
//   study_metered  cold metered studies, one new (device, N) per request
//   tune_churn     line-JSON Zipf traffic over 4x the cache capacity
#pragma once

#include <string>

#include "common.hpp"

namespace epbench {

[[nodiscard]] bool isWorkload(const std::string& name);

// Runs one workload end to end: set-up, warm-up, the timed phase(s),
// every correctness check, and with opts.trace the per-layer split.
RunResult runWorkload(const Options& opts);

}  // namespace epbench
