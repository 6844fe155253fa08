// The traced run's per-layer split: each module's public functions are
// timed from outside, in this process, on the workload's own inputs.
// Spans go to the caller's SpanLog; nothing is traced inside the program.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "trace.hpp"

namespace epbench {

// Engine seed the benchmark passes to every daemon (epserved --seed) and
// uses for its in-process replays, so both see the same studies.
inline constexpr std::uint64_t kEngineSeed = 0xEB5EED;

struct LayerInputs {
  std::vector<TuneKey> requests;  // a sample of the workload's tune requests
  bool report = false;            // its requests ask for the ledger
  std::vector<std::pair<Dev, int>> coldKeys;  // replayed through the meter
  std::size_t workers = 1;        // the daemon's worker threads
  std::size_t cacheCapacity = 64; // the daemon's --cache
};

// Adds every in-process per-layer metric to result.metrics (the
// daemon-counter ones are the caller's) and fails `result` when the
// replayed cold path does not reconcile with the untraced study; appends a
// human-readable reconciliation to *report.
void runLayers(const LayerInputs& in, SpanLog& log, std::uint64_t parent,
               RunResult& result, std::string* report);

}  // namespace epbench
