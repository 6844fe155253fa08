// In-memory spans of a traced run, written out at the end as Chrome
// trace-event JSON (load it in Perfetto or chrome://tracing).  Every span
// carries its name, start, end, parent span and the workload.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"

namespace epbench {

struct SpanRec {
  const char* name = "";
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: root
};

// One thread's span log (not thread-safe; give each thread its own).
// Past `capacity` spans are counted in dropped() instead of stored.
class SpanLog {
 public:
  SpanLog(std::uint32_t tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity) {}

  // A finished span; returns its id (0 when dropped).
  std::uint64_t record(const char* name, std::int64_t startNs,
                       std::int64_t endNs, std::uint64_t parent);
  // An open span, closed with close(); returns its id.
  std::uint64_t open(const char* name, std::uint64_t parent);
  void close(std::uint64_t id);

  [[nodiscard]] std::uint32_t tid() const { return tid_; }
  [[nodiscard]] const std::vector<SpanRec>& spans() const { return spans_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::uint32_t tid_;
  std::size_t capacity_;
  std::vector<SpanRec> spans_;
  std::uint64_t dropped_ = 0;
};

void writeChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<const SpanLog*>& logs);

}  // namespace epbench
