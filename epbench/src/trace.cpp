#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>

namespace epbench {

std::uint64_t SpanLog::record(const char* name, std::int64_t startNs,
                              std::int64_t endNs, std::uint64_t parent) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  const std::uint64_t id =
      (static_cast<std::uint64_t>(tid_) << 40) | (spans_.size() + 1);
  spans_.push_back({name, startNs, endNs, id, parent});
  return id;
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent) {
  return record(name, nowNs(), 0, parent);
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0) return;
  const std::size_t index = (id & ((std::uint64_t{1} << 40) - 1)) - 1;
  spans_[index].endNs = nowNs();
}

void writeChromeTrace(const std::string& path, const std::string& workload,
                      const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const SpanRec& s : log->spans()) origin = std::min(origin, s.startNs);
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (const SpanLog* log : logs) {
    for (const SpanRec& s : log->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu,\"workload\":\"%s\",\"start_ns\":%lld,"
                   "\"end_ns\":%lld}}",
                   first ? "" : ",", s.name, log->tid(),
                   static_cast<double>(s.startNs - origin) * 1e-3,
                   static_cast<double>(s.endNs - s.startNs) * 1e-3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), workload.c_str(),
                   static_cast<long long>(s.startNs),
                   static_cast<long long>(s.endNs));
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  std::fclose(f);
}

}  // namespace epbench
