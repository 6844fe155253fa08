// The load generator's side of the wire: loopback sockets, a flat JSON
// reader and an EPB1 tune request body written from the documented
// layout (serve/wire_binary.hpp), independent of the daemon's own codec.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common.hpp"

namespace epbench {

int connectLoopback(std::uint16_t port);  // TCP_NODELAY; throws on failure
void writeAll(int fd, std::string_view bytes);
// Read what is available on `fd`, polling until some is: > 0 bytes read,
// 0 at EOF, < 0 on error.  A client thread that sleeps in read() halts
// its virtual CPU, and waking it again costs a host reschedule whose
// delay varies with the host's load; polling keeps that delay out of the
// measured latency.
long readPolling(int fd, char* buf, std::size_t size);

// One line-JSON connection with blocking request/response.
class LineConn {
 public:
  explicit LineConn(std::uint16_t port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  void send(std::string_view line);  // appends '\n'
  std::string readLine();            // throws on EOF
  std::string roundTrip(std::string_view line) {
    send(line);
    return readLine();
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t head_ = 0;
};

// A flat JSON object: every value kept as its decoded string form
// (strings unescaped, numbers and literals verbatim).
class FlatJson {
 public:
  explicit FlatJson(std::string_view text);  // throws on malformed input
  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] const std::string& str(const std::string& key) const;
  [[nodiscard]] double num(const std::string& key) const;
  [[nodiscard]] bool boolean(const std::string& key) const;

 private:
  std::map<std::string, std::string> fields_;
};

// A tune response as the line-JSON wire gives it.
struct TuneAnswer {
  bool ok = false;
  std::string error;
  std::string recommended;
  std::string performanceOptimal;
  std::string energyOptimal;
  double recommendedTimeS = 0.0;
  double recommendedEnergyJ = 0.0;
  double energySavings = 0.0;
  double performanceDegradation = 0.0;
  bool cacheHit = false;
  bool coalesced = false;
  // The energy-attribution ledger ("report":true).
  double attributedJoules = 0.0;
  std::uint64_t studiesExecuted = 0;
};

std::string jsonTuneRequest(const TuneKey& k, bool report);
TuneAnswer parseJsonTune(const std::string& line);

// The body of an EPB1 kOpTune request: what wire_binary decodes.
std::string epb1TuneBody(const TuneKey& k);

}  // namespace epbench
