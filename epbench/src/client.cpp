#include "client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace epbench {

int connectLoopback(std::uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    throw std::runtime_error("connect to 127.0.0.1:" + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

void writeAll(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(fd, bytes.data(), bytes.size());
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw std::runtime_error("write to daemon failed");
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
}

long readPolling(int fd, char* buf, std::size_t size) {
  for (;;) {
    const ssize_t n = recv(fd, buf, size, MSG_DONTWAIT);
    if (n >= 0) return n;
    if (errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) return -1;
  }
}

LineConn::LineConn(std::uint16_t port) : fd_(connectLoopback(port)) {}

LineConn::~LineConn() { close(fd_); }

void LineConn::send(std::string_view line) {
  std::string out(line);
  out += '\n';
  writeAll(fd_, out);
}

std::string LineConn::readLine() {
  for (;;) {
    const auto nl = buf_.find('\n', head_);
    if (nl != std::string::npos) {
      std::string line = buf_.substr(head_, nl - head_);
      head_ = nl + 1;
      if (head_ == buf_.size()) {
        buf_.clear();
        head_ = 0;
      }
      return line;
    }
    char chunk[65536];
    const long n = readPolling(fd_, chunk, sizeof chunk);
    if (n <= 0) throw std::runtime_error("daemon closed the connection");
    buf_.append(chunk, static_cast<std::size_t>(n));
  }
}

namespace {

[[noreturn]] void malformed(std::string_view text) {
  throw std::runtime_error("malformed JSON response: " +
                           std::string(text.substr(0, 200)));
}

std::string readJsonString(std::string_view t, std::size_t* i) {
  std::string out;
  ++*i;  // opening quote
  while (*i < t.size() && t[*i] != '"') {
    char c = t[(*i)++];
    if (c == '\\') {
      if (*i >= t.size()) malformed(t);
      const char e = t[(*i)++];
      switch (e) {
        case 'n': c = '\n'; break;
        case 't': c = '\t'; break;
        case 'r': c = '\r'; break;
        case 'b': c = '\b'; break;
        case 'f': c = '\f'; break;
        case 'u': {
          if (*i + 4 > t.size()) malformed(t);
          const unsigned long cp =
              std::strtoul(std::string(t.substr(*i, 4)).c_str(), nullptr, 16);
          *i += 4;
          c = cp < 0x80 ? static_cast<char>(cp) : '?';
          break;
        }
        default: c = e;  // \" \\ \/
      }
    }
    out += c;
  }
  if (*i >= t.size()) malformed(t);
  ++*i;  // closing quote
  return out;
}

}  // namespace

FlatJson::FlatJson(std::string_view t) {
  std::size_t i = 0;
  auto ws = [&] {
    while (i < t.size() && (t[i] == ' ' || t[i] == '\n' || t[i] == '\r' ||
                            t[i] == '\t')) {
      ++i;
    }
  };
  ws();
  if (i >= t.size() || t[i] != '{') malformed(t);
  ++i;
  for (;;) {
    ws();
    if (i < t.size() && t[i] == '}') return;
    if (i >= t.size() || t[i] != '"') malformed(t);
    std::string key = readJsonString(t, &i);
    ws();
    if (i >= t.size() || t[i] != ':') malformed(t);
    ++i;
    ws();
    if (i >= t.size()) malformed(t);
    if (t[i] == '"') {
      fields_[key] = readJsonString(t, &i);
    } else {
      const std::size_t start = i;
      while (i < t.size() && t[i] != ',' && t[i] != '}') ++i;
      std::size_t end = i;
      while (end > start && (t[end - 1] == ' ' || t[end - 1] == '\n')) --end;
      fields_[key] = std::string(t.substr(start, end - start));
    }
    ws();
    if (i < t.size() && t[i] == ',') {
      ++i;
      continue;
    }
    if (i < t.size() && t[i] == '}') return;
    malformed(t);
  }
}

bool FlatJson::has(const std::string& key) const {
  return fields_.count(key) != 0;
}

const std::string& FlatJson::str(const std::string& key) const {
  const auto it = fields_.find(key);
  if (it == fields_.end()) {
    throw std::runtime_error("response lacks field \"" + key + "\"");
  }
  return it->second;
}

double FlatJson::num(const std::string& key) const {
  return std::strtod(str(key).c_str(), nullptr);
}

bool FlatJson::boolean(const std::string& key) const {
  return str(key) == "true";
}

std::string jsonTuneRequest(const TuneKey& k, bool report) {
  char buf[160];
  std::snprintf(buf, sizeof buf,
                "{\"op\":\"tune\",\"device\":\"%s\",\"n\":%d,"
                "\"maxDegradation\":%.17g%s}",
                devName(k.dev), k.n, k.budget, report ? ",\"report\":true" : "");
  return buf;
}

TuneAnswer parseJsonTune(const std::string& line) {
  const FlatJson j(line);
  TuneAnswer a;
  a.ok = j.str("status") == "ok";
  if (!a.ok) {
    a.error = j.has("error") ? j.str("error") : j.str("status");
    return a;
  }
  a.recommended = j.str("recommended");
  a.performanceOptimal = j.str("performanceOptimal");
  a.energyOptimal = j.str("energyOptimal");
  a.recommendedTimeS = j.num("recommendedTimeS");
  a.recommendedEnergyJ = j.num("recommendedEnergyJ");
  a.energySavings = j.num("energySavings");
  a.performanceDegradation = j.num("performanceDegradation");
  a.cacheHit = j.boolean("cacheHit");
  a.coalesced = j.boolean("coalesced");
  if (j.has("attributedJoules")) {
    a.attributedJoules = j.num("attributedJoules");
    a.studiesExecuted = static_cast<std::uint64_t>(j.num("studiesExecuted"));
  }
  return a;
}

namespace {

void putVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out += static_cast<char>((v & 0x7F) | 0x80);
    v >>= 7;
  }
  out += static_cast<char>(v);
}

void putF64(std::string& out, double v) {
  char b[8];
  std::memcpy(b, &v, 8);  // little-endian host, as the layout specifies
  out.append(b, 8);
}

}  // namespace

std::string epb1TuneBody(const TuneKey& k) {
  std::string body;
  body += static_cast<char>(k.dev == Dev::P100 ? 0 : 1);
  body += static_cast<char>(0);  // flags: no report, explicit device
  putVarint(body, static_cast<std::uint64_t>(k.n));
  putF64(body, k.budget);
  putF64(body, 0.0);  // no deadline
  putVarint(body, 0);  // no trace id
  return body;
}

}  // namespace epbench
