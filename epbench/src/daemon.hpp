// The epserved process under test: spawned on an ephemeral loopback
// port, observed through /proc, stopped and reaped on every exit path.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace epbench {

class Daemon {
 public:
  // Spawns `EPBENCH_EPSERVED --port 0 <args>`, confined to `cpus` when
  // non-empty, and blocks until it prints its listening port.  Throws
  // std::runtime_error on failure.
  Daemon(const std::vector<std::string>& args, const std::vector<int>& cpus);
  ~Daemon();

  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  // User + system CPU seconds of the whole process (/proc/<pid>/stat).
  [[nodiscard]] double cpuSeconds() const;
  // Peak resident set (VmHWM of /proc/<pid>/status), MiB.
  [[nodiscard]] double peakRssMb() const;

  // SIGTERM (the daemon drains), SIGKILL after a grace period, then
  // reap.  Idempotent.
  void stop();

 private:
  pid_t pid_ = -1;
  int stdoutFd_ = -1;
  std::uint16_t port_ = 0;
};

// The CPUs this process may run on, in ascending order.
std::vector<int> allowedCpus();
// Confine the calling thread to `cpus` (no-op when empty).
void pinThread(const std::vector<int>& cpus);

// SIGINT/SIGTERM handlers that kill and reap the live daemon, then exit
// with 128 + signal.  Call once at startup.
void installSignalCleanup();

}  // namespace epbench
