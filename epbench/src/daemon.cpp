#include "daemon.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace epbench {

namespace {

// The daemon the signal handler must kill (-1: none).  Only one daemon
// is alive at a time.
std::atomic<pid_t> gLivePid{-1};

void onSignal(int sig) {
  const pid_t pid = gLivePid.exchange(-1);
  if (pid > 0) {
    kill(pid, SIGKILL);
    while (waitpid(pid, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  _exit(128 + sig);
}

}  // namespace

void installSignalCleanup() {
  struct sigaction sa {};
  sa.sa_handler = onSignal;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGINT, &sa, nullptr);
  sigaction(SIGTERM, &sa, nullptr);
  signal(SIGPIPE, SIG_IGN);
}

std::vector<int> allowedCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pinThread(const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof set, &set);
}

Daemon::Daemon(const std::vector<std::string>& args,
               const std::vector<int>& cpus) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) throw std::runtime_error("pipe failed");
  std::vector<std::string> argv = {EPBENCH_EPSERVED, "--port", "0"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::vector<char*> cargv;  // built before fork: the child only execs
  for (auto& a : argv) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t parent = getpid();
  pid_ = fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    // Die with the driver even if it is SIGKILLed.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    pinThread(cpus);  // inherited by every daemon thread
    dup2(out[1], STDOUT_FILENO);
    execv(cargv[0], cargv.data());
    _exit(127);
  }
  gLivePid.store(pid_);
  close(out[1]);
  stdoutFd_ = out[0];

  // Wait for "epserved listening on 127.0.0.1:<port> (...)".
  std::string text;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (port_ == 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    pollfd p{stdoutFd_, POLLIN, 0};
    if (left.count() <= 0 || poll(&p, 1, static_cast<int>(left.count())) <= 0) {
      stop();
      throw std::runtime_error("epserved did not report a port");
    }
    char buf[512];
    const ssize_t got = read(stdoutFd_, buf, sizeof buf);
    if (got <= 0) {
      stop();
      throw std::runtime_error("epserved exited before listening");
    }
    text.append(buf, static_cast<std::size_t>(got));
    const auto at = text.find("127.0.0.1:");
    if (at != std::string::npos && text.find('\n', at) != std::string::npos) {
      port_ = static_cast<std::uint16_t>(std::atoi(text.c_str() + at + 10));
    }
  }
}

Daemon::~Daemon() { stop(); }

double Daemon::cpuSeconds() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are
  // fields 14 and 15 of the whole line.
  const auto paren = stat.rfind(')');
  if (paren == std::string::npos) return 0.0;
  std::istringstream rest(stat.substr(paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Daemon::peakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  kill(pid_, SIGTERM);
  bool reaped = false;
  for (int i = 0; i < 1000 && !reaped; ++i) {  // up to 10 s to drain
    // Keep the pipe drained so the final metrics print cannot block.
    char buf[4096];
    pollfd p{stdoutFd_, POLLIN, 0};
    while (poll(&p, 1, 0) > 0 && read(stdoutFd_, buf, sizeof buf) > 0) {
    }
    reaped = waitpid(pid_, nullptr, WNOHANG) == pid_;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (!reaped) {
    kill(pid_, SIGKILL);
    while (waitpid(pid_, nullptr, 0) < 0 && errno == EINTR) {
    }
  }
  gLivePid.store(-1);
  close(stdoutFd_);
  stdoutFd_ = -1;
  pid_ = -1;
}

}  // namespace epbench
