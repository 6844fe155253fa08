#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "client.hpp"
#include "daemon.hpp"
#include "layers.hpp"
#include "oracle.hpp"
#include "trace.hpp"

namespace epbench {

namespace {

constexpr double kWarmUpS = 1.0;
// Throughput, CPU and latency are reported from the timed phase's full
// windows of this length (see README, "Noise").
constexpr std::int64_t kWindowNs = 1'000'000'000;
constexpr double kBudgets[] = {0.0, 0.05, 0.07, 0.11};
constexpr std::size_t kSpansPerThread = 200000;

// The benchmark's own deterministic streams (std distributions are
// implementation-defined, so sampling is done by hand).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t id) : state_(mix(seed ^ mix(id))) {}
  std::uint64_t next() { return mix(state_++); }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t state_;
};

double budgetFrom(Stream& s) { return kBudgets[s.below(4)]; }

bool isSectionV(Dev d, int n) {
  const auto& v = sectionVSizes(d);
  return std::find(v.begin(), v.end(), n) != v.end();
}

// `count` distinct sizes drawn uniformly from [lo, hi].
std::vector<int> drawSizes(Stream& s, int lo, int hi, std::size_t count,
                           std::vector<int> taken = {}) {
  std::vector<int> out;
  while (out.size() < count) {
    const int n = lo + static_cast<int>(s.below(static_cast<std::size_t>(hi - lo + 1)));
    if (std::find(taken.begin(), taken.end(), n) != taken.end()) continue;
    taken.push_back(n);
    out.push_back(n);
  }
  return out;
}

std::vector<std::string> daemonArgs(std::size_t workers, std::size_t cache,
                                    bool meter) {
  std::vector<std::string> a = {
      "--threads", std::to_string(workers), "--event-threads", "1",
      "--cache", std::to_string(cache), "--queue", "64", "--scrape-ms", "0",
      "--seed", std::to_string(kEngineSeed)};
  if (meter) a.push_back("--meter");
  return a;
}

unsigned cores() { return std::max(1u, std::thread::hardware_concurrency()); }

// One client's record of a timed phase: completions counted as they
// happen (read by the sampling thread), latencies kept per window.
struct Recorder {
  std::int64_t originNs = 0;
  std::atomic<std::uint64_t> done{0};
  std::vector<std::vector<double>> byWindow;  // latency (ms) by window
  SpanLog* log = nullptr;

  void add(std::int64_t t0, std::int64_t t1, const char* span) {
    const auto w = static_cast<std::size_t>((t1 - originNs) / kWindowNs);
    if (w >= byWindow.size()) byWindow.resize(w + 1);
    byWindow[w].push_back(static_cast<double>(t1 - t0) * 1e-6);
    done.store(done.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
    if (log != nullptr) log->record(span, t0, t1, 0);
  }
};

// Measurements of one timed phase.
struct Phase {
  // One entry per full window before the deadline (study_metered: per
  // round).
  std::vector<double> winRate, winCpuUs, winP50, winP99;
};

// What the daemon says about itself after the run.
struct Counters {
  Tally tally;
  std::uint64_t evictions = 0;
  double framesPerBatch = 0.0;
  double daemonP50Ms = 0.0, daemonP99Ms = 0.0;  // ep_serve_request_latency_ms
};

double promValue(const std::string& text, const std::string& name) {
  std::size_t at = 0;
  while ((at = text.find(name, at)) != std::string::npos) {
    const bool lineStart = at == 0 || text[at - 1] == '\n';
    at += name.size();
    if (lineStart && at < text.size() && text[at] == ' ') {
      return std::strtod(text.c_str() + at + 1, nullptr);
    }
  }
  throw std::runtime_error("daemon exposition lacks " + name);
}

// Prometheus-style histogram_quantile over the cumulative buckets.
double promQuantile(const std::string& text, const std::string& family,
                    double q) {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  const std::string prefix = family + "_bucket{le=\"";
  std::size_t at = 0;
  while ((at = text.find(prefix, at)) != std::string::npos) {
    at += prefix.size();
    const std::string le = text.substr(at, text.find('"', at) - at);
    const double bound = le == "+Inf" ? 1e300 : std::strtod(le.c_str(), nullptr);
    const std::size_t space = text.find(' ', at);
    buckets.emplace_back(bound, std::strtod(text.c_str() + space + 1, nullptr));
  }
  if (buckets.empty() || buckets.back().second <= 0.0) return 0.0;
  const double rank = q * buckets.back().second;
  double prevBound = 0.0, prevCount = 0.0;
  for (const auto& [bound, count] : buckets) {
    if (count >= rank) {
      if (bound >= 1e300) return prevBound;
      return prevBound + (bound - prevBound) * (rank - prevCount) /
                             std::max(count - prevCount, 1.0);
    }
    prevBound = bound;
    prevCount = count;
  }
  return prevBound;
}

class Workload {
 public:
  explicit Workload(const Options& opts) : opts_(opts) {}
  virtual ~Workload() = default;

  // Spawn the daemon and fill its cache: the span setup_s measures.
  virtual void setUp() = 0;
  // The benchmark's own brute-force answers, made after setup_s is taken
  // so that it times the daemon, not the benchmark.
  virtual void prepare() {}
  // Untimed traffic so the timed phase starts in steady state.
  virtual void warmUp() {}
  // One timed phase in whole rounds; with logs, one span per request.
  virtual Phase timed(double seconds, std::vector<SpanLog>* logs) = 0;
  // Whole-run checks that need the daemon's counters.
  virtual void finish(const Counters&) {}
  [[nodiscard]] virtual LayerInputs layerInputs() const = 0;
  [[nodiscard]] virtual std::size_t clients() const = 0;

  Daemon& daemon() { return *daemon_; }
  LineConn& control() { return *control_; }
  RunResult& result() { return result_; }

 protected:
  void spawn(std::size_t workers, std::size_t cache, bool meter) {
    workers_ = workers;
    cache_ = cache;
    // With 4 or more CPUs, the daemon gets the first 4 - clients() of them
    // and each client thread one of its own, so runs do not differ in
    // which threads share a CPU.
    std::vector<int> daemonCpus;
    const std::vector<int> cpus = allowedCpus();
    if (cpus.size() >= 4) {
      const std::size_t split = 4 - clients();
      daemonCpus.assign(cpus.begin(), cpus.begin() + static_cast<std::ptrdiff_t>(split));
      for (std::size_t c = 0; c < clients(); ++c) clientCpus_.push_back(cpus[split + c]);
    }
    daemon_ = std::make_unique<Daemon>(daemonArgs(workers, cache, meter), daemonCpus);
    control_ = std::make_unique<LineConn>(daemon_->port());
  }

  // Run `body(client, recorder, deadline)` on one thread per client for
  // `seconds`, sampling completions and daemon CPU at every window edge.
  template <typename Body>
  Phase runClients(std::size_t n, double seconds, std::vector<SpanLog>* logs,
                   Body&& body) {
    Phase p;
    std::vector<Recorder> rec(n);
    std::vector<std::thread> threads;
    std::vector<std::string> errors(n);
    const double cpu0 = daemon_->cpuSeconds();
    const std::int64_t t0 = nowNs();
    const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t c = 0; c < n; ++c) {
      rec[c].originNs = t0;
      rec[c].log = logs != nullptr ? &(*logs)[c] : nullptr;
      threads.emplace_back([&, c] {
        if (c < clientCpus_.size()) pinThread({clientCpus_[c]});
        try {
          body(c, rec[c], deadline);
        } catch (const std::exception& e) {
          errors[c] = e.what();
        }
      });
    }
    const auto windows = static_cast<std::size_t>((deadline - t0) / kWindowNs);
    std::uint64_t prevDone = 0;
    double prevCpu = cpu0;
    std::int64_t prevT = t0;
    for (std::size_t w = 1; w <= windows; ++w) {
      std::this_thread::sleep_until(Clock::time_point(
          std::chrono::nanoseconds(t0 + static_cast<std::int64_t>(w) * kWindowNs)));
      std::uint64_t doneNow = 0;
      for (const Recorder& r : rec) doneNow += r.done.load(std::memory_order_relaxed);
      const double cpuNow = daemon_->cpuSeconds();
      const std::int64_t tNow = nowNs();
      const double count = static_cast<double>(doneNow - prevDone);
      p.winRate.push_back(count / (static_cast<double>(tNow - prevT) * 1e-9));
      p.winCpuUs.push_back(count > 0.0 ? (cpuNow - prevCpu) * 1e6 / count : 0.0);
      prevDone = doneNow;
      prevCpu = cpuNow;
      prevT = tNow;
    }
    for (auto& t : threads) t.join();
    for (const auto& e : errors) {
      if (!e.empty()) throw std::runtime_error("client failed: " + e);
    }
    for (std::size_t w = 0; w < windows; ++w) {
      std::vector<double> lat;
      for (const Recorder& r : rec) {
        if (w < r.byWindow.size()) lat.insert(lat.end(), r.byWindow[w].begin(), r.byWindow[w].end());
      }
      p.winP50.push_back(quantile(lat, 0.50));
      p.winP99.push_back(quantile(lat, 0.99));
    }
    return p;
  }

  const Options& opts_;
  RunResult result_;
  Oracle oracle_;
  std::unique_ptr<Daemon> daemon_;
  std::unique_ptr<LineConn> control_;
  std::size_t workers_ = 1, cache_ = 64;
  std::vector<int> clientCpus_;  // one per client thread; empty: unpinned
  std::mutex failMu_;
  void failLocked(const std::string& why) {
    std::lock_guard lk(failMu_);
    result_.fail(why);
  }
};

// ---------------------------------------------------------------- metered

class StudyMetered final : public Workload {
 public:
  // Per round: one key from each K40c stratum (8 over [8704, 14336]) and
  // each P100 stratum (4 over [10240, 18432]), then the Section V check.
  static constexpr int kK40cStrata = 8, kP100Strata = 4;

  explicit StudyMetered(const Options& opts) : Workload(opts), stream_(opts.seed, 1) {
    auto strata = [&](Dev d, int lo, int hi, int count) {
      const int width = (hi - lo + 1 + count - 1) / count;
      for (int s = 0; s < count; ++s) {
        std::vector<int> sizes;
        for (int n = lo + s * width; n < std::min(hi + 1, lo + (s + 1) * width); ++n) {
          if (!isSectionV(d, n)) sizes.push_back(n);
        }
        // Systematic sampling: round r takes sizes[(offset + r * stride) % L]
        // with a stride coprime to L, so a run's rounds spread evenly over
        // the stratum whatever the seed, and never repeat a size.
        const std::size_t len = sizes.size();
        std::size_t stride = std::max<std::size_t>(1, len / 10);
        while (std::gcd(stride, len) != 1) ++stride;
        strata_.push_back({d, std::move(sizes), stream_.below(len), stride});
      }
    };
    strata(Dev::K40c, 8704, 14336, kK40cStrata);
    strata(Dev::P100, 10240, 18432, kP100Strata);
  }

  [[nodiscard]] std::size_t clients() const override { return 1; }

  void setUp() override {
    spawn(std::max(1u, std::min(2u, cores() - 2)), 64, /*meter=*/true);
    (void)sectionV();  // cache fill: the Section V sweep, metered
  }

  // At about 11 tunes a second a 1-s window holds too few tunes, so the
  // windows are rounds: each covers every stratum once, so rounds carry
  // comparable work.  A round's p99 is about its slowest tune, the study
  // of its largest K40c size.
  Phase timed(double seconds, std::vector<SpanLog>* logs) override {
    std::vector<double> rate, cpuUs, p50, p99;
    Phase p = runClients(1, seconds, logs, [&](std::size_t, Recorder& rec, std::int64_t deadline) {
      do {
        const std::vector<TuneKey> round = nextRound();
        std::vector<double> lat;
        const double cpu0 = daemon().cpuSeconds();
        const std::int64_t r0 = nowNs();
        for (const TuneKey& k : round) {
          const std::int64_t t0 = nowNs();
          const std::string line = control().roundTrip(jsonTuneRequest(k, false));
          const std::int64_t t1 = nowNs();
          rec.add(t0, t1, "client/tune (metered)");
          lat.push_back(static_cast<double>(t1 - t0) * 1e-6);
          const TuneAnswer a = parseJsonTune(line);
          const std::string err =
              checkMetered(a, k, oracle_.modelEnergy(k.dev, k.n, a.recommended));
          if (!err.empty()) {
            result_.fail(std::string(devName(k.dev)) + " N=" + std::to_string(k.n) +
                         ": " + err);
          }
          if (sent_.size() < 64) sent_.push_back(k);
        }
        const double tunes = static_cast<double>(round.size());
        rate.push_back(tunes / secondsSince(r0));
        cpuUs.push_back((daemon().cpuSeconds() - cpu0) * 1e6 / tunes);
        p50.push_back(quantile(lat, 0.5));
        p99.push_back(quantile(lat, 0.99));
        const FrontBand band = sectionV();
        const std::string err = checkSectionV(band);
        if (!err.empty()) result_.fail("Section V study: " + err);
        const std::string sizeErr = checkP100FrontSize(band);
        if (!sizeErr.empty()) {
          // A fault of the metered path, the same on every round: counted
          // as a failed operation (see README), not as a wrong check.
          ++result_.failed;
          frontFault_ = sizeErr;
        }
        result_.attempted += round.size() + 3;
      } while (nowNs() < deadline);
    });
    p.winRate = std::move(rate);
    p.winCpuUs = std::move(cpuUs);
    p.winP50 = std::move(p50);
    p.winP99 = std::move(p99);
    return p;
  }

  [[nodiscard]] LayerInputs layerInputs() const override {
    LayerInputs in;
    in.requests = sent_;
    in.workers = workers_;
    in.cacheCapacity = cache_;
    for (Dev d : {Dev::K40c, Dev::P100}) {
      const auto it = std::find_if(sent_.begin(), sent_.end(),
                                   [d](const TuneKey& k) { return k.dev == d; });
      if (it != sent_.end()) in.coldKeys.emplace_back(d, it->n);
    }
    return in;
  }

  [[nodiscard]] const std::string& frontFault() const { return frontFault_; }

 private:
  std::vector<TuneKey> nextRound() {
    std::vector<TuneKey> keys;
    for (const Stratum& st : strata_) {
      if (round_ >= st.sizes.size()) throw std::runtime_error("metered key space exhausted");
      keys.push_back({st.dev, st.sizes[(st.offset + round_ * st.stride) % st.sizes.size()],
                      budgetFrom(stream_)});
    }
    ++round_;
    stream_.shuffle(keys);
    return keys;
  }

  FrontBand sectionV() {
    auto study = [&](const char* dev, int lo, int hi, int step) {
      char req[160];
      std::snprintf(req, sizeof req,
                    "{\"op\":\"study\",\"device\":\"%s\",\"nBegin\":%d,"
                    "\"nEnd\":%d,\"nStep\":%d}",
                    dev, lo, hi, step);
      FlatJson j(control().roundTrip(req));
      if (j.str("status") != "ok") throw std::runtime_error("study failed: " + j.str("status"));
      return j;
    };
    const FlatJson a = study("k40c", 8704, 9728, 512);
    const FlatJson b = study("k40c", 10240, 14336, 1024);
    const FlatJson p = study("p100", 10240, 18432, 1024);
    const FlatJson& k = a.num("maxLocalSavings") > b.num("maxLocalSavings") ? a : b;
    FrontBand band;
    band.k40cLocalSavings = k.num("maxLocalSavings");
    band.k40cLocalDegradation = k.num("degradationAtMaxLocalSavings");
    band.k40cMaxLocalFront = static_cast<std::size_t>(
        std::max(a.num("maxLocalFrontSize"), b.num("maxLocalFrontSize")));
    band.p100GlobalSavings = p.num("maxGlobalSavings");
    band.p100GlobalDegradation = p.num("degradationAtMaxGlobalSavings");
    band.p100MaxGlobalFront = static_cast<std::size_t>(p.num("maxGlobalFrontSize"));
    return band;
  }

  Stream stream_;
  struct Stratum {
    Dev dev;
    std::vector<int> sizes;  // ascending, Section V sizes left out
    std::size_t offset, stride;
  };
  std::vector<Stratum> strata_;
  std::size_t round_ = 0;
  std::vector<TuneKey> sent_;
  std::string frontFault_;
};

// ----------------------------------------------------------------- churn

class TuneChurn final : public Workload {
 public:
  static constexpr std::size_t kCache = 64;
  static constexpr std::size_t kKeysPerDevice = 128;  // 256 keys: 4x the cache
  static constexpr double kZipfSkew = 1.0;
  static constexpr std::size_t kRound = 256;

  explicit TuneChurn(const Options& opts) : Workload(opts) {
    Stream s(opts.seed, 3);
    for (Dev d : {Dev::K40c, Dev::P100}) {
      const int lo = d == Dev::K40c ? 8704 : 10240;
      const int hi = d == Dev::K40c ? 14336 : 18432;
      for (int n : drawSizes(s, lo, hi, kKeysPerDevice)) keys_.push_back({d, n, 0.0});
    }
    s.shuffle(keys_);  // popularity rank = position
    double sum = 0.0;
    for (std::size_t r = 0; r < keys_.size(); ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfSkew);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
    for (const TuneKey& k : keys_) {
      for (double b : kBudgets) lines_.push_back(jsonTuneRequest({k.dev, k.n, b}, /*report=*/true));
    }
    for (std::size_t c = 0; c < clients(); ++c) streams_.emplace_back(opts.seed, 20 + c);
  }

  [[nodiscard]] std::size_t clients() const override { return cores() >= 4 ? 2 : 1; }

  void setUp() override {
    spawn(1, kCache, /*meter=*/false);
    for (std::size_t c = 0; c < clients(); ++c) {
      conns_.push_back(std::make_unique<LineConn>(daemon().port()));
    }
    tallies_.resize(clients());
  }

  void prepare() override {
    for (const TuneKey& k : keys_) {
      oracle_.prepare(k.dev, k.n);
      studyJ_.push_back(oracle_.studyEnergy(k.dev, k.n));
      for (double b : kBudgets) expected_.push_back(oracle_.select(k.dev, k.n, b));
    }
  }

  void warmUp() override { (void)run(kWarmUpS, nullptr, /*count=*/false); }

  Phase timed(double seconds, std::vector<SpanLog>* logs) override {
    return run(seconds, logs, true);
  }

  void finish(const Counters& daemon) override {
    ClientTally all;
    for (const ClientTally& t : tallies_) {
      all.tally.hits += t.tally.hits;
      all.tally.executed += t.tally.executed;
      all.tally.coalesced += t.tally.coalesced;
      all.sent += t.sent;
      all.attributedJ += t.attributedJ;
      all.expectedJ += t.expectedJ;
    }
    std::string err = checkTallies(all.tally, daemon.tally, all.sent);
    if (!err.empty()) result_.fail("tallies: " + err);
    err = checkLedger(all.attributedJ, all.expectedJ);
    if (!err.empty()) result_.fail("ledger: " + err);
  }

  [[nodiscard]] LayerInputs layerInputs() const override {
    LayerInputs in;
    Stream s(opts_.seed, 20);  // client 0's stream, replayed
    for (std::size_t i = 0; i < 2 * kRound; ++i) {
      const std::size_t r = static_cast<std::size_t>(
          std::upper_bound(cdf_.begin(), cdf_.end(), s.unit()) - cdf_.begin());
      in.requests.push_back({keys_[std::min(r, keys_.size() - 1)].dev,
                             keys_[std::min(r, keys_.size() - 1)].n, budgetFrom(s)});
    }
    in.report = true;
    in.workers = workers_;
    in.cacheCapacity = cache_;
    for (Dev d : {Dev::K40c, Dev::P100}) {
      const auto it = std::find_if(keys_.begin(), keys_.end(),
                                   [d](const TuneKey& k) { return k.dev == d; });
      in.coldKeys.emplace_back(d, it->n);
    }
    return in;
  }

 private:
  struct ClientTally {
    Tally tally;
    std::uint64_t sent = 0;
    double attributedJ = 0.0, expectedJ = 0.0;
  };

  Phase run(double seconds, std::vector<SpanLog>* logs, bool count) {
    std::vector<std::uint64_t> sent(clients(), 0);
    Phase p = runClients(clients(), seconds, logs,
                         [&](std::size_t c, Recorder& rec, std::int64_t deadline) {
      Stream& s = streams_[c];
      ClientTally& t = tallies_[c];
      do {
        for (std::size_t i = 0; i < kRound; ++i) {
          const std::size_t rank = std::min(
              static_cast<std::size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), s.unit()) -
                                       cdf_.begin()),
              keys_.size() - 1);
          const std::size_t req = rank * 4 + s.below(4);
          const std::int64_t t0 = nowNs();
          const std::string line = conns_[c]->roundTrip(lines_[req]);
          rec.add(t0, nowNs(), "client/tune (JSON)");
          ++sent[c];
          const TuneAnswer a = parseJsonTune(line);
          const std::string err = checkTune(a, expected_[req]);
          if (!err.empty()) failLocked("JSON tune: " + err);
          ++t.sent;
          t.tally.hits += a.cacheHit;
          t.tally.coalesced += a.coalesced;
          t.tally.executed += a.studiesExecuted;
          t.attributedJ += a.attributedJoules;
          if (a.studiesExecuted != 0) t.expectedJ += studyJ_[rank];
        }
      } while (nowNs() < deadline);
    });
    if (count) {
      for (std::uint64_t s : sent) result_.attempted += s;
    }
    return p;
  }

  std::vector<TuneKey> keys_;
  std::vector<double> cdf_;
  std::vector<double> studyJ_;
  std::vector<std::string> lines_;
  std::vector<Selection> expected_;
  std::vector<Stream> streams_;
  std::vector<std::unique_ptr<LineConn>> conns_;
  std::vector<ClientTally> tallies_;
};

Counters readCounters(LineConn& control) {
  Counters c;
  const FlatJson m(control.roundTrip("{\"op\":\"metrics\"}"));
  c.tally.hits = static_cast<std::uint64_t>(m.num("cacheHits"));
  c.tally.executed = static_cast<std::uint64_t>(m.num("studiesExecuted"));
  c.tally.coalesced = static_cast<std::uint64_t>(m.num("coalesced"));
  c.evictions = static_cast<std::uint64_t>(m.num("cacheEvictions"));
  const FlatJson prom(
      control.roundTrip("{\"op\":\"metrics\",\"format\":\"prometheus\"}"));
  const std::string& text = prom.str("body");
  const double frames = promValue(text, "ep_net_frames_total");
  const double batches = promValue(text, "ep_net_batches_total");
  c.framesPerBatch = batches > 0.0 ? frames / batches : 0.0;
  c.daemonP50Ms = promQuantile(text, "ep_serve_request_latency_ms", 0.50);
  c.daemonP99Ms = promQuantile(text, "ep_serve_request_latency_ms", 0.99);
  return c;
}

// Interference from other tenants of the host only ever slows a window,
// so the windowed figures take the best decile of the windows.
double best(std::vector<double> v, bool higher) { return quantile(v, higher ? 0.9 : 0.1); }

// The client-side median is printed but is not an end-to-end metric: on
// tune_churn it spread beyond any bound the benchmark may set (README,
// "Noise").
double clientP50Ms(const Phase& p) { return best(p.winP50, false); }

void addEndToEnd(std::map<std::string, Metric>& m, const Phase& p,
                 double setupS, double rssMb) {
  if (p.winRate.empty()) throw std::runtime_error("timed phase had no full window");
  m["setup_s"] = {setupS, "s"};
  m["server_peak_rss_mb"] = {rssMb, "MiB"};
  m["tunes_per_s"] = {best(p.winRate, true), "1/s"};
  m["latency_p99_ms"] = {best(p.winP99, false), "ms"};
  m["server_cpu_us_per_tune"] = {best(p.winCpuUs, false), "us"};
}

void printTable(const std::string& title, const std::map<std::string, Metric>& m) {
  std::cout << title << "\n";
  for (const auto& [name, metric] : m) {
    std::printf("  %-36s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
}

}  // namespace

bool isWorkload(const std::string& name) {
  return name == "study_metered" || name == "tune_churn";
}

RunResult runWorkload(const Options& opts) {
  std::unique_ptr<Workload> w;
  if (opts.workload == "study_metered") w = std::make_unique<StudyMetered>(opts);
  if (opts.workload == "tune_churn") w = std::make_unique<TuneChurn>(opts);

  // One cold set-up, from the driver's start: the daemon's spawn until it
  // listens, and the cache fill.
  w->setUp();
  const double setupS = secondsSince(opts.startNs);
  w->prepare();
  w->warmUp();
  std::printf("workload %s seed %llu: %u cores, daemon pid %d, %zu client(s)\n",
              opts.workload.c_str(), static_cast<unsigned long long>(opts.seed),
              cores(), static_cast<int>(w->daemon().pid()), w->clients());

  // A traced run splits its time between an untraced and a traced phase.
  const double phaseS = opts.trace ? opts.seconds / 2.0 : opts.seconds;
  std::map<std::string, Metric> e2e;
  const Phase phase = w->timed(phaseS, nullptr);
  addEndToEnd(e2e, phase, setupS, w->daemon().peakRssMb());
  std::vector<SpanLog> logs;
  std::map<std::string, Metric> traced;
  if (opts.trace) {
    for (std::size_t c = 0; c <= w->clients(); ++c) {
      logs.emplace_back(static_cast<std::uint32_t>(c + 1), kSpansPerThread);
    }
    addEndToEnd(traced, w->timed(phaseS, &logs), setupS, w->daemon().peakRssMb());
  }
  const Counters counters = readCounters(w->control());
  w->finish(counters);
  RunResult res = std::move(w->result());
  if (auto* metered = dynamic_cast<StudyMetered*>(w.get());
      metered != nullptr && !metered->frontFault().empty()) {
    std::printf("known fault, counted in failed: Section V %s\n",
                metered->frontFault().c_str());
  }
  const LayerInputs inputs = w->layerInputs();
  w->daemon().stop();

  if (!opts.trace) {
    res.metrics = e2e;
    std::vector<double> rates = phase.winRate;
    std::printf("%zu windows, tunes/s per window: min %.6g, median %.6g, max %.6g\n",
                rates.size(), quantile(rates, 0.0), quantile(rates, 0.5),
                quantile(rates, 1.0));
    printTable("end-to-end", res.metrics);
    std::printf("client latency p50 (best-decile window): %.6g ms\n", clientP50Ms(phase));
    return res;
  }

  SpanLog& layerLog = logs.back();
  const std::uint64_t root = layerLog.open("traced run: per-layer split", 0);
  std::string report;
  runLayers(inputs, layerLog, root, res, &report);
  layerLog.close(root);
  res.metrics["net.frames_per_batch"] = {counters.framesPerBatch, "count"};
  const double resolved = static_cast<double>(
      counters.tally.hits + counters.tally.executed + counters.tally.coalesced);
  res.metrics["broker.hit_share"] = {
      resolved > 0.0 ? static_cast<double>(counters.tally.hits) / resolved : 0.0, "ratio"};
  res.metrics["broker.studies_executed"] = {static_cast<double>(counters.tally.executed), "count"};
  res.metrics["broker.coalesced"] = {static_cast<double>(counters.tally.coalesced), "count"};
  res.metrics["broker.evictions"] = {static_cast<double>(counters.evictions), "count"};
  const double overhead =
      100.0 * (e2e["tunes_per_s"].value - traced["tunes_per_s"].value) /
      e2e["tunes_per_s"].value;
  res.metrics["trace.overhead_pct"] = {overhead, "%"};

  std::filesystem::create_directories(".bench_out");
  const std::string path = ".bench_out/trace_" + opts.workload + "_seed" +
                           std::to_string(opts.seed) + ".json";
  std::vector<const SpanLog*> ptrs;
  std::uint64_t dropped = 0;
  for (const SpanLog& l : logs) {
    ptrs.push_back(&l);
    dropped += l.dropped();
  }
  writeChromeTrace(path, opts.workload, ptrs);

  printTable("end-to-end, untraced phase", e2e);
  printTable("end-to-end, traced phase (client spans on)", traced);
  std::printf("tracing overhead on tunes_per_s: %.2f %%\n", overhead);
  std::printf("daemon ep_serve_request_latency_ms: p50 %.4f ms, p99 %.4f ms"
              " (client-measured p50 %.4f ms, p99 %.4f ms)\n",
              counters.daemonP50Ms, counters.daemonP99Ms,
              clientP50Ms(phase), e2e["latency_p99_ms"].value);
  std::cout << "cold-path reconciliation (replayed layers vs untraced study):\n"
            << report;
  printTable("per-layer", res.metrics);
  std::printf("spans written to %s (%llu dropped past %zu per thread)\n",
              path.c_str(), static_cast<unsigned long long>(dropped),
              kSpansPerThread);
  return res;
}

}  // namespace epbench
