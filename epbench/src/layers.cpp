#include "layers.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>

#include "apps/gpu_matmul_app.hpp"
#include "checks.hpp"
#include "client.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/study.hpp"
#include "core/tuner.hpp"
#include "hw/spec.hpp"
#include "net/frame.hpp"
#include "power/measurer.hpp"
#include "serve/broker.hpp"
#include "serve/engine.hpp"
#include "serve/lru_cache.hpp"
#include "serve/wire.hpp"
#include "serve/wire_binary.hpp"
#include "stats/distributions.hpp"
#include "stats/ttest.hpp"

namespace epbench {

namespace {

using ep::serve::Device;

Device toDevice(Dev d) { return d == Dev::P100 ? Device::P100 : Device::K40c; }

ep::serve::TuneRequest toRequest(const TuneKey& k) {
  ep::serve::TuneRequest r;
  r.device = toDevice(k.dev);
  r.n = k.n;
  r.maxDegradation = k.budget;
  return r;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

// Time `reps` batches of `calls` calls each; one span per batch.  Returns
// the median per-call time in ns.
template <typename Body>
double perCallNs(SpanLog& log, std::uint64_t parent, const char* name,
                 int reps, std::size_t calls, Body&& body) {
  std::vector<double> perCall;
  for (int r = 0; r < reps; ++r) {
    const std::int64_t t0 = nowNs();
    body();
    const std::int64_t t1 = nowNs();
    log.record(name, t0, t1, parent);
    perCall.push_back(static_cast<double>(t1 - t0) /
                      static_cast<double>(calls));
  }
  return median(perCall);
}

ep::core::GpuEpStudy meteredStudy(Dev d) {
  ep::apps::GpuMatMulOptions opts;  // the engine's metered options
  opts.totalProducts = 8;
  opts.useMeter = true;
  return ep::core::GpuEpStudy(ep::apps::GpuMatMulApp(
      ep::hw::GpuModel(d == Dev::P100 ? ep::hw::nvidiaP100Pcie()
                                      : ep::hw::nvidiaK40c()),
      opts));
}

// The stream EpStudyEngine::evaluate derives for (device, n).
ep::Rng engineStream(Dev d, int n) {
  return ep::Rng(kEngineSeed)
      .fork(ep::splitmix64((static_cast<std::uint64_t>(toDevice(d)) + 1) ^
                           static_cast<std::uint64_t>(n)));
}

struct ColdSplit {
  double runS = 0.0;  // untraced GpuEpStudy::runWorkload, serial
  double hwS = 0.0, powerS = 0.0, statsS = 0.0, finalizeS = 0.0;
  double measureS = 0.0;  // EnergyMeasurer::measure, inclusive
  std::size_t configs = 0, windows = 0, tCriticalCalls = 0;
  std::vector<double> onceNs;

  [[nodiscard]] double partsS() const { return hwS + powerS + statsS + finalizeS; }
};

// Each side of the reconciliation is timed this many times and the
// fastest pass kept: interference from the host only ever slows a pass.
constexpr int kReplayPasses = 3;

// meanConfidenceInterval (one studentTCritical call) runs once per
// repetition from minRepetitions on, and once more after a loop that did
// not converge.
std::size_t tCriticalCalls(const ep::stats::MeasurementResult& r,
                           std::size_t minRepetitions) {
  return r.repetitions - minRepetitions + 1 + (r.converged ? 0 : 1);
}

// One pass over a metered study, configuration by configuration, through
// the public functions GpuMatMulApp::runConfig composes: modelMatMul, then
// MeasurementProtocol::runBestEffort over EnergyMeasurer::measureOnce
// (and the time protocol over the same readings).
ColdSplit replayPass(const ep::core::GpuEpStudy& study, Dev d, int n,
                     SpanLog& log, std::uint64_t parent) {
  const ep::apps::GpuMatMulApp& app = study.app();
  const ep::apps::GpuMatMulOptions& opts = app.options();
  ColdSplit s;
  const ep::Rng rng = engineStream(d, n);
  const std::uint64_t replay = log.open("replay/study", parent);
  for (const ep::hw::MatMulConfig& cfg : app.enumerateConfigs(n)) {
    const std::uint64_t span = log.open("replay/config", replay);
    ep::Rng configRng = rng.fork(ep::apps::GpuMatMulApp::forkSalt(cfg));
    const std::int64_t h0 = nowNs();
    const ep::hw::KernelModel km = app.model().modelMatMul(cfg);
    const std::int64_t h1 = nowNs();
    log.record("hw.GpuModel::modelMatMul", h0, h1, span);
    s.hwS += static_cast<double>(h1 - h0) * 1e-9;

    ep::power::ProfilePowerSource profile(app.nodeIdlePower());
    profile.addSegment({ep::Seconds{0.0}, km.time, km.corePower});
    ep::Seconds tail{0.0};
    if (km.uncoreActive) {
      tail = km.uncoreTail;
      profile.addSegment({ep::Seconds{0.0}, km.time + tail, km.uncorePower});
    }
    const ep::power::EnergyMeasurer measurer(
        std::make_shared<const ep::power::WattsUpMeter>(opts.meter),
        app.nodeIdlePower());

    std::vector<ep::power::EnergyReading> readings;
    double onceS = 0.0;
    const std::int64_t p0 = nowNs();
    const std::uint64_t protoSpan = log.open("stats.MeasurementProtocol", span);
    const ep::stats::MeasurementProtocol protocol(opts.measurement);
    const ep::stats::MeasurementResult energy = protocol.runBestEffort([&] {
      const std::int64_t o0 = nowNs();
      readings.push_back(measurer.measureOnce(profile, km.time, configRng, tail));
      const std::int64_t o1 = nowNs();
      log.record("power.EnergyMeasurer::measureOnce", o0, o1, protoSpan);
      onceS += static_cast<double>(o1 - o0) * 1e-9;
      s.onceNs.push_back(static_cast<double>(o1 - o0));
      return readings.back().dynamicEnergy.value();
    });
    ep::stats::MeasurementOptions timeOpts = opts.measurement;
    timeOpts.minRepetitions =
        std::min(opts.measurement.minRepetitions, readings.size());
    timeOpts.maxRepetitions = readings.size();
    std::size_t idx = 0;
    const ep::stats::MeasurementResult time =
        ep::stats::MeasurementProtocol(timeOpts).runBestEffort(
            [&] { return readings[idx++].executionTime.value(); });
    log.close(protoSpan);
    const double protoS = secondsSince(p0);
    s.powerS += onceS;
    s.statsS += protoS - onceS;
    s.windows += readings.size();
    s.tCriticalCalls += tCriticalCalls(energy, opts.measurement.minRepetitions) +
                        tCriticalCalls(time, timeOpts.minRepetitions);
    log.close(span);

    // The same configuration through the measurer's own protocol.
    ep::Rng again = rng.fork(ep::apps::GpuMatMulApp::forkSalt(cfg));
    const std::int64_t m0 = nowNs();
    (void)measurer.measure(profile, km.time, again, tail, opts.measurement,
                           opts.robustness);
    const std::int64_t m1 = nowNs();
    log.record("power.EnergyMeasurer::measure", m0, m1, parent);
    s.measureS += static_cast<double>(m1 - m0) * 1e-9;
    ++s.configs;
  }
  log.close(replay);
  return s;
}

// The fastest of kReplayPasses replays of (d, n), reconciled with the
// fastest of as many untraced serial runWorkload calls of the same key.
ColdSplit replayCold(Dev d, int n, SpanLog& log, std::uint64_t parent) {
  const ep::core::GpuEpStudy study = meteredStudy(d);
  double runS = 1e300, finalizeS = 1e300;
  ColdSplit best;
  double bestParts = 1e300;
  for (int pass = 0; pass < kReplayPasses; ++pass) {
    ep::Rng rng = engineStream(d, n);
    const std::int64_t t0 = nowNs();
    const ep::core::WorkloadResult r = study.runWorkload(n, rng, nullptr);
    runS = std::min(runS, secondsSince(t0));
    log.record("study.GpuEpStudy::runWorkload (untraced)", t0, nowNs(),
               parent);
    ep::core::WorkloadResult copy = r;
    const std::int64_t f0 = nowNs();
    ep::core::finalizeWorkload(copy);
    finalizeS = std::min(finalizeS, secondsSince(f0));
    log.record("study.finalizeWorkload", f0, nowNs(), parent);

    ColdSplit s = replayPass(study, d, n, log, parent);
    if (s.partsS() < bestParts) {
      bestParts = s.partsS();
      best = std::move(s);
    }
  }
  best.runS = runS;
  best.finalizeS = finalizeS;
  return best;
}

}  // namespace

void runLayers(const LayerInputs& in, SpanLog& log, std::uint64_t parent,
               RunResult& result, std::string* report) {
  std::map<std::string, Metric>& m = result.metrics;
  auto put = [&m](const char* name, double v, const char* unit) {
    m[name] = Metric{v, unit};
  };
  const std::size_t nReq = in.requests.size();
  char line[256];

  // --- net: FrameDecoder over the workload's request byte stream.
  {
    const std::uint64_t layer = log.open("layer/net", parent);
    std::string stream;
    for (const TuneKey& k : in.requests) stream += jsonTuneRequest(k, in.report) + "\n";
    std::size_t frames = 0;
    const double ns = perCallNs(log, layer, "net.FrameDecoder::feed", 15, nReq, [&] {
      ep::net::FrameDecoder dec(ep::serve::wire::kMaxFrameBytes);
      std::vector<ep::net::Frame> out;
      out.reserve(nReq);
      for (std::size_t at = 0; at < stream.size(); at += 16384) {
        (void)dec.feed(std::string_view(stream).substr(at, 16384), &out);
      }
      frames = out.size();
    });
    if (frames != nReq) throw std::runtime_error("FrameDecoder lost frames");
    put("net.decode_ns_per_frame", ns, "ns");
    log.close(layer);
  }

  // --- broker (in process, model-direct engine as in the warm daemons),
  // which also yields the responses the codecs encode.
  auto engine = std::make_shared<ep::serve::EpStudyEngine>(
      ep::serve::EpStudyEngineOptions{kEngineSeed});
  ep::serve::BrokerOptions bopts;
  bopts.threads = in.workers;
  bopts.cacheCapacity = in.cacheCapacity;
  std::vector<ep::serve::TuneResponse> responses;
  {
    ep::serve::Broker broker(engine, bopts);
    const std::uint64_t layer = log.open("layer/broker", parent);
    // Hits need the keys cached: use the most recent cacheCapacity keys.
    std::vector<TuneKey> hot;
    for (const TuneKey& k : in.requests) {
      if (hot.size() >= in.cacheCapacity) break;
      if (std::none_of(hot.begin(), hot.end(), [&](const TuneKey& h) {
            return h.dev == k.dev && h.n == k.n;
          })) {
        hot.push_back(k);
      }
    }
    for (const TuneKey& k : hot) (void)broker.tune(toRequest(k));
    std::vector<ep::serve::TuneRequest> hits;
    for (const TuneKey& k : in.requests) {
      if (std::any_of(hot.begin(), hot.end(), [&](const TuneKey& h) {
            return h.dev == k.dev && h.n == k.n;
          })) {
        hits.push_back(toRequest(k));
      }
    }
    std::vector<double> hitNs;
    for (int rep = 0; rep < 10; ++rep) {
      const std::int64_t b0 = nowNs();
      for (const auto& req : hits) {
        const std::int64_t t0 = nowNs();
        ep::serve::TuneResponse resp = broker.submitTune(req).get();
        hitNs.push_back(static_cast<double>(nowNs() - t0));
        if (rep == 0) responses.push_back(std::move(resp));
      }
      log.record("broker.Broker::submitTune (hit)", b0, nowNs(), layer);
    }
    put("broker.hit_ns", median(hitNs), "ns");

    constexpr std::size_t kWindow = 32;  // one pipelined EPB1 window
    std::size_t next = 0;
    const double batchNs = perCallNs(
        log, layer, "broker.Broker::submitTuneBatch", 400, kWindow, [&] {
          std::atomic<std::size_t> done{0};
          std::vector<ep::serve::Broker::TuneBatchItem> batch(kWindow);
          for (auto& item : batch) {
            item.req = hits[next++ % hits.size()];
            item.done = [&done](ep::serve::TuneResponse&&) { ++done; };
          }
          broker.submitTuneBatch(std::move(batch));
          while (done.load() < kWindow) {
          }
        });
    put("broker.batch_ns_per_item", batchNs, "ns");

    // Cold: keys no request used (odd N just above each device's range
    // start), each a model-direct study on the broker's pool.
    std::vector<double> coldNs;
    for (int i = 0; i < 64; ++i) {
      ep::serve::TuneRequest req;
      req.device = i % 2 == 0 ? Device::P100 : Device::K40c;
      req.n = (req.device == Device::P100 ? 10241 : 8705) + 2 * i;
      req.maxDegradation = 0.07;
      const std::int64_t t0 = nowNs();
      (void)broker.submitTune(req).get();
      const std::int64_t t1 = nowNs();
      log.record("broker.Broker::submitTune (cold)", t0, t1, layer);
      coldNs.push_back(static_cast<double>(t1 - t0));
    }
    put("broker.cold_tune_us", median(coldNs) * 1e-3, "us");
    log.close(layer);
  }

  // --- wire: the EPB1 tune codec and the line-JSON codec.
  {
    const std::uint64_t layer = log.open("layer/wire", parent);
    std::vector<std::string> bodies, lines;
    for (const TuneKey& k : in.requests) {
      bodies.push_back(epb1TuneBody(k));
      lines.push_back(jsonTuneRequest(k, in.report));
    }
    std::string error;
    put("wire.epb1_decode_ns",
        perCallNs(log, layer, "wire.wire_binary::decodeTuneRequest", 15, nReq,
                  [&] {
                    for (const auto& b : bodies) {
                      if (!ep::serve::wire_binary::decodeTuneRequest(b, &error)) {
                        throw std::runtime_error("EPB1 decode: " + error);
                      }
                    }
                  }),
        "ns");
    const std::size_t nResp = responses.size();
    std::size_t bytes = 0;
    put("wire.epb1_encode_ns",
        perCallNs(log, layer, "wire.wire_binary::encodeTuneResponse", 15, nResp,
                  [&] {
                    for (const auto& r : responses) {
                      bytes += ep::serve::wire_binary::encodeTuneResponse(r, "", in.report).size();
                    }
                  }),
        "ns");
    put("wire.json_decode_ns",
        perCallNs(log, layer, "wire.wire::decodeRequest", 15, nReq, [&] {
          for (const auto& l : lines) {
            if (!ep::serve::wire::decodeRequest(l, &error)) {
              throw std::runtime_error("JSON decode: " + error);
            }
          }
        }),
        "ns");
    put("wire.json_encode_ns",
        perCallNs(log, layer, "wire.wire::encodeTuneResponse", 15, nResp, [&] {
          for (const auto& r : responses) {
            bytes += ep::serve::wire::encodeTuneResponse(r, "", in.report).size();
          }
        }),
        "ns");
    if (bytes == 0) throw std::runtime_error("codecs produced nothing");
    log.close(layer);
  }

  // --- lru, tuner, hw, study over the workload's distinct keys.
  std::vector<std::pair<Dev, int>> keys;
  for (const TuneKey& k : in.requests) {
    if (std::find(keys.begin(), keys.end(), std::make_pair(k.dev, k.n)) ==
        keys.end()) {
      keys.emplace_back(k.dev, k.n);
    }
  }
  std::vector<std::shared_ptr<const ep::core::WorkloadResult>> results;
  for (const auto& [d, n] : keys) {
    results.push_back(std::make_shared<const ep::core::WorkloadResult>(
        engine->evaluate(toDevice(d), n)));
  }
  {
    const std::uint64_t layer = log.open("layer/lru", parent);
    using Cache = ep::serve::LruCache<ep::serve::StudyKey,
                                      std::shared_ptr<const ep::core::WorkloadResult>,
                                      ep::serve::StudyKeyHash>;
    Cache cache(in.cacheCapacity);
    std::vector<ep::serve::StudyKey> resident;
    for (std::size_t i = 0; i < in.cacheCapacity; ++i) {
      const auto& [d, n] = keys[i % keys.size()];
      ep::serve::StudyKey k{toDevice(d), n, engine->tuningHash(toDevice(d)) + i / keys.size()};
      cache.put(k, results[i % keys.size()]);
      resident.push_back(k);
    }
    constexpr std::size_t kCalls = 4096;
    std::size_t found = 0;
    put("lru.get_ns", perCallNs(log, layer, "lru.LruCache::get", 25, kCalls, [&] {
          for (std::size_t i = 0; i < kCalls; ++i) {
            found += cache.get(resident[(i * 7) % resident.size()]).has_value();
          }
        }),
        "ns");
    std::uint64_t fresh = 1u << 30;
    put("lru.put_evict_ns",
        perCallNs(log, layer, "lru.LruCache::put (evicting)", 25, kCalls, [&] {
          for (std::size_t i = 0; i < kCalls; ++i) {
            cache.put({Device::P100, 1, fresh++}, results[i % results.size()]);
          }
        }),
        "ns");
    if (found == 0 || cache.stats().evictions == 0) {
      throw std::runtime_error("LRU timing did not hit or evict");
    }
    log.close(layer);
  }
  {
    const std::uint64_t layer = log.open("layer/tuner", parent);
    std::vector<double> us;
    for (int rep = 0; rep < 20; ++rep) {
      for (std::size_t i = 0; i < nReq; ++i) {
        const TuneKey& k = in.requests[i];
        const auto at = std::find(keys.begin(), keys.end(), std::make_pair(k.dev, k.n)) - keys.begin();
        const std::int64_t t0 = nowNs();
        const auto rec = ep::core::BiObjectiveTuner(k.budget).recommend(results[at]->globalFront);
        const std::int64_t t1 = nowNs();
        if (rec.recommended.label.empty()) throw std::runtime_error("empty recommendation");
        us.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
    log.record("tuner.BiObjectiveTuner::recommend", nowNs(), nowNs(), layer);
    put("tuner.recommend_us", median(us), "us");
    log.close(layer);
  }
  {
    const std::uint64_t layer = log.open("layer/hw+study", parent);
    std::vector<double> modelNs, finalizeUs, configs;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto& [d, n] = keys[i];
      const ep::hw::GpuModel model(d == Dev::P100 ? ep::hw::nvidiaP100Pcie()
                                                  : ep::hw::nvidiaK40c());
      std::vector<ep::hw::MatMulConfig> cfgs;
      for (const auto& p : results[i]->data) cfgs.push_back(p.config);
      configs.push_back(static_cast<double>(cfgs.size()));
      double sink = 0.0;
      modelNs.push_back(perCallNs(log, layer, "hw.GpuModel::modelMatMul", 5, cfgs.size(), [&] {
        for (const auto& c : cfgs) sink += model.modelMatMul(c).time.value();
      }));
      if (!(sink > 0.0)) throw std::runtime_error("model produced no time");
      for (int rep = 0; rep < 5; ++rep) {
        ep::core::WorkloadResult copy = *results[i];
        const std::int64_t t0 = nowNs();
        ep::core::finalizeWorkload(copy);
        const std::int64_t t1 = nowNs();
        log.record("study.finalizeWorkload", t0, t1, layer);
        finalizeUs.push_back(static_cast<double>(t1 - t0) * 1e-3);
      }
    }
    put("hw.model_matmul_ns", median(modelNs), "ns");
    put("hw.configs_per_study", median(configs), "count");
    put("study.finalize_us", median(finalizeUs), "us");
    log.close(layer);
  }

  // --- pool: hand-off wait of tasks given to the daemon-sized pool.
  {
    const std::uint64_t layer = log.open("layer/pool", parent);
    ep::ThreadPool pool(in.workers);
    std::vector<double> waitUs;
    std::mutex mu;
    std::condition_variable cv;
    for (int round = 0; round < 2000; ++round) {
      std::size_t left = in.workers;
      for (std::size_t t = 0; t < in.workers; ++t) {
        const std::int64_t submitted = nowNs();
        pool.submit([&, submitted] {
          const std::int64_t started = nowNs();
          std::lock_guard lk(mu);
          waitUs.push_back(static_cast<double>(started - submitted) * 1e-3);
          if (--left == 0) cv.notify_one();
        });
      }
      std::unique_lock lk(mu);
      cv.wait(lk, [&] { return left == 0; });
    }
    log.record("pool.ThreadPool::submit (x2000 rounds)", nowNs(), nowNs(), layer);
    put("pool.queue_wait_us", median(waitUs), "us");

    // Study scaling on the daemon's worker count vs one thread.
    std::vector<double> speedups;
    for (const auto& [d, n] : in.coldKeys) {
      const ep::core::GpuEpStudy study = meteredStudy(d);
      double seconds[2] = {0.0, 0.0};
      for (int which = 0; which < 2; ++which) {
        ep::ThreadPool p(which == 0 ? 1 : in.workers);
        ep::Rng rng = engineStream(d, n);
        const std::int64_t t0 = nowNs();
        (void)study.runWorkload(n, rng, &p);
        seconds[which] = secondsSince(t0);
        log.record(which == 0 ? "pool.runWorkload (1 thread)"
                              : "pool.runWorkload (daemon workers)",
                   t0, nowNs(), layer);
      }
      speedups.push_back(seconds[0] / seconds[1]);
    }
    put("pool.study_speedup", median(speedups), "x");
    log.close(layer);
  }

  // --- power + stats: the cold path replayed configuration by
  // configuration, reconciled with an untraced runWorkload of the key.
  {
    const std::uint64_t layer = log.open("layer/power+stats", parent);
    ColdSplit total;
    std::vector<double> onceNs;
    for (const auto& [d, n] : in.coldKeys) {
      const ColdSplit s = replayCold(d, n, log, layer);
      const double parts = s.partsS();
      std::snprintf(line, sizeof line,
                    "  replay %s N=%d: hw %.1f ms + power %.1f ms + stats %.1f ms"
                    " + finalize %.2f ms = %.1f ms vs runWorkload %.1f ms"
                    " (ratio %.3f)\n",
                    devName(d), n, s.hwS * 1e3, s.powerS * 1e3, s.statsS * 1e3,
                    s.finalizeS * 1e3, parts * 1e3, s.runS * 1e3, parts / s.runS);
      *report += line;
      total.runS += s.runS;
      total.hwS += s.hwS;
      total.powerS += s.powerS;
      total.statsS += s.statsS;
      total.finalizeS += s.finalizeS;
      total.measureS += s.measureS;
      total.configs += s.configs;
      total.windows += s.windows;
      total.tCriticalCalls += s.tCriticalCalls;
      onceNs.insert(onceNs.end(), s.onceNs.begin(), s.onceNs.end());
    }
    const double cfgs = static_cast<double>(total.configs);
    put("power.measure_ms_per_config", total.measureS * 1e3 / cfgs, "ms");
    put("power.measure_once_us", median(onceNs) * 1e-3, "us");
    put("power.windows_per_config", static_cast<double>(total.windows) / cfgs, "count");
    put("stats.protocol_self_us_per_config", total.statsS * 1e6 / cfgs, "us");
    put("stats.t_critical_calls_per_config",
        static_cast<double>(total.tCriticalCalls) / cfgs, "count");
    const double gap = std::fabs(total.partsS() / total.runS - 1.0);
    put("study.replay_gap", gap, "ratio");
    const std::string err = checkReplay(total.partsS(), total.runS);
    std::snprintf(line, sizeof line, "  replay gap %.3f: %s (tolerance %.2f)\n", gap,
                  err.empty() ? "reconciles" : "DOES NOT reconcile",
                  kReplayTolerance);
    *report += line;
    if (!err.empty()) result.fail("cold-path reconciliation: " + err);
    std::vector<double> tNs;
    for (double dof = 4.0; dof <= 12.0; dof += 1.0) {
      volatile double t = 0.0;
      tNs.push_back(perCallNs(log, layer, "stats.studentTCritical", 5, 50, [&] {
        for (int i = 0; i < 50; ++i) t = ep::stats::studentTCritical(0.95, dof);
      }));
      (void)t;
    }
    put("stats.t_critical_us", median(tNs) * 1e-3, "us");
    log.close(layer);
  }
}

}  // namespace epbench
