#include "checks.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>

namespace epbench {

namespace {

bool same(double got, double want) {
  return std::fabs(got - want) <= 1e-9 * std::fabs(want) + 1e-15;
}

std::string mismatch(const char* what, const std::string& got,
                     const std::string& want) {
  return std::string(what) + " is " + got + ", expected " + want;
}

std::string mismatch(const char* what, double got, double want) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "%s is %.12g, expected %.12g", what, got,
                want);
  return buf;
}

}  // namespace

std::string checkTune(const TuneAnswer& got, const Selection& want) {
  if (!got.ok) return "tune failed: " + got.error;
  if (got.recommended != want.recommended) {
    return mismatch("recommended", got.recommended, want.recommended);
  }
  if (got.performanceOptimal != want.performanceOptimal) {
    return mismatch("performanceOptimal", got.performanceOptimal,
                    want.performanceOptimal);
  }
  if (got.energyOptimal != want.energyOptimal) {
    return mismatch("energyOptimal", got.energyOptimal, want.energyOptimal);
  }
  if (!same(got.recommendedTimeS, want.recommendedTimeS)) {
    return mismatch("recommendedTimeS", got.recommendedTimeS,
                    want.recommendedTimeS);
  }
  if (!same(got.recommendedEnergyJ, want.recommendedEnergyJ)) {
    return mismatch("recommendedEnergyJ", got.recommendedEnergyJ,
                    want.recommendedEnergyJ);
  }
  if (!same(got.energySavings, want.energySavings)) {
    return mismatch("energySavings", got.energySavings, want.energySavings);
  }
  if (!same(got.performanceDegradation, want.performanceDegradation)) {
    return mismatch("performanceDegradation", got.performanceDegradation,
                    want.performanceDegradation);
  }
  return "";
}

std::string checkMetered(const TuneAnswer& got, const TuneKey& key,
                         double modelEnergy) {
  if (!got.ok) return "metered tune failed: " + got.error;
  if (got.performanceDegradation > key.budget * (1.0 + 1e-12) + 1e-15) {
    return mismatch("degradation over budget", got.performanceDegradation,
                    key.budget);
  }
  if (modelEnergy <= 0.0) {
    return "recommended label does not name a launchable configuration: " +
           got.recommended;
  }
  if (std::fabs(got.recommendedEnergyJ - modelEnergy) >
      kMeteredEnergyTolerance * modelEnergy) {
    return mismatch("metered energy of the recommendation",
                    got.recommendedEnergyJ, modelEnergy);
  }
  return "";
}

std::string checkLedger(double attributedJoules, double expectedJoules) {
  if (!same(attributedJoules, expectedJoules)) {
    return mismatch("summed attributedJoules", attributedJoules,
                    expectedJoules);
  }
  return "";
}

std::string checkTallies(const Tally& client, const Tally& daemon,
                         std::uint64_t requestsSent) {
  auto num = [](std::uint64_t v) { return std::to_string(v); };
  if (client.hits != daemon.hits) {
    return mismatch("client cache-hit count", num(client.hits),
                    num(daemon.hits) + " (daemon cacheHits)");
  }
  if (client.executed != daemon.executed) {
    return mismatch("client executed-study count", num(client.executed),
                    num(daemon.executed) + " (daemon studiesExecuted)");
  }
  if (client.coalesced != daemon.coalesced) {
    return mismatch("client coalesced count", num(client.coalesced),
                    num(daemon.coalesced) + " (daemon coalesced)");
  }
  const std::uint64_t sum = client.hits + client.executed + client.coalesced;
  if (sum != requestsSent) {
    return mismatch("hits + executed + coalesced", num(sum),
                    num(requestsSent) + " (requests sent)");
  }
  return "";
}

std::string checkSectionV(const FrontBand& b) {
  if (std::fabs(b.k40cLocalSavings - 0.18) > kSavingsTolerance) {
    return mismatch("K40c max local savings", b.k40cLocalSavings, 0.18);
  }
  if (std::fabs(b.k40cLocalDegradation - 0.07) > kDegradationTolerance) {
    return mismatch("K40c degradation at max local savings",
                    b.k40cLocalDegradation, 0.07);
  }
  if (b.k40cMaxLocalFront != 5) {
    return mismatch("K40c max local front size",
                    static_cast<double>(b.k40cMaxLocalFront), 5.0);
  }
  if (std::fabs(b.p100GlobalSavings - 0.50) > kSavingsTolerance) {
    return mismatch("P100 max global savings", b.p100GlobalSavings, 0.50);
  }
  if (std::fabs(b.p100GlobalDegradation - 0.11) > kDegradationTolerance) {
    return mismatch("P100 degradation at max global savings",
                    b.p100GlobalDegradation, 0.11);
  }
  return "";
}

std::string checkP100FrontSize(const FrontBand& b) {
  if (b.p100MaxGlobalFront != 3) {
    return mismatch("P100 max global front size",
                    static_cast<double>(b.p100MaxGlobalFront), 3.0);
  }
  return "";
}

std::string checkReplay(double partsS, double wholeS) {
  if (!(wholeS > 0.0) ||
      std::fabs(partsS / wholeS - 1.0) > kReplayTolerance) {
    return mismatch("replayed hw + power + stats + finalize time (s)", partsS,
                    wholeS);
  }
  return "";
}

int selfTest() {
  int failures = 0;
  auto expect = [&](const char* name, const std::string& good,
                    const std::string& corrupted) {
    const bool ok = good.empty() && !corrupted.empty();
    std::cout << (ok ? "ok   " : "FAIL ") << name << ": good input "
              << (good.empty() ? "accepted" : "rejected (" + good + ")")
              << "; corrupted input "
              << (corrupted.empty() ? "accepted" : "rejected (" + corrupted + ")")
              << "\n";
    if (!ok) ++failures;
  };

  Oracle oracle;
  // A key whose recommendation differs from its performance optimum, so
  // swapping the two labels is a real corruption.
  const TuneKey key{Dev::P100, 12288, 0.11};
  oracle.prepare(key.dev, key.n);
  const Selection want = oracle.select(key.dev, key.n, key.budget);
  TuneAnswer good;
  good.ok = true;
  good.recommended = want.recommended;
  good.performanceOptimal = want.performanceOptimal;
  good.energyOptimal = want.energyOptimal;
  good.recommendedTimeS = want.recommendedTimeS;
  good.recommendedEnergyJ = want.recommendedEnergyJ;
  good.energySavings = want.energySavings;
  good.performanceDegradation = want.performanceDegradation;
  TuneAnswer swapped = good;
  std::swap(swapped.recommended, swapped.performanceOptimal);
  expect("tune answer vs brute force (labels swapped)", checkTune(good, want),
         checkTune(swapped, want));

  const double modelJ = oracle.modelEnergy(key.dev, key.n, good.recommended);
  TuneAnswer metered = good;
  metered.recommendedEnergyJ = modelJ * 1.01;
  TuneAnswer drifted = metered;
  drifted.recommendedEnergyJ = modelJ * 1.10;
  expect("metered energy vs model (energy +10 %)",
         checkMetered(metered, key, modelJ), checkMetered(drifted, key, modelJ));
  TuneAnswer overBudget = metered;
  overBudget.performanceDegradation = key.budget * 1.5;
  expect("metered degradation vs budget (1.5x budget)",
         checkMetered(metered, key, modelJ),
         checkMetered(overBudget, key, modelJ));

  // Ledger over three executed studies; the corrupted ledger doubles the
  // joules of one of them.
  const int ns[] = {10240, 11000, 12288};
  double expected = 0.0, ledger = 0.0, doubled = 0.0;
  for (int n : ns) {
    oracle.prepare(Dev::K40c, n);
    const double j = oracle.studyEnergy(Dev::K40c, n);
    expected += j;
    ledger += j;
    doubled += n == 11000 ? 2.0 * j : j;
  }
  expect("ledger conservation (one study's joules doubled)",
         checkLedger(ledger, expected), checkLedger(doubled, expected));

  const Tally daemon{700, 290, 10};
  Tally offByOne = daemon;
  offByOne.coalesced += 1;
  expect("client/daemon tallies (one coalesced join miscounted)",
         checkTallies(daemon, daemon, 1000),
         checkTallies(offByOne, daemon, 1001));

  const FrontBand paper{0.18, 0.07, 5, 0.50, 0.11, 3};
  FrontBand moved = paper;
  moved.k40cLocalSavings = 0.25;  // 25 % @ 7 %: outside the band
  expect("Section V trade-offs (K40c savings moved to 25 %)",
         checkSectionV(paper), checkSectionV(moved));
  FrontBand wide = paper;
  wide.p100MaxGlobalFront = 4;
  expect("Section V P100 front size (4 points)", checkP100FrontSize(paper),
         checkP100FrontSize(wide));

  expect("cold-path reconciliation (replayed layers 1.5x the study)",
         checkReplay(0.204, 0.200), checkReplay(0.300, 0.200));

  std::cout << (failures == 0 ? "selftest passed" : "selftest FAILED") << "\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace epbench
