// Every correctness check of the benchmark, as pure functions over what
// the daemon answered and what the benchmark computed apart from it.
// Each returns "" on success or a description of the mismatch; selfTest()
// proves each one rejects a corrupted input.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "client.hpp"
#include "oracle.hpp"

namespace epbench {

// A metered answer's recommended energy must lie within this share of the
// noise-free model energy of the same configuration: twice the protocol's
// 2.5 % CI precision target, which bounds the mean's error at 95 %.
inline constexpr double kMeteredEnergyTolerance = 0.05;
// Section V band around the paper's headline trade-offs, in absolute
// fractions (0.02 = 2 percentage points).
inline constexpr double kSavingsTolerance = 0.02;
inline constexpr double kDegradationTolerance = 0.015;
// The traced run's replayed hw + power + stats + finalize time must match
// an untraced GpuEpStudy::runWorkload of the same keys within this share.
inline constexpr double kReplayTolerance = 0.10;

// A model-direct answer equals the brute-force selection: labels exactly,
// numbers to 1e-9 relative (the JSON wire prints 12 digits).
std::string checkTune(const TuneAnswer& got, const Selection& want);

// A metered answer: recommended degradation within its budget and the
// measured energy within kMeteredEnergyTolerance of the model energy.
std::string checkMetered(const TuneAnswer& got, const TuneKey& key,
                         double modelEnergy);

// Summed attributedJoules against the benchmark's sum of model study
// energies over the responses that executed a study.
std::string checkLedger(double attributedJoules, double expectedJoules);

struct Tally {
  std::uint64_t hits = 0, executed = 0, coalesced = 0;
};
// Client tallies equal the daemon's counters and cover every request.
std::string checkTallies(const Tally& client, const Tally& daemon,
                         std::uint64_t requestsSent);

// The Section V sweep as the {"op":"study"} responses report it.
struct FrontBand {
  double k40cLocalSavings = 0.0, k40cLocalDegradation = 0.0;
  std::size_t k40cMaxLocalFront = 0;
  double p100GlobalSavings = 0.0, p100GlobalDegradation = 0.0;
  std::size_t p100MaxGlobalFront = 0;
};
// Trade-offs within the band of 18 % @ 7 % (K40c, local front) and
// 50 % @ 11 % (P100, global front); K40c maximum local front of 5.
std::string checkSectionV(const FrontBand& band);
// The paper's P100 maximum global front of 3 points.
std::string checkP100FrontSize(const FrontBand& band);

// The replayed layers account for the untraced study: |parts / whole - 1|
// within kReplayTolerance.
std::string checkReplay(double partsS, double wholeS);

// Feed each check a good and a corrupted input; 0 iff every check
// accepts the first and rejects the second.
int selfTest();

}  // namespace epbench
