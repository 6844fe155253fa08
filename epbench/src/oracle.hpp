// The benchmark's own answer to a tune request, computed apart from the
// service: every launchable (BS, G, R) with G x R = 8 is evaluated with
// hw::GpuModel::modelMatMul and the optima are selected by brute force,
// with no pareto or tuner call.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common.hpp"
#include "hw/gpu_model.hpp"

namespace epbench {

struct ModelPoint {
  int bs = 0, g = 0, r = 0;
  double time = 0.0;    // s
  double energy = 0.0;  // dynamic J
  [[nodiscard]] std::string label() const;
};

struct Selection {
  std::string recommended, performanceOptimal, energyOptimal;
  double recommendedTimeS = 0.0, recommendedEnergyJ = 0.0;
  double energySavings = 0.0, performanceDegradation = 0.0;
};

class Oracle {
 public:
  Oracle();

  // Not thread-safe while filling: call prepare() for every key before
  // handing the oracle to client threads, which then only read.
  void prepare(Dev d, int n);
  [[nodiscard]] const std::vector<ModelPoint>& points(Dev d, int n) const;
  [[nodiscard]] Selection select(Dev d, int n, double budget) const;
  // Noise-free dynamic energy of a whole study, summed in enumeration
  // order: the ledger entry an executed model-direct study must carry.
  [[nodiscard]] double studyEnergy(Dev d, int n) const;
  // Noise-free dynamic energy of one configuration given by its label
  // ("BS=24 G=2 R=4"); negative when the label does not parse.
  [[nodiscard]] double modelEnergy(Dev d, int n, const std::string& label) const;

  [[nodiscard]] const ep::hw::GpuModel& model(Dev d) const {
    return d == Dev::P100 ? p100_ : k40c_;
  }

 private:
  ep::hw::GpuModel p100_;
  ep::hw::GpuModel k40c_;
  std::map<std::pair<int, int>, std::vector<ModelPoint>> points_;
};

}  // namespace epbench
