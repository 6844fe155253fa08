#include "oracle.hpp"

#include <cstdio>
#include <stdexcept>

#include "common/error.hpp"
#include "hw/spec.hpp"

namespace epbench {

namespace {

constexpr int kProducts = 8;  // G x R of the service's weak-EP study

std::pair<int, int> keyOf(Dev d, int n) { return {static_cast<int>(d), n}; }

// Strictly better under the order (primary, secondary); ties keep the
// earlier enumeration index.
bool better(double p1, double s1, double p2, double s2) {
  return p1 < p2 || (p1 == p2 && s1 < s2);
}

}  // namespace

std::string ModelPoint::label() const {
  char buf[48];
  std::snprintf(buf, sizeof buf, "BS=%d G=%d R=%d", bs, g, r);
  return buf;
}

Oracle::Oracle()
    : p100_(ep::hw::nvidiaP100Pcie()), k40c_(ep::hw::nvidiaK40c()) {}

void Oracle::prepare(Dev d, int n) {
  auto& pts = points_[keyOf(d, n)];
  if (!pts.empty()) return;
  for (int bs = 1; bs <= 32; ++bs) {
    for (int g = 1; g <= kProducts; ++g) {
      if (kProducts % g != 0) continue;
      const ep::hw::MatMulConfig cfg{n, bs, g, kProducts / g};
      try {
        const ep::hw::KernelModel km = model(d).modelMatMul(cfg);
        pts.push_back({bs, g, cfg.r, km.time.value(),
                       km.dynamicEnergy().value()});
      } catch (const ep::ResourceError&) {
        // Not launchable: not part of the configuration space.
      }
    }
  }
  if (pts.empty()) throw std::runtime_error("no launchable configuration");
}

const std::vector<ModelPoint>& Oracle::points(Dev d, int n) const {
  const auto it = points_.find(keyOf(d, n));
  if (it == points_.end()) throw std::logic_error("oracle key not prepared");
  return it->second;
}

Selection Oracle::select(Dev d, int n, double budget) const {
  const auto& pts = points(d, n);
  const ModelPoint* fastest = &pts.front();
  const ModelPoint* cheapest = &pts.front();
  for (const auto& p : pts) {
    if (better(p.time, p.energy, fastest->time, fastest->energy)) fastest = &p;
    if (better(p.energy, p.time, cheapest->energy, cheapest->time)) cheapest = &p;
  }
  const double tLimit = fastest->time * (1.0 + budget);
  const ModelPoint* chosen = nullptr;
  for (const auto& p : pts) {
    if (p.time > tLimit) continue;
    if (chosen == nullptr ||
        better(p.energy, p.time, chosen->energy, chosen->time)) {
      chosen = &p;
    }
  }
  Selection s;
  s.performanceOptimal = fastest->label();
  s.energyOptimal = cheapest->label();
  if (chosen->energy >= fastest->energy) chosen = fastest;
  s.recommended = chosen->label();
  s.recommendedTimeS = chosen->time;
  s.recommendedEnergyJ = chosen->energy;
  if (chosen != fastest) {
    s.energySavings = (fastest->energy - chosen->energy) / fastest->energy;
    s.performanceDegradation = (chosen->time - fastest->time) / fastest->time;
  }
  return s;
}

double Oracle::studyEnergy(Dev d, int n) const {
  double sum = 0.0;
  for (const auto& p : points(d, n)) sum += p.energy;
  return sum;
}

double Oracle::modelEnergy(Dev d, int n, const std::string& label) const {
  int bs = 0, g = 0, r = 0;
  if (std::sscanf(label.c_str(), "BS=%d G=%d R=%d", &bs, &g, &r) != 3) {
    return -1.0;
  }
  try {
    return model(d).modelMatMul({n, bs, g, r}).dynamicEnergy().value();
  } catch (const ep::EpError&) {
    return -1.0;
  }
}

}  // namespace epbench
