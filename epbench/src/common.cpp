#include "common.hpp"

#include <algorithm>
#include <cmath>

namespace epbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(lo), v.end());
  const double a = v[lo];
  if (lo + 1 >= v.size()) return a;
  const double b = *std::min_element(v.begin() + static_cast<std::ptrdiff_t>(lo) + 1, v.end());
  return a + (b - a) * (pos - static_cast<double>(lo));
}

const std::vector<int>& sectionVSizes(Dev d) {
  static const std::vector<int> k40c = {8704,  9216,  9728,  10240,
                                        11264, 12288, 13312, 14336};
  static const std::vector<int> p100 = {10240, 11264, 12288, 13312, 14336,
                                        15360, 16384, 17408, 18432};
  return d == Dev::K40c ? k40c : p100;
}

}  // namespace epbench
