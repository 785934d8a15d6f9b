//===- support/Statistics.cpp ---------------------------------------------===//

#include "support/Statistics.h"

#include <cassert>
#include <cmath>

using namespace flexvec;

double flexvec::geomean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0.0;
  double LogSum = 0.0;
  for (double V : Values) {
    assert(V > 0.0 && "geomean requires positive values");
    LogSum += std::log(V);
  }
  return std::exp(LogSum / static_cast<double>(Values.size()));
}
