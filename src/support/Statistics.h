//===- support/Statistics.h - Summary statistics ---------------*- C++ -*-===//
//
// Aggregation helpers used by the evaluation harness (geomean speedups).
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SUPPORT_STATISTICS_H
#define FLEXVEC_SUPPORT_STATISTICS_H

#include <vector>

namespace flexvec {

/// Geometric mean; 0 for an empty range. All values must be positive.
double geomean(const std::vector<double> &Values);

} // namespace flexvec

#endif // FLEXVEC_SUPPORT_STATISTICS_H
