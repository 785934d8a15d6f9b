//===- analysis/CostModel.h - Profile-guided selection ----------*- C++ -*-===//
//
// The paper's hotloop selection heuristics (Section 5): vectorize hotloops
// with minimum coverage ≈ 5%, minimum average trip count 16, minimum
// effective vector length 6, and vector memory-to-compute ratio ≤ 2.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ANALYSIS_COSTMODEL_H
#define FLEXVEC_ANALYSIS_COSTMODEL_H

#include "analysis/Patterns.h"

#include <string>

namespace flexvec {
namespace analysis {

/// Profile summary for one candidate loop (produced by src/profile).
struct LoopProfile {
  double AvgTripCount = 0;
  /// Average dynamic cross-iteration dependency events per invocation
  /// (conditional updates taken, conflicts detected, early exits).
  double AvgDepEvents = 0;
  /// Effective vector length: avg trip count / avg (dep events + 1).
  double EffectiveVL = 0;
  /// Fraction of whole-application time spent in this loop.
  double Coverage = 0;
};

/// Static shape summary derived from the IR.
struct LoopShape {
  unsigned VectorMemoryOps = 0; ///< Gathers + scatters + vector loads/stores.
  unsigned GatherScatterOps = 0;
  unsigned ComputeOps = 0; ///< Arithmetic/compare operations.

  double memToComputeRatio() const {
    return ComputeOps == 0 ? static_cast<double>(VectorMemoryOps)
                           : static_cast<double>(VectorMemoryOps) /
                                 static_cast<double>(ComputeOps);
  }
};

/// Computes the static shape of \p F (counts vector memory and compute ops
/// the vectorized loop will need).
LoopShape computeLoopShape(const ir::LoopFunction &F);

/// Selection thresholds (Section 5).
inline constexpr double MinCoverage = 0.05;
inline constexpr double MinTripCount = 16;
inline constexpr double MinEffectiveVL = 6;
inline constexpr double MaxMemToCompute = 2.0;

/// Decision with an explanation.
struct CostDecision {
  bool Vectorize = false;
  std::string Reason;
};

/// Applies the paper's profile-guided heuristics.
CostDecision shouldVectorize(const VectorizationPlan &Plan,
                             const LoopShape &Shape,
                             const LoopProfile &Profile);

} // namespace analysis
} // namespace flexvec

#endif // FLEXVEC_ANALYSIS_COSTMODEL_H
