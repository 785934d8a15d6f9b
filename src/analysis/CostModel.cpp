//===- analysis/CostModel.cpp ---------------------------------------------===//

#include "analysis/CostModel.h"

using namespace flexvec;
using namespace flexvec::analysis;
using namespace flexvec::ir;

LoopShape analysis::computeLoopShape(const LoopFunction &F) {
  LoopShape Shape;
  auto countAccess = [&Shape](const Expr *Index) {
    ++Shape.VectorMemoryOps;
    if (!pdg::matchAffine(Index))
      ++Shape.GatherScatterOps;
  };
  forEachStmt(F, [&](const Stmt *S) {
    if (S->Kind == StmtKind::StoreArray)
      countAccess(S->Index);
    forEachExpr(*S, [&](const Expr *E) {
      if (E->Kind == ExprKind::ArrayRef)
        countAccess(E->Index);
      else if (E->Lhs) // Binary, Compare, LogicalAnd.
        ++Shape.ComputeOps;
    });
  });
  return Shape;
}

CostDecision analysis::shouldVectorize(const VectorizationPlan &Plan,
                                       const LoopShape &Shape,
                                       const LoopProfile &Profile) {
  CostDecision D;
  if (!Plan.Vectorizable) {
    D.Reason = "not legal: " + Plan.Reason;
    return D;
  }
  if (Profile.Coverage < MinCoverage) {
    D.Reason = "coverage below threshold";
    return D;
  }
  if (Profile.AvgTripCount < MinTripCount) {
    D.Reason = "average trip count below 16";
    return D;
  }
  if (Plan.needsFlexVec() && Profile.EffectiveVL < MinEffectiveVL) {
    D.Reason = "effective vector length below 6";
    return D;
  }
  if (Shape.memToComputeRatio() > MaxMemToCompute) {
    D.Reason = "vector memory to compute ratio above 2";
    return D;
  }
  D.Vectorize = true;
  D.Reason = "profitable";
  return D;
}
