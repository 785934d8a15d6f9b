//===- analysis/CostModel.cpp ---------------------------------------------===//

#include "analysis/CostModel.h"

#include "support/Error.h"

using namespace flexvec;
using namespace flexvec::analysis;
using namespace flexvec::ir;

namespace {

void countExpr(const Expr *E, LoopShape &Shape) {
  switch (E->Kind) {
  case ExprKind::ConstInt:
  case ExprKind::ConstFloat:
  case ExprKind::ScalarRef:
  case ExprKind::IndexRef:
    return;
  case ExprKind::ArrayRef:
    ++Shape.VectorMemoryOps;
    if (!pdg::matchAffine(E->Index))
      ++Shape.GatherScatterOps;
    countExpr(E->Index, Shape);
    return;
  case ExprKind::Binary:
  case ExprKind::Compare:
  case ExprKind::LogicalAnd:
    ++Shape.ComputeOps;
    countExpr(E->Lhs, Shape);
    countExpr(E->Rhs, Shape);
    return;
  }
  unreachable("unknown expr kind");
}

} // namespace

LoopShape analysis::computeLoopShape(const LoopFunction &F) {
  LoopShape Shape;
  F.forEachStmt([&Shape](const Stmt *S) {
    switch (S->Kind) {
    case StmtKind::AssignScalar:
      countExpr(S->Value, Shape);
      break;
    case StmtKind::StoreArray:
      ++Shape.VectorMemoryOps;
      if (!pdg::matchAffine(S->Index))
        ++Shape.GatherScatterOps;
      countExpr(S->Index, Shape);
      countExpr(S->Value, Shape);
      break;
    case StmtKind::If:
      countExpr(S->Cond, Shape);
      break;
    case StmtKind::Break:
      break;
    }
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
