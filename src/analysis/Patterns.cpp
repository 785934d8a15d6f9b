//===- analysis/Patterns.cpp ----------------------------------------------===//

#include "analysis/Patterns.h"

#include <algorithm>
#include <cassert>

using namespace flexvec;
using namespace flexvec::analysis;
using namespace flexvec::ir;
using namespace flexvec::pdg;

namespace {

/// Maps a node to its top-level ancestor's index in F.body(); -1 on error.
int topLevelIndexOf(const Pdg &P, int Node) {
  int N = Node;
  while (P.controlParent(N) != Pdg::HeaderNode)
    N = P.controlParent(N);
  const auto &Body = P.function().body();
  for (size_t I = 0; I < Body.size(); ++I)
    if (Body[I]->Id == N)
      return static_cast<int>(I);
  return -1;
}

/// Recognizes reduction idioms on the def at node \p D. Uses[] is the set
/// of nodes reading the scalar.
bool matchReduction(const Pdg &P, int D, const std::vector<int> &UseNodes,
                    ReductionInfo &Out) {
  const Stmt *Def = P.stmtOf(D);
  int S = Def->ScalarId;

  // Direct form: s = s <op> e (op in {+, min, max}), s read only here.
  if (Def->Value->Kind == ExprKind::Binary) {
    const Expr *V = Def->Value;
    bool LhsIsS =
        V->Lhs->Kind == ExprKind::ScalarRef && V->Lhs->ScalarId == S;
    bool RhsIsS =
        V->Rhs->Kind == ExprKind::ScalarRef && V->Rhs->ScalarId == S;
    const Expr *Other = LhsIsS ? V->Rhs : V->Lhs;
    if ((LhsIsS || RhsIsS) && !exprReadsScalar(Other, S)) {
      ReductionKind Kind;
      switch (V->Op) {
      case BinOp::Add:
        Kind = ReductionKind::Add;
        break;
      case BinOp::Min:
        Kind = ReductionKind::Min;
        break;
      case BinOp::Max:
        Kind = ReductionKind::Max;
        break;
      default:
        return false;
      }
      // The accumulator must not be read anywhere else in the loop.
      for (int U : UseNodes)
        if (U != D)
          return false;
      // A direct reduction must execute unconditionally (a guarded add is
      // still fine for if-conversion but complicates last-value extraction;
      // masked reduce handles it, so allow guards too).
      Out = ReductionInfo{D, S, Kind, 0};
      return true;
    }
  }

  // Guarded form:  if (e < s) s = e;   (and the 3 comparison variants).
  int G = P.controlParent(D);
  if (G == Pdg::HeaderNode)
    return false;
  const Stmt *Guard = P.stmtOf(G);
  if (Guard->Then.size() != 1 || !Guard->Else.empty() ||
      Guard->Then[0]->Id != Def->Id)
    return false;
  if (Guard->Cond->Kind != ExprKind::Compare)
    return false;
  const Expr *C = Guard->Cond;
  bool LhsIsS = C->Lhs->Kind == ExprKind::ScalarRef && C->Lhs->ScalarId == S;
  bool RhsIsS = C->Rhs->Kind == ExprKind::ScalarRef && C->Rhs->ScalarId == S;
  if (!LhsIsS && !RhsIsS)
    return false;
  // The updated value must not itself read s.
  if (exprReadsScalar(Def->Value, S))
    return false;
  // s must be read only by the guard condition.
  for (int U : UseNodes)
    if (U != G)
      return false;
  // Direction: (e < s) then s = e  → min;  (e > s) → max.
  CmpKind K = C->Cmp;
  if (RhsIsS) {
    // e <K> s forms.
    if (K == CmpKind::LT || K == CmpKind::LE)
      Out = ReductionInfo{D, S, ReductionKind::Min, G};
    else if (K == CmpKind::GT || K == CmpKind::GE)
      Out = ReductionInfo{D, S, ReductionKind::Max, G};
    else
      return false;
  } else {
    // s <K> e forms.
    if (K == CmpKind::GT || K == CmpKind::GE)
      Out = ReductionInfo{D, S, ReductionKind::Min, G};
    else if (K == CmpKind::LT || K == CmpKind::LE)
      Out = ReductionInfo{D, S, ReductionKind::Max, G};
    else
      return false;
  }
  return true;
}

} // namespace

void VectorizationPlan::seal(int NumStmts) {
  SpecLoadBits.assign(static_cast<size_t>(NumStmts) / 64 + 1, 0);
  for (int N : SpeculativeLoadNodes)
    if (N >= 0 && N <= NumStmts)
      SpecLoadBits[static_cast<size_t>(N) / 64] |=
          static_cast<uint64_t>(1) << (N % 64);
}

std::string VectorizationPlan::describe(const LoopFunction &F) const {
  std::string Out = "plan for " + F.name() + ": ";
  if (!Vectorizable)
    return Out + "not vectorizable (" + Reason + ")";
  Out += needsFlexVec() ? "FlexVec" : "traditional";
  for (const auto &R : Reductions)
    Out += "; reduction of " + F.scalar(R.ScalarId).Name;
  for (const auto &E : EarlyExits)
    Out += "; early-exit guard S" + std::to_string(E.GuardNode);
  for (const auto &V : CondUpdateVpls) {
    Out += "; cond-update VPL over body[" + std::to_string(V.FirstTop) +
           ".." + std::to_string(V.LastTop) + "] updating";
    for (const auto &U : V.Updates)
      Out += " " + F.scalar(U.ScalarId).Name;
  }
  for (const auto &V : MemConflictVpls)
    Out += "; mem-conflict VPL over body[" + std::to_string(V.FirstTop) +
           ".." + std::to_string(V.LastTop) + "] on " +
           F.array(V.ArrayId).Name;
  if (!SpeculativeLoadNodes.empty()) {
    Out += "; speculative loads in";
    for (int N : SpeculativeLoadNodes)
      Out += " S" + std::to_string(N);
  }
  return Out;
}

VectorizationPlan analysis::analyzeLoop(const Pdg &P) {
  const LoopFunction &F = P.function();
  VectorizationPlan Plan;

  // Per-scalar use-node lists.
  std::vector<std::vector<int>> UseNodesOf(F.scalars().size());
  for (int N = 1; N < P.numNodes(); ++N)
    for (int S : P.scalarUses(N))
      UseNodesOf[S].push_back(N);

  // 1. Idiom recognition (Section 3, "idiom recognition is used to identify
  //    SCCs that are recurrences supported by the vector instruction set").
  std::vector<bool> IsReductionDef(P.numNodes(), false);
  for (int N = 1; N < P.numNodes(); ++N) {
    const Stmt *S = P.stmtOf(N);
    if (S->Kind != StmtKind::AssignScalar)
      continue;
    ReductionInfo R;
    if (matchReduction(P, N, UseNodesOf[S->ScalarId], R)) {
      Plan.Reductions.push_back(R);
      IsReductionDef[N] = true;
    }
  }

  // 2. Collect relaxable / eliminable edges.
  std::vector<size_t> Removed;
  struct CondUpdateCandidate {
    int DefNode;
    int ScalarId;
    int FirstUsePos; // Lexically earliest carried-use position.
  };
  std::vector<CondUpdateCandidate> CondCands;
  struct ConflictCandidate {
    int StoreNode;
    int ArrayId;
    std::vector<const Expr *> LoadExprs;
    int MinPos, MaxPos;
  };
  std::vector<ConflictCandidate> ConflictCands;

  const std::vector<DepEdge> &Edges = P.edges();
  for (size_t I = 0; I < Edges.size(); ++I) {
    const DepEdge &E = Edges[I];
    switch (E.Kind) {
    case DepKind::ScalarAnti:
      // Eliminated by vector read-before-write plus register renaming
      // (scalar expansion); FlexVec makes definitions cover uses
      // dynamically.
      Removed.push_back(I);
      break;
    case DepKind::ControlCarried: {
      Removed.push_back(I);
      // Locate the break controlled by this guard.
      int Guard = E.From;
      for (int N = 1; N < P.numNodes(); ++N) {
        const Stmt *S = P.stmtOf(N);
        if (S->Kind == StmtKind::Break && P.controlParent(N) == Guard) {
          bool Dup = false;
          for (const auto &EE : Plan.EarlyExits)
            Dup |= EE.BreakNode == N;
          if (!Dup)
            Plan.EarlyExits.push_back(
                EarlyExitInfo{Guard, N, P.inElseRegion(N)});
        }
      }
      break;
    }
    case DepKind::ScalarFlowCarried: {
      int D = E.From;
      if (IsReductionDef[D]) {
        Removed.push_back(I); // Idiom-handled recurrence.
        break;
      }
      bool Conditional = P.controlParent(D) != Pdg::HeaderNode;
      if (!Conditional)
        break; // Unconditional recurrence: leave the edge; if it forms a
               // cycle the loop is rejected below.
      Removed.push_back(I);
      // Record / extend the candidate for this def.
      int UsePos = P.lexicalPos(E.To);
      bool Found = false;
      for (auto &C : CondCands) {
        if (C.DefNode == D) {
          C.FirstUsePos = std::min(C.FirstUsePos, UsePos);
          Found = true;
        }
      }
      if (!Found)
        CondCands.push_back(CondUpdateCandidate{D, E.ScalarId, UsePos});
      break;
    }
    case DepKind::MemoryMaybeCarried: {
      Removed.push_back(I);
      int Pos1 = P.lexicalPos(E.From);
      int Pos2 = P.lexicalPos(E.To);
      bool Found = false;
      for (auto &C : ConflictCands) {
        if (C.StoreNode == E.From) {
          C.LoadExprs.push_back(E.LoadExpr);
          C.MinPos = std::min(C.MinPos, std::min(Pos1, Pos2));
          C.MaxPos = std::max(C.MaxPos, std::max(Pos1, Pos2));
          Found = true;
        }
      }
      if (!Found)
        ConflictCands.push_back(ConflictCandidate{
            E.From, E.ArrayId, {E.LoadExpr}, std::min(Pos1, Pos2),
            std::max(Pos1, Pos2)});
      break;
    }
    case DepKind::MemoryFlowCarried:
      // Provable short-distance recurrence through memory: traditional
      // vectorization is illegal and FlexVec does not target it. Distances
      // of a full vector or more are safe for VL-wide execution.
      if (E.Distance < 16)
        break; // Edge stays; cycle check below rejects if cyclic. Even
               // acyclic, this forces scalar execution — handled by caller
               // via plan flag below.
      Removed.push_back(I);
      break;
    case DepKind::Control:
    case DepKind::ScalarFlow:
      break;
    }
  }

  // A provable short-distance memory recurrence rules out vector execution
  // outright (lanes within one vector instruction would violate it).
  for (const DepEdge &E : Edges) {
    if (E.Kind == DepKind::MemoryFlowCarried && E.Distance < 16) {
      Plan.Vectorizable = false;
      Plan.Reason = "provable cross-iteration memory dependence of distance " +
                    std::to_string(E.Distance) + " on array " +
                    F.array(E.ArrayId).Name;
      return Plan;
    }
  }

  // 3. Residual cycles after relaxation? (Including self loops, e.g. an
  //    unconditional s = a[s] recurrence.)
  auto Sccs = P.stronglyConnectedComponents(Removed);
  for (const auto &Scc : Sccs) {
    bool Cyclic = Scc.size() > 1;
    if (!Cyclic) {
      std::vector<bool> IsRemoved(Edges.size(), false);
      for (size_t I : Removed)
        IsRemoved[I] = true;
      for (size_t I = 0; I < Edges.size(); ++I)
        if (!IsRemoved[I] && Edges[I].From == Scc[0] &&
            Edges[I].To == Scc[0])
          Cyclic = true;
    }
    if (!Cyclic)
      continue;
    Plan.Vectorizable = false;
    Plan.Reason = "irreducible dependence cycle over nodes";
    for (int N : Scc)
      Plan.Reason += " S" + std::to_string(N);
    return Plan;
  }

  Plan.Vectorizable = true;

  // 4. Conditional-update VPLs: compute top-level intervals and merge
  //    overlaps (multiple updates under one guard share a VPL).
  struct Interval {
    int FirstTop, LastTop;
    std::vector<CondUpdateScalar> Updates;
  };
  std::vector<Interval> Intervals;
  for (const auto &C : CondCands) {
    // The VPL covers from the earliest stale use to the update itself.
    int FirstNode = -1;
    for (int N = 1; N < P.numNodes(); ++N)
      if (P.lexicalPos(N) == C.FirstUsePos)
        FirstNode = N;
    assert(FirstNode > 0 && "carried-use position not found");
    int FirstTop = topLevelIndexOf(P, FirstNode);
    int LastTop = topLevelIndexOf(P, C.DefNode);
    if (FirstTop > LastTop)
      std::swap(FirstTop, LastTop);

    CondUpdateScalar U;
    U.UpdateNode = C.DefNode;
    U.ScalarId = C.ScalarId;
    U.GuardNode = P.controlParent(C.DefNode);
    U.UsedInLoop = !UseNodesOf[C.ScalarId].empty();
    U.UsedAfterUpdate = false;
    for (int UN : UseNodesOf[C.ScalarId])
      if (P.lexicalPos(UN) > P.lexicalPos(C.DefNode))
        U.UsedAfterUpdate = true;

    bool Merged = false;
    for (auto &Iv : Intervals) {
      if (FirstTop <= Iv.LastTop && Iv.FirstTop <= LastTop) {
        Iv.FirstTop = std::min(Iv.FirstTop, FirstTop);
        Iv.LastTop = std::max(Iv.LastTop, LastTop);
        Iv.Updates.push_back(U);
        Merged = true;
        break;
      }
    }
    if (!Merged)
      Intervals.push_back(Interval{FirstTop, LastTop, {U}});
  }
  for (auto &Iv : Intervals) {
    CondUpdateVpl V;
    V.FirstTop = Iv.FirstTop;
    V.LastTop = Iv.LastTop;
    V.Updates = std::move(Iv.Updates);
    // Live-out payload updates under the same guard (the paper's best_pos
    // in Figure 6) have no in-loop uses and thus no carried arcs, but they
    // must commit with VPSLCTLAST alongside the value they accompany.
    for (int N = 1; N < P.numNodes(); ++N) {
      const Stmt *S = P.stmtOf(N);
      if (S->Kind != StmtKind::AssignScalar || IsReductionDef[N])
        continue;
      if (!F.scalar(S->ScalarId).IsLiveOut)
        continue;
      bool SameGuard = false;
      for (const auto &U : V.Updates)
        SameGuard |= P.controlParent(N) == U.GuardNode;
      bool Already = false;
      for (const auto &U : V.Updates)
        Already |= U.UpdateNode == N;
      if (!SameGuard || Already)
        continue;
      CondUpdateScalar U;
      U.UpdateNode = N;
      U.ScalarId = S->ScalarId;
      U.GuardNode = P.controlParent(N);
      U.UsedInLoop = !UseNodesOf[S->ScalarId].empty();
      U.UsedAfterUpdate = false;
      for (int UN : UseNodesOf[S->ScalarId])
        if (P.lexicalPos(UN) > P.lexicalPos(N))
          U.UsedAfterUpdate = true;
      V.Updates.push_back(U);
    }
    // Deterministic order: by update node id.
    std::sort(V.Updates.begin(), V.Updates.end(),
              [](const CondUpdateScalar &A, const CondUpdateScalar &B) {
                return A.UpdateNode < B.UpdateNode;
              });
    Plan.CondUpdateVpls.push_back(std::move(V));
  }
  std::sort(Plan.CondUpdateVpls.begin(), Plan.CondUpdateVpls.end(),
            [](const CondUpdateVpl &A, const CondUpdateVpl &B) {
              return A.FirstTop < B.FirstTop;
            });

  // 5. Memory-conflict VPLs.
  for (const auto &C : ConflictCands) {
    MemConflictVpl V;
    V.ArrayId = C.ArrayId;
    V.StoreIndex = P.stmtOf(C.StoreNode)->Index;
    for (const Expr *L : C.LoadExprs)
      V.LoadIndices.push_back(L->Index);
    // Region closure over top-level statements.
    int MinTop = -1, MaxTop = -1;
    for (int N = 1; N < P.numNodes(); ++N) {
      if (P.lexicalPos(N) < C.MinPos || P.lexicalPos(N) > C.MaxPos)
        continue;
      int Top = topLevelIndexOf(P, N);
      if (MinTop < 0 || Top < MinTop)
        MinTop = Top;
      if (MaxTop < 0 || Top > MaxTop)
        MaxTop = Top;
    }
    V.FirstTop = MinTop;
    V.LastTop = MaxTop;
    Plan.MemConflictVpls.push_back(std::move(V));
  }
  // Overlapping conflict VPLs (multiple stores into one region) are out of
  // scope, as in the paper's examples.
  std::sort(Plan.MemConflictVpls.begin(), Plan.MemConflictVpls.end(),
            [](const MemConflictVpl &A, const MemConflictVpl &B) {
              return A.FirstTop < B.FirstTop;
            });
  for (size_t I = 1; I < Plan.MemConflictVpls.size(); ++I) {
    if (Plan.MemConflictVpls[I].FirstTop <=
        Plan.MemConflictVpls[I - 1].LastTop) {
      Plan.Vectorizable = false;
      Plan.Reason = "overlapping memory-conflict regions";
      return Plan;
    }
  }
  // Conflict VPLs overlapping cond-update VPLs: merge is unsupported.
  for (const auto &MV : Plan.MemConflictVpls)
    for (const auto &CV : Plan.CondUpdateVpls)
      if (MV.FirstTop <= CV.LastTop && CV.FirstTop <= MV.LastTop) {
        Plan.Vectorizable = false;
        Plan.Reason = "conditional-update and memory-conflict regions overlap";
        return Plan;
      }

  // 6. Speculative load tagging.
  auto markSpeculative = [&Plan](int Node) {
    if (!Plan.isSpeculative(Node))
      Plan.SpeculativeLoadNodes.push_back(Node);
  };
  for (const auto &EE : Plan.EarlyExits) {
    // Everything at or before the exit guard executes before the exit
    // condition of later lanes is known (Section 4.1).
    for (int N = 1; N < P.numNodes(); ++N)
      if (P.lexicalPos(N) <= P.lexicalPos(EE.GuardNode) &&
          !P.loads(N).empty())
        markSpeculative(N);
  }
  for (const auto &V : Plan.CondUpdateVpls) {
    // Loads under a guard whose condition reads a relaxed scalar read stale
    // control state and must be first-faulting (Section 4.2).
    for (int N = 1; N < P.numNodes(); ++N) {
      if (P.loads(N).empty())
        continue;
      int Top = topLevelIndexOf(P, N);
      if (Top < V.FirstTop || Top > V.LastTop)
        continue;
      // Walk ancestor guards.
      for (int G = P.controlParent(N); G != Pdg::HeaderNode;
           G = P.controlParent(G)) {
        const Stmt *Guard = P.stmtOf(G);
        bool ReadsRelaxed = false;
        for (const auto &U : V.Updates)
          ReadsRelaxed |= exprReadsScalar(Guard->Cond, U.ScalarId);
        if (ReadsRelaxed) {
          markSpeculative(N);
          break;
        }
      }
    }
  }
  std::sort(Plan.SpeculativeLoadNodes.begin(),
            Plan.SpeculativeLoadNodes.end());

  return Plan;
}
