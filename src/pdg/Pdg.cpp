//===- pdg/Pdg.cpp --------------------------------------------------------===//

#include "pdg/Pdg.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <functional>

using namespace flexvec;
using namespace flexvec::pdg;
using namespace flexvec::ir;

const char *pdg::depKindName(DepKind K) {
  switch (K) {
  case DepKind::Control:
    return "control";
  case DepKind::ControlCarried:
    return "control-carried";
  case DepKind::ScalarFlow:
    return "scalar-flow";
  case DepKind::ScalarFlowCarried:
    return "scalar-flow-carried";
  case DepKind::ScalarAnti:
    return "scalar-anti";
  case DepKind::MemoryFlowCarried:
    return "memory-flow-carried";
  case DepKind::MemoryMaybeCarried:
    return "memory-maybe-carried";
  }
  unreachable("unknown dep kind");
}

std::optional<AffineSubscript> pdg::matchAffine(const Expr *E) {
  if (E->Kind == ExprKind::IndexRef)
    return AffineSubscript{0};
  if (E->Kind == ExprKind::Binary) {
    const Expr *L = E->Lhs;
    const Expr *R = E->Rhs;
    if (E->Op == BinOp::Add) {
      if (L->Kind == ExprKind::IndexRef && R->Kind == ExprKind::ConstInt)
        return AffineSubscript{R->IntValue};
      if (R->Kind == ExprKind::IndexRef && L->Kind == ExprKind::ConstInt)
        return AffineSubscript{L->IntValue};
    }
    if (E->Op == BinOp::Sub && L->Kind == ExprKind::IndexRef &&
        R->Kind == ExprKind::ConstInt)
      return AffineSubscript{-R->IntValue};
  }
  return std::nullopt;
}

Pdg::Pdg(const LoopFunction &Fn) : F(Fn) {
  NumNodes = F.numStmts() + 1;
  Stmts.assign(NumNodes, nullptr);
  LexPos.assign(NumNodes, 0);
  CtrlParent.assign(NumNodes, HeaderNode);
  InElse.assign(NumNodes, false);
  Uses.assign(NumNodes, {});
  Loads.assign(NumNodes, {});

  // One pre-order walk: lexical positions, control parents, and each
  // node's scalar uses and array reads.
  int NextPos = 1;
  forEachStmt(F, [&](const Stmt *S) {
    int N = S->Id;
    assert(N > 0 && N < NumNodes && "bad statement id");
    Stmts[N] = S;
    LexPos[N] = NextPos++;
    for (const Stmt *C : S->Then)
      CtrlParent[C->Id] = N;
    for (const Stmt *C : S->Else) {
      CtrlParent[C->Id] = N;
      InElse[C->Id] = true;
    }
    forEachExpr(*S, [&](const Expr *E) {
      if (E->Kind == ExprKind::ScalarRef)
        Uses[N].push_back(E->ScalarId);
      else if (E->Kind == ExprKind::ArrayRef)
        Loads[N].push_back(E);
    });
    std::sort(Uses[N].begin(), Uses[N].end());
    Uses[N].erase(std::unique(Uses[N].begin(), Uses[N].end()), Uses[N].end());
  });
  for (int N = 1; N < NumNodes; ++N)
    if (!Stmts[N])
      fatalError("statement " + std::to_string(N) +
                 " was created but never placed in the loop body");

  buildControl();
  buildScalar();
  buildMemory();
}

void Pdg::addEdge(DepEdge E) { Edges.push_back(E); }

void Pdg::buildControl() {
  // Structured control dependence: each statement depends on its innermost
  // controlling if (or the loop header).
  for (int N = 1; N < NumNodes; ++N)
    addEdge(DepEdge{CtrlParent[N], N, DepKind::Control, -1, -1, 0});

  // Early exits: the guard of each break gets a backward control arc to the
  // loop header (Figure 5(c)), and all lexically later statements become
  // control dependent on the guard.
  for (int N = 1; N < NumNodes; ++N) {
    const Stmt *S = Stmts[N];
    if (S->Kind != StmtKind::Break)
      continue;
    int Guard = CtrlParent[N];
    if (Guard == HeaderNode)
      fatalError("unconditional break: loop body is dead code");
    addEdge(DepEdge{Guard, HeaderNode, DepKind::ControlCarried, -1, -1, 0});
    for (int M = 1; M < NumNodes; ++M) {
      if (M == Guard || LexPos[M] <= LexPos[Guard])
        continue;
      // Skip descendants of the guard; they already depend on it.
      int P = CtrlParent[M];
      bool Desc = false;
      while (P != HeaderNode) {
        if (P == Guard) {
          Desc = true;
          break;
        }
        P = CtrlParent[P];
      }
      if (!Desc)
        addEdge(DepEdge{Guard, M, DepKind::Control, -1, -1, 0});
    }
  }
}

void Pdg::buildScalar() {
  // True when def node \p D2 executes whenever node \p U executes, earlier
  // in the same iteration: D2 lexically precedes U and D2's controlling if
  // is an ancestor (or self) of U.
  auto killsBefore = [this](int D2, int U) {
    if (LexPos[D2] >= LexPos[U])
      return false;
    int Parent = CtrlParent[D2];
    if (Parent == HeaderNode)
      return true;
    for (int A = U; A != HeaderNode; A = CtrlParent[A])
      if (CtrlParent[A] == Parent && InElse[A] == InElse[D2])
        return true;
    return false;
  };

  for (int D = 1; D < NumNodes; ++D) {
    const Stmt *Def = Stmts[D];
    if (Def->Kind != StmtKind::AssignScalar)
      continue;
    int S = Def->ScalarId;
    for (int U = 1; U < NumNodes; ++U) {
      bool UsesS = std::binary_search(Uses[U].begin(), Uses[U].end(), S);
      if (!UsesS)
        continue;
      if (LexPos[U] > LexPos[D]) {
        addEdge(DepEdge{D, U, DepKind::ScalarFlow, S, -1, 0});
      } else {
        // Use at or before the def: the def reaches the use in the next
        // iteration — the backward arc FlexVec relaxes — unless another
        // def of S is guaranteed to execute before the use and kill the
        // incoming value.
        bool Killed = false;
        for (int D2 = 1; D2 < NumNodes && !Killed; ++D2) {
          const Stmt *Other = Stmts[D2];
          if (Other->Kind == StmtKind::AssignScalar && Other->ScalarId == S)
            Killed = killsBefore(D2, U);
        }
        if (!Killed)
          addEdge(DepEdge{D, U, DepKind::ScalarFlowCarried, S, -1, 1});
      }
      if (LexPos[U] < LexPos[D])
        addEdge(DepEdge{U, D, DepKind::ScalarAnti, S, -1, 0});
    }
  }
}

void Pdg::buildMemory() {
  for (int SN = 1; SN < NumNodes; ++SN) {
    const Stmt *Store = Stmts[SN];
    if (Store->Kind != StmtKind::StoreArray)
      continue;
    std::optional<AffineSubscript> StoreAff = matchAffine(Store->Index);
    for (int LN = 1; LN < NumNodes; ++LN) {
      for (const Expr *Load : Loads[LN]) {
        if (Load->ArrayId != Store->ArrayId)
          continue;
        std::optional<AffineSubscript> LoadAff = matchAffine(Load->Index);
        if (StoreAff && LoadAff) {
          int64_t Distance = StoreAff->Offset - LoadAff->Offset;
          if (Distance > 0)
            addEdge(DepEdge{SN, LN, DepKind::MemoryFlowCarried,
                            -1, Store->ArrayId, Distance, Load});
          // Distance 0 is an intra-iteration relation handled by lexical
          // order; negative distances are anti dependences a vector read-
          // before-write already respects.
          continue;
        }
        // At least one subscript is not provably affine: a runtime-resolved
        // dependence (the VPCONFLICTM candidates).
        addEdge(DepEdge{SN, LN, DepKind::MemoryMaybeCarried, -1,
                        Store->ArrayId, 0, Load});
      }
    }
  }
}

std::vector<size_t> Pdg::edgesOfKind(DepKind K) const {
  std::vector<size_t> Result;
  for (size_t I = 0; I < Edges.size(); ++I)
    if (Edges[I].Kind == K)
      Result.push_back(I);
  return Result;
}

std::vector<std::vector<int>> Pdg::stronglyConnectedComponents() const {
  std::vector<bool> Alive(Edges.size(), true);
  return sccImpl(Alive);
}

std::vector<std::vector<int>> Pdg::stronglyConnectedComponents(
    const std::vector<size_t> &RemovedEdges) const {
  std::vector<bool> Alive(Edges.size(), true);
  for (size_t I : RemovedEdges) {
    assert(I < Edges.size() && "edge index out of range");
    Alive[I] = false;
  }
  return sccImpl(Alive);
}

std::vector<std::vector<int>> Pdg::nontrivialSccs() const {
  std::vector<std::vector<int>> All = stronglyConnectedComponents();
  std::vector<std::vector<int>> Result;
  for (auto &Scc : All) {
    if (Scc.size() > 1) {
      Result.push_back(Scc);
      continue;
    }
    // Single node with a self edge is still a cycle.
    int N = Scc[0];
    for (const DepEdge &E : Edges)
      if (E.From == N && E.To == N) {
        Result.push_back(Scc);
        break;
      }
  }
  return Result;
}

std::vector<std::vector<int>>
Pdg::sccImpl(const std::vector<bool> &EdgeAlive) const {
  // Tarjan's algorithm (iterative-friendly sizes here; recursion is fine
  // for statement counts).
  std::vector<std::vector<int>> Adj(NumNodes);
  for (size_t I = 0; I < Edges.size(); ++I)
    if (EdgeAlive[I])
      Adj[Edges[I].From].push_back(Edges[I].To);

  std::vector<int> IndexOf(NumNodes, -1), LowLink(NumNodes, 0);
  std::vector<bool> OnStack(NumNodes, false);
  std::vector<int> Stack;
  std::vector<std::vector<int>> Sccs;
  int NextIndex = 0;

  std::function<void(int)> Strongconnect = [&](int N) {
    IndexOf[N] = LowLink[N] = NextIndex++;
    Stack.push_back(N);
    OnStack[N] = true;
    for (int M : Adj[N]) {
      if (IndexOf[M] == -1) {
        Strongconnect(M);
        LowLink[N] = std::min(LowLink[N], LowLink[M]);
      } else if (OnStack[M]) {
        LowLink[N] = std::min(LowLink[N], IndexOf[M]);
      }
    }
    if (LowLink[N] == IndexOf[N]) {
      std::vector<int> Scc;
      int M;
      do {
        M = Stack.back();
        Stack.pop_back();
        OnStack[M] = false;
        Scc.push_back(M);
      } while (M != N);
      std::sort(Scc.begin(), Scc.end());
      Sccs.push_back(std::move(Scc));
    }
  };

  for (int N = 0; N < NumNodes; ++N)
    if (IndexOf[N] == -1)
      Strongconnect(N);

  // Tarjan emits components in reverse topological order; flip it.
  std::reverse(Sccs.begin(), Sccs.end());
  return Sccs;
}

std::string Pdg::dump() const {
  std::string Out = "pdg for " + F.name() + "\n";
  for (int N = 1; N < NumNodes; ++N)
    Out += "  node " + std::to_string(N) + ": " + Stmts[N]->str(F) + "\n";
  for (const DepEdge &E : Edges) {
    Out += "  edge S" + std::to_string(E.From) + " -> S" +
           std::to_string(E.To) + " [" + depKindName(E.Kind);
    if (E.ScalarId >= 0)
      Out += ", scalar " + F.scalar(E.ScalarId).Name;
    if (E.ArrayId >= 0)
      Out += ", array " + F.array(E.ArrayId).Name;
    if (E.Distance > 0)
      Out += ", distance " + std::to_string(E.Distance);
    Out += "]\n";
  }
  return Out;
}
