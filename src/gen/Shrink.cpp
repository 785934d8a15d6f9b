//===- gen/Shrink.cpp -----------------------------------------------------===//

#include "gen/Shrink.h"

#include <vector>

using namespace flexvec;
using namespace flexvec::gen;
using namespace flexvec::ir;

namespace {

/// One structural reduction. Expr targets are identified by their ordinal
/// in the IR walk order (ir::forEachStmt, then ir::forEachExpr), which the
/// Rebuilder's copy follows too, so enumeration and application agree on
/// addressing without the two sharing any pointers.
struct Mutation {
  enum class Kind {
    None,        ///< Plain clone.
    DeleteStmt,  ///< Remove the statement (and its children).
    HoistThen,   ///< Replace an if with its then-region.
    HoistElse,   ///< Replace an if with its else-region.
    TakeLhs,     ///< Replace a binary/logical-and with its left operand.
    TakeRhs,     ///< Replace a binary/logical-and with its right operand.
    FlattenLoad, ///< Replace an array read with the constant 1.
    DropUnused,  ///< Drop parameters no statement references.
  };
  Kind K = Kind::None;
  int StmtId = -1;
  int ExprOrd = -1;
};

/// Rebuilds \p Old into a fresh LoopFunction, applying at most one
/// mutation along the way.
class Rebuilder {
public:
  Rebuilder(const LoopFunction &Old, const Mutation &M) : Old(Old), M(M) {}

  std::unique_ptr<LoopFunction> run() {
    auto New = std::make_unique<LoopFunction>(Old.name());
    Out = New.get();

    // Parameter survival: with DropUnused, keep only referenced
    // parameters (the trip scalar always survives).
    std::vector<bool> ScalarUsed(Old.scalars().size(),
                                 M.K != Mutation::Kind::DropUnused);
    std::vector<bool> ArrayUsed(Old.arrays().size(),
                                M.K != Mutation::Kind::DropUnused);
    if (M.K == Mutation::Kind::DropUnused)
      collectUses(ScalarUsed, ArrayUsed);

    ScalarMap.assign(Old.scalars().size(), -1);
    ArrayMap.assign(Old.arrays().size(), -1);
    for (size_t S = 0; S < Old.scalars().size(); ++S) {
      if (!ScalarUsed[S] &&
          static_cast<int>(S) != Old.tripCountScalar())
        continue;
      const ScalarParam &P = Old.scalars()[S];
      ScalarMap[S] = Out->addScalar(P.Name, P.Type, P.IsLiveOut);
    }
    for (size_t A = 0; A < Old.arrays().size(); ++A) {
      if (!ArrayUsed[A])
        continue;
      const ArrayParam &P = Old.arrays()[A];
      ArrayMap[A] = Out->addArray(P.Name, P.Elem, P.ReadOnly);
    }
    Out->setTripCountScalar(ScalarMap[Old.tripCountScalar()]);

    Out->setBody(copyStmtList(Old.body()));
    return New;
  }

  bool applied() const { return Applied; }

private:
  void collectUses(std::vector<bool> &Scalars, std::vector<bool> &Arrays) {
    forEachStmt(Old, [&](const Stmt *S) {
      if (S->Kind == StmtKind::AssignScalar)
        Scalars[S->ScalarId] = true;
      if (S->Kind == StmtKind::StoreArray)
        Arrays[S->ArrayId] = true;
      forEachExpr(*S, [&](const Expr *E) {
        if (E->Kind == ExprKind::ScalarRef)
          Scalars[E->ScalarId] = true;
        if (E->Kind == ExprKind::ArrayRef)
          Arrays[E->ArrayId] = true;
      });
    });
  }

  // Operands are copied into locals, Lhs before Rhs and subscript before
  // value, so the ordinals follow the walk order whatever order the
  // compiler evaluates call arguments in.
  const Expr *copyExpr(const Expr *E) {
    int Ord = ExprOrd++;
    bool Target = Ord == M.ExprOrd && !Applied;
    switch (E->Kind) {
    case ExprKind::ConstInt:
      return Out->constInt(E->Type, E->IntValue);
    case ExprKind::ConstFloat:
      return Out->constFloat(E->Type, E->FloatValue);
    case ExprKind::ScalarRef:
      return Out->scalarRef(ScalarMap[E->ScalarId]);
    case ExprKind::IndexRef:
      return Out->indexRef();
    case ExprKind::ArrayRef:
      if (Target && M.K == Mutation::Kind::FlattenLoad) {
        Applied = true;
        return Out->constInt(E->Type, 1);
      }
      return Out->arrayRef(ArrayMap[E->ArrayId], copyExpr(E->Index));
    case ExprKind::Binary:
    case ExprKind::Compare:
    case ExprKind::LogicalAnd: {
      bool Take = M.K == Mutation::Kind::TakeLhs ||
                  M.K == Mutation::Kind::TakeRhs;
      if (Target && Take && E->Kind != ExprKind::Compare) {
        Applied = true;
        return copyExpr(M.K == Mutation::Kind::TakeLhs ? E->Lhs : E->Rhs);
      }
      const Expr *L = copyExpr(E->Lhs);
      const Expr *R = copyExpr(E->Rhs);
      if (E->Kind == ExprKind::Binary)
        return Out->binary(E->Op, L, R);
      if (E->Kind == ExprKind::Compare)
        return Out->compare(E->Cmp, L, R);
      return Out->logicalAnd(L, R);
    }
    }
    return nullptr;
  }

  void copyStmt(const Stmt *S, std::vector<Stmt *> &List) {
    if (S->Id == M.StmtId && !Applied) {
      if (M.K == Mutation::Kind::DeleteStmt) {
        Applied = true;
        return;
      }
      if (M.K == Mutation::Kind::HoistThen && S->Kind == StmtKind::If) {
        Applied = true;
        for (const Stmt *C : S->Then)
          copyStmt(C, List);
        return;
      }
      if (M.K == Mutation::Kind::HoistElse && S->Kind == StmtKind::If) {
        Applied = true;
        for (const Stmt *C : S->Else)
          copyStmt(C, List);
        return;
      }
    }
    switch (S->Kind) {
    case StmtKind::AssignScalar:
      List.push_back(
          Out->assignScalar(ScalarMap[S->ScalarId], copyExpr(S->Value)));
      return;
    case StmtKind::StoreArray: {
      const Expr *Index = copyExpr(S->Index);
      const Expr *Value = copyExpr(S->Value);
      List.push_back(Out->storeArray(ArrayMap[S->ArrayId], Index, Value));
      return;
    }
    case StmtKind::If: {
      Stmt *If = Out->makeIfShell(copyExpr(S->Cond));
      for (Stmt *C : copyStmtList(S->Then))
        Out->addThen(If, C);
      for (Stmt *C : copyStmtList(S->Else))
        Out->addElse(If, C);
      List.push_back(If);
      return;
    }
    case StmtKind::Break:
      List.push_back(Out->makeBreak());
      return;
    }
  }

  std::vector<Stmt *> copyStmtList(const std::vector<Stmt *> &Stmts) {
    std::vector<Stmt *> List;
    for (const Stmt *S : Stmts)
      copyStmt(S, List);
    return List;
  }

  const LoopFunction &Old;
  const Mutation &M;
  LoopFunction *Out = nullptr;
  std::vector<int> ScalarMap, ArrayMap;
  int ExprOrd = 0;
  bool Applied = false;
};

/// Applies \p M to \p F; returns null when the mutation had no effect
/// (target missing, or DropUnused with nothing to drop).
std::unique_ptr<LoopFunction> applyMutation(const LoopFunction &F,
                                            const Mutation &M) {
  Rebuilder RB(F, M);
  std::unique_ptr<LoopFunction> New = RB.run();
  if (M.K == Mutation::Kind::DropUnused) {
    bool Dropped = New->scalars().size() != F.scalars().size() ||
                   New->arrays().size() != F.arrays().size();
    return Dropped ? std::move(New) : nullptr;
  }
  if (!RB.applied())
    return nullptr;
  return New;
}

/// Enumerates every applicable reduction of \p F in fixed lexical order:
/// statement deletions and hoists first (big wins), then parameter drops,
/// then expression simplifications.
std::vector<Mutation> enumerateMutations(const LoopFunction &F) {
  std::vector<Mutation> Ms;
  forEachStmt(F, [&](const Stmt *S) {
    Ms.push_back({Mutation::Kind::DeleteStmt, S->Id, -1});
    if (S->Kind == StmtKind::If) {
      if (!S->Then.empty())
        Ms.push_back({Mutation::Kind::HoistThen, S->Id, -1});
      if (!S->Else.empty())
        Ms.push_back({Mutation::Kind::HoistElse, S->Id, -1});
    }
  });
  Ms.push_back({Mutation::Kind::DropUnused, -1, -1});

  // Expression ordinals in the exact order copyExpr visits them.
  int Ord = 0;
  forEachStmt(F, [&](const Stmt *S) {
    forEachExpr(*S, [&](const Expr *E) {
      int MyOrd = Ord++;
      if (E->Kind == ExprKind::Binary || E->Kind == ExprKind::LogicalAnd) {
        Ms.push_back({Mutation::Kind::TakeLhs, -1, MyOrd});
        Ms.push_back({Mutation::Kind::TakeRhs, -1, MyOrd});
      } else if (E->Kind == ExprKind::ArrayRef) {
        Ms.push_back({Mutation::Kind::FlattenLoad, -1, MyOrd});
      }
    });
  });
  return Ms;
}

} // namespace

std::unique_ptr<LoopFunction> gen::cloneLoop(const LoopFunction &F) {
  Mutation None;
  return Rebuilder(F, None).run();
}

ShrinkResult gen::shrinkLoop(const LoopFunction &F,
                             const ShrinkPredicate &Holds,
                             const ShrinkOptions &Opts) {
  ShrinkResult R;
  R.F = cloneLoop(F);
  bool Improved = true;
  while (Improved) {
    Improved = false;
    for (const Mutation &M : enumerateMutations(*R.F)) {
      std::unique_ptr<LoopFunction> Cand = applyMutation(*R.F, M);
      if (!Cand)
        continue;
      if (R.Attempts >= Opts.MaxAttempts) {
        R.BudgetExhausted = true;
        return R;
      }
      ++R.Attempts;
      if (!Holds(*Cand))
        continue;
      R.F = std::move(Cand);
      ++R.Accepted;
      Improved = true; // Restart enumeration on the smaller loop.
      break;
    }
  }
  return R;
}
