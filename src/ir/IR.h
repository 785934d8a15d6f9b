//===- ir/IR.h - High-level AST-like loop IR --------------------*- C++ -*-===//
//
// The paper implements FlexVec "as a pass in a high-level, AST like IR that
// feeds into the vector code generation module" (Section 4). This is that
// IR: a single counted loop (for i = 0; i < n; ++i) over scalar and array
// parameters, with structured control flow (if/else, break) in the body.
//
// Statements carry stable ids (S1, S2, ...) used by the PDG, the analysis
// tags, and the disassembly comments, mirroring the paper's figures.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_IR_IR_H
#define FLEXVEC_IR_IR_H

#include "isa/Opcode.h"
#include "isa/Reg.h"

#include <memory>
#include <string>
#include <vector>

namespace flexvec {
namespace ir {

using isa::CmpKind;
using isa::ElemType;

/// Maximum parameter counts imposed by the code generators' register
/// conventions (scalars in r2..r13, array bases in r14..r23). The parser
/// rejects loops that exceed them.
inline constexpr unsigned MaxScalarParams = 12;
inline constexpr unsigned MaxArrayParams = 10;

/// Deepest `if` nesting the vector code generators can if-convert: each
/// level holds its predicate in one of k2/k3. The parser rejects deeper
/// nesting.
inline constexpr unsigned MaxIfNesting = 2;

/// Scratch registers of the code generators: the scalar one evaluates
/// expressions in r25..r31, the vector one in v16..v31. The parser rejects
/// statements whose scalar evaluation needs more (scalarScratchNeed);
/// pattern-analysis declines loops whose vector code would.
inline constexpr unsigned MaxScalarScratchRegs = 7;
inline constexpr unsigned MaxVectorScratchRegs = 16;

class LoopFunction;

/// Binary operators on same-typed operands.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  And,
  Or,
  Xor,
  Shl,
  Shr,
  Min,
  Max,
};

const char *binOpName(BinOp Op);

/// Source spelling of a comparison ("<=").
const char *cmpSymbol(CmpKind K);

/// Expression kinds.
enum class ExprKind : uint8_t {
  ConstInt,  ///< Integer literal.
  ConstFloat,///< Floating literal.
  ScalarRef, ///< Read of a scalar parameter/variable.
  IndexRef,  ///< The loop induction variable.
  ArrayRef,  ///< Array element read: Array[Index].
  Binary,    ///< Lhs <BinOp> Rhs.
  Compare,   ///< Lhs <CmpKind> Rhs, yields bool (i64 0/1).
  LogicalAnd,///< Lhs && Rhs over bools (non-short-circuit in vector code).
};

/// One expression node (immutable after construction, arena-owned).
struct Expr {
  ExprKind Kind;
  ElemType Type; ///< Result type (Compare/LogicalAnd yield ElemType::I64).

  int64_t IntValue = 0;  ///< ConstInt.
  double FloatValue = 0; ///< ConstFloat.
  int ScalarId = -1;     ///< ScalarRef.
  int ArrayId = -1;      ///< ArrayRef.
  const Expr *Index = nullptr; ///< ArrayRef subscript.
  BinOp Op = BinOp::Add;       ///< Binary.
  CmpKind Cmp = CmpKind::EQ;   ///< Compare.
  const Expr *Lhs = nullptr;
  const Expr *Rhs = nullptr;

  bool isBool() const { return Kind == ExprKind::Compare ||
                               Kind == ExprKind::LogicalAnd; }

  /// Source-like rendering ("block_sad[pos] < min_mcost").
  std::string str(const LoopFunction &F) const;
};

/// Statement kinds.
enum class StmtKind : uint8_t {
  AssignScalar, ///< Scalar = Value.
  StoreArray,   ///< Array[Index] = Value.
  If,           ///< if (Cond) Then else Else.
  Break,        ///< Exit the loop.
};

/// One statement node (arena-owned). Mutable children only through the
/// LoopFunction builder.
struct Stmt {
  StmtKind Kind;
  int Id = 0; ///< Stable statement number (1-based, creation order).

  int ScalarId = -1;           ///< AssignScalar target.
  int ArrayId = -1;            ///< StoreArray target.
  const Expr *Index = nullptr; ///< StoreArray subscript.
  const Expr *Value = nullptr; ///< AssignScalar/StoreArray RHS.
  const Expr *Cond = nullptr;  ///< If condition.
  std::vector<Stmt *> Then;    ///< If true-region.
  std::vector<Stmt *> Else;    ///< If false-region.

  /// Source-like rendering of this statement only (no children).
  std::string str(const LoopFunction &F) const;
};

/// The one walk over the IR. Every pass that reads the expression trees
/// visits them in this order: statements in lexical pre-order (an if before
/// its then-region, then its else-region); within a statement its store
/// subscript, then its value, then its if condition; each expression before
/// its operands (an array read's subscript, or Lhs before Rhs). The vector
/// emitter's constant pool, the PDG's edge order and the shrinker's
/// expression ordinals all depend on it.

/// Visits \p E and then, in pre-order, every expression below it.
template <typename Fn> void forEachExpr(const Expr *E, Fn &&Visit) {
  Visit(E);
  if (E->Kind == ExprKind::ArrayRef) {
    forEachExpr(E->Index, Visit);
  } else if (E->Lhs) {
    forEachExpr(E->Lhs, Visit);
    forEachExpr(E->Rhs, Visit);
  }
}

/// Visits the expressions of \p S itself (not of nested statements):
/// Index, then Value, then Cond, each in pre-order.
template <typename Fn> void forEachExpr(const Stmt &S, Fn &&Visit) {
  for (const Expr *E : {S.Index, S.Value, S.Cond})
    if (E)
      forEachExpr(E, Visit);
}

/// Visits \p Stmts and the statements nested in them in lexical pre-order.
template <typename Fn>
void forEachStmt(const std::vector<Stmt *> &Stmts, Fn &&Visit) {
  for (const Stmt *S : Stmts) {
    Visit(S);
    if (S->Kind == StmtKind::If) {
      forEachStmt(S->Then, Visit);
      forEachStmt(S->Else, Visit);
    }
  }
}

/// True if \p E reads scalar \p ScalarId anywhere.
bool exprReadsScalar(const Expr *E, int ScalarId);

/// True if the expressions of \p S itself (not of nested statements) read
/// scalar \p ScalarId.
bool stmtReadsScalar(const Stmt *S, int ScalarId);

/// Marks in \p Assigned every scalar that \p Stmts, or statements nested in
/// them, assign.
void collectAssignedScalars(const std::vector<Stmt *> &Stmts,
                            std::vector<bool> &Assigned);

/// Peak number of scalar scratch registers that evaluating the expressions
/// of \p S itself (not of nested statements) holds at once, under the
/// scalar code generator's allocation: operands left to right, each result
/// held until its parent consumes it, an array load reusing its index's
/// register.
unsigned scalarScratchNeed(const Stmt &S);

/// A scalar parameter/variable of the loop.
struct ScalarParam {
  std::string Name;
  ElemType Type;
  bool IsLiveOut = false; ///< Value after the loop is observed.
};

/// An array parameter of the loop (bound to a base address at run time).
struct ArrayParam {
  std::string Name;
  ElemType Elem;
  /// Declared element count; subscripts are asserted in-bounds by the
  /// reference interpreter (bound at execution time, not here).
  bool ReadOnly = false; ///< Never stored to by this loop (analysis aid).
};

/// A single counted loop:  for (i = 0; i < <bound scalar>; ++i) { body }.
///
/// Owns all Expr and Stmt nodes. Construction is via the expr*/stmt*
/// factory methods; the finished body is installed with setBody().
class LoopFunction {
public:
  explicit LoopFunction(std::string Name) : Name(std::move(Name)) {}
  LoopFunction(const LoopFunction &) = delete;
  LoopFunction &operator=(const LoopFunction &) = delete;

  const std::string &name() const { return Name; }

  // --- Parameters ---
  int addScalar(std::string ScalarName, ElemType Type, bool IsLiveOut = false);
  int addArray(std::string ArrayName, ElemType Elem, bool ReadOnly = false);

  /// Declares which scalar parameter holds the trip count (upper bound).
  void setTripCountScalar(int ScalarId) { TripCountScalar = ScalarId; }
  int tripCountScalar() const { return TripCountScalar; }

  const std::vector<ScalarParam> &scalars() const { return Scalars; }
  const std::vector<ArrayParam> &arrays() const { return Arrays; }
  const ScalarParam &scalar(int Id) const { return Scalars[Id]; }
  const ArrayParam &array(int Id) const { return Arrays[Id]; }

  // --- Expression factories ---
  const Expr *constInt(ElemType Type, int64_t V);
  const Expr *constFloat(ElemType Type, double V);
  const Expr *scalarRef(int ScalarId);
  const Expr *indexRef();
  const Expr *arrayRef(int ArrayId, const Expr *Index);
  const Expr *binary(BinOp Op, const Expr *Lhs, const Expr *Rhs);
  const Expr *compare(CmpKind Cmp, const Expr *Lhs, const Expr *Rhs);
  const Expr *logicalAnd(const Expr *Lhs, const Expr *Rhs);

  // --- Statement factories ---
  Stmt *assignScalar(int ScalarId, const Expr *Value);
  Stmt *storeArray(int ArrayId, const Expr *Index, const Expr *Value);
  Stmt *makeIf(const Expr *Cond, std::vector<Stmt *> Then,
               std::vector<Stmt *> Else = {});
  /// Creates an empty if so children can be numbered after their parent
  /// (matching the paper's lexical S-numbering); attach children with
  /// addThen/addElse.
  Stmt *makeIfShell(const Expr *Cond);
  void addThen(Stmt *If, Stmt *Child);
  void addElse(Stmt *If, Stmt *Child);
  Stmt *makeBreak();

  void setBody(std::vector<Stmt *> Stmts) { Body = std::move(Stmts); }
  const std::vector<Stmt *> &body() const { return Body; }

  /// Total number of statements created (ids are 1..numStmts()).
  int numStmts() const { return NextStmtId - 1; }

  /// Source-like rendering of the whole loop.
  std::string print() const;

private:
  std::string Name;
  std::vector<ScalarParam> Scalars;
  std::vector<ArrayParam> Arrays;
  int TripCountScalar = -1;
  std::vector<Stmt *> Body;
  std::vector<std::unique_ptr<Expr>> ExprArena;
  std::vector<std::unique_ptr<Stmt>> StmtArena;
  int NextStmtId = 1;
};

/// Visits every statement of \p F in lexical pre-order.
template <typename Fn> void forEachStmt(const LoopFunction &F, Fn &&Visit) {
  forEachStmt(F.body(), Visit);
}

} // namespace ir
} // namespace flexvec

#endif // FLEXVEC_IR_IR_H
