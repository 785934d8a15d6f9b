//===- ir/Interp.h - Reference interpreter for the loop IR -----*- C++ -*-===//
//
// Executes a LoopFunction directly over a Memory image with strict scalar
// (iteration-ordered) semantics. This is both the golden reference the
// generated programs are checked against and the substrate the Pin-like
// loop profiler (src/profile) observes through the Observer interface.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_IR_INTERP_H
#define FLEXVEC_IR_INTERP_H

#include "ir/IR.h"
#include "memory/Memory.h"

#include <cstdint>
#include <vector>

namespace flexvec {
namespace ir {

/// Runtime bindings for one loop execution: scalar initial values (bit
/// patterns for floats) and array base addresses in the Memory image.
struct Bindings {
  std::vector<int64_t> ScalarValues;
  std::vector<uint64_t> ArrayBases;

  static Bindings forFunction(const LoopFunction &F) {
    Bindings B;
    B.ScalarValues.resize(F.scalars().size(), 0);
    B.ArrayBases.resize(F.arrays().size(), 0);
    return B;
  }

  int64_t getInt(int ScalarId) const { return ScalarValues[ScalarId]; }
  void setInt(int ScalarId, int64_t V) { ScalarValues[ScalarId] = V; }
  double getFloat(ElemType Ty, int ScalarId) const;
  void setFloat(ElemType Ty, int ScalarId, double V);
};

/// Observation hooks for profiling. Default implementations do nothing.
class Observer {
public:
  virtual ~Observer();
  virtual void onIterationStart(int64_t Iter) { (void)Iter; }
  /// Fires after a scalar assignment executes. \p Old and \p New are raw
  /// (bit-pattern) values.
  virtual void onScalarAssign(const Stmt *S, int64_t Iter, int64_t Old,
                              int64_t New) {
    (void)S;
    (void)Iter;
    (void)Old;
    (void)New;
  }
  virtual void onArrayLoad(int ArrayId, int64_t Index, int64_t Iter) {
    (void)ArrayId;
    (void)Index;
    (void)Iter;
  }
  virtual void onArrayStore(const Stmt *S, int64_t Index, int64_t Iter) {
    (void)S;
    (void)Index;
    (void)Iter;
  }
  virtual void onBreak(const Stmt *S, int64_t Iter) {
    (void)S;
    (void)Iter;
  }
};

/// Result of one interpreted execution.
struct InterpResult {
  int64_t IterationsExecuted = 0;
  bool BrokeEarly = false;
  /// An array access touched unmapped memory and execution stopped there.
  /// Hand-written loops never fault, but generated/shrunk candidates can
  /// index arbitrarily far out of bounds; the interpreter must report
  /// that, not abort the process.
  bool Faulted = false;
  uint64_t FaultAddr = 0;
  /// An integer division had a zero divisor or was INT64_MIN / -1;
  /// execution stopped at that statement, as for a memory fault.
  bool DivideError = false;
};

/// The interpreter. Integer arithmetic wraps at the expression's element
/// width (matching the vector unit); floating point is computed at the
/// element precision.
class Interpreter {
public:
  explicit Interpreter(mem::Memory &M) : M(M) {}

  InterpResult run(const LoopFunction &F, Bindings &B,
                   Observer *Obs = nullptr);

private:
  struct Frame;
  int64_t evalInt(const Frame &Fr, const Expr *E);
  double evalFloat(const Frame &Fr, const Expr *E);
  /// Evaluates any expression to a raw 64-bit value (float → bit pattern).
  int64_t evalRaw(const Frame &Fr, const Expr *E);

  /// Checked element access: on an unmapped address, latches the fault and
  /// returns 0 (loads) or drops the store, as every access does once a fault
  /// or divide error has latched. Evaluation unwinds at the next statement
  /// boundary.
  int64_t loadElem(uint64_t Addr, uint64_t Size);
  void storeElem(uint64_t Addr, int64_t Raw, uint64_t Size);

  /// Executes a statement list; returns false if a break fired or a memory
  /// fault latched.
  bool execStmts(Frame &Fr, const std::vector<Stmt *> &Stmts);

  mem::Memory &M;
  bool Faulted = false;
  uint64_t FaultAddr = 0;
  bool DivideError = false;
};

} // namespace ir
} // namespace flexvec

#endif // FLEXVEC_IR_INTERP_H
