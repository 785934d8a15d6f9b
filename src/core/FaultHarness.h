//===- core/FaultHarness.h - Differential fault-tolerance harness -*- C++ -*-===//
//
// Runs the scalar reference program and a FlexVec-vectorized program under
// the *same* seeded fault schedule and decides whether they reached
// equivalent architectural outcomes:
//
//  * both ran to completion with identical memory fingerprints and
//    live-out values (the injected faults were absorbed — clipped by
//    first-faulting loads, or retried/fallen-back around by the RTM
//    policy), or
//  * both stopped with the same well-formed fault report — same stop
//    reason and same faulting address. PCs and opcodes necessarily differ
//    between the two programs and are diagnostic context only.
//
// Address-deterministic range faults (see faults/FaultInjector.h) are what
// make the comparison meaningful: the same data addresses are poisoned no
// matter how the program orders or batches its accesses.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_FAULTHARNESS_H
#define FLEXVEC_CORE_FAULTHARNESS_H

#include "core/Evaluator.h"
#include "faults/FaultInjector.h"

#include <string>

namespace flexvec {
namespace core {

/// Everything injected into one execution, plus the resilience policy.
struct FaultPlan {
  faults::MemFaultPlan Mem;
  faults::TxFaultPlan Tx;
  /// Per-invocation budget, RTM retry policy and SIMD backend.
  emu::RunLimits Limits;
};

/// One execution under injection: the usual outcome plus what was
/// actually injected.
struct FaultedRun {
  RunOutcome Outcome;
  faults::InjectorStats Injection;

  /// Structured one-line fault report (stop reason, fault address, PC,
  /// opcode, abort history).
  std::string report() const;
};

/// Verdict of a scalar-vs-vectorized differential run.
struct DiffVerdict {
  bool Equivalent = false;
  std::string Detail; ///< Why (not) equivalent, human-readable.
  FaultedRun Scalar;
  FaultedRun Vector;

  std::string describe() const;
};

/// runProgramMulti under injection: the same machine loop with a fresh
/// FaultInjector armed over the memory clone and the transaction unit
/// across every invocation (so a bounded TxFaultPlan models a storm that
/// eventually ends). This is what drives the adaptive dispatch cell
/// through its whole lifecycle — the cell is mapped before the first
/// invocation and read back/unmapped before the fingerprint.
FaultedRun runProgramMultiWithFaults(const ir::LoopFunction &F,
                                     const codegen::CompiledLoop &CL,
                                     const mem::Memory &BaseImage,
                                     const std::vector<ir::Bindings> &Invocations,
                                     const FaultPlan &Plan);

/// Differential run: \p ScalarCL and \p VectorCL each run the whole
/// invocation sequence under identical fault schedules (separate injector
/// instances, same plan and seeds); outcomes compare via outcomesMatch
/// (folded live-outs + final fingerprint).
DiffVerdict runDifferentialMulti(const ir::LoopFunction &F,
                                 const codegen::CompiledLoop &ScalarCL,
                                 const codegen::CompiledLoop &VectorCL,
                                 const mem::Memory &BaseImage,
                                 const std::vector<ir::Bindings> &Invocations,
                                 const FaultPlan &Plan);

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_FAULTHARNESS_H
