//===- core/FaultHarness.cpp ----------------------------------------------===//
//
// runProgramMultiWithFaults lives in Evaluator.cpp, next to the machine
// loop it shares with runProgramMulti.
//
//===----------------------------------------------------------------------===//

#include "core/FaultHarness.h"

using namespace flexvec;
using namespace flexvec::core;

std::string FaultedRun::report() const {
  std::string S = Outcome.Exec.describe();
  S += "; injected mem=" + std::to_string(Injection.MemFaultsInjected) +
       " tx=" + std::to_string(Injection.TxAbortsInjected);
  return S;
}

DiffVerdict core::runDifferentialMulti(
    const ir::LoopFunction &F, const codegen::CompiledLoop &ScalarCL,
    const codegen::CompiledLoop &VectorCL, const mem::Memory &BaseImage,
    const std::vector<ir::Bindings> &Invocations, const FaultPlan &Plan) {
  DiffVerdict V;
  V.Scalar = runProgramMultiWithFaults(F, ScalarCL, BaseImage, Invocations,
                                       Plan);
  V.Vector = runProgramMultiWithFaults(F, VectorCL, BaseImage, Invocations,
                                       Plan);

  const RunOutcome &A = V.Scalar.Outcome;
  const RunOutcome &C = V.Vector.Outcome;
  if (A.Ok && C.Ok) {
    if (outcomesMatch(F, A, C)) {
      V.Equivalent = true;
      V.Detail = "both completed every invocation; memory fingerprints and "
                 "folded live-outs match";
    } else {
      V.Detail = "both completed but diverged: scalar mem=" +
                 std::to_string(A.MemFingerprint) +
                 " vector mem=" + std::to_string(C.MemFingerprint);
    }
    return V;
  }
  if (!A.Ok && !C.Ok) {
    if (A.Exec.Reason == C.Exec.Reason &&
        A.Exec.FaultAddr == C.Exec.FaultAddr) {
      V.Equivalent = true;
      V.Detail = std::string("both stopped with the same fault report: ") +
                 emu::stopReasonName(A.Exec.Reason) + " at addr " +
                 std::to_string(A.Exec.FaultAddr);
    } else {
      V.Detail = "fault reports differ: scalar{" + A.Exec.describe() +
                 "} vector{" + C.Exec.describe() + "}";
    }
    return V;
  }
  V.Detail = std::string("only one execution survived: scalar ") +
             (A.Ok ? "completed" : A.Exec.describe()) + ", vector " +
             (C.Ok ? "completed" : C.Exec.describe());
  return V;
}

std::string DiffVerdict::describe() const {
  std::string S = Equivalent ? "EQUIVALENT: " : "DIVERGED: ";
  S += Detail;
  S += "\n  scalar: " + Scalar.report();
  S += "\n  vector: " + Vector.report();
  return S;
}
