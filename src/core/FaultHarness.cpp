//===- core/FaultHarness.cpp ----------------------------------------------===//

#include "core/FaultHarness.h"

#include "codegen/Compiled.h"

using namespace flexvec;
using namespace flexvec::core;

namespace {

void bindMachine(emu::Machine &Machine, const ir::Bindings &B) {
  for (size_t S = 0; S < B.ScalarValues.size(); ++S)
    Machine.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                      B.ScalarValues[S]);
  for (size_t A = 0; A < B.ArrayBases.size(); ++A)
    Machine.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                      static_cast<int64_t>(B.ArrayBases[A]));
}

uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

/// Mirrors the fold in Evaluator.cpp so multi-invocation fault runs compare
/// against runReferenceMulti outcomes.
uint64_t foldLiveOuts(const ir::LoopFunction &F, uint64_t H,
                      const std::vector<int64_t> &LiveOuts) {
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (F.scalar(S).IsLiveOut)
      H = hashCombine(H, static_cast<uint64_t>(LiveOuts[S]));
  return H;
}

} // namespace

std::string FaultedRun::report() const {
  std::string S = Outcome.Exec.describe();
  S += "; injected mem=" + std::to_string(Injection.MemFaultsInjected) +
       " tx=" + std::to_string(Injection.TxAbortsInjected);
  return S;
}

FaultedRun core::runProgramWithFaults(const codegen::CompiledLoop &CL,
                                      const mem::Memory &BaseImage,
                                      const ir::Bindings &B,
                                      const FaultPlan &Plan) {
  FaultedRun Run;
  mem::Memory M = BaseImage.clone();
  setUpDispatchCell(CL, M);
  emu::Machine Machine(M);
  bindMachine(Machine, B);

  faults::FaultInjector Injector(Plan.Mem, Plan.Tx);
  Injector.arm(M, &Machine.tx());

  emu::RunLimits Limits;
  Limits.MaxInstructions = Plan.MaxInstructions;
  Limits.MaxRtmRetries = Plan.MaxRtmRetries;
  Limits.Simd = Plan.Simd;
  Run.Outcome.Exec = Machine.run(CL.Prog, Limits);
  Run.Outcome.Ok = Run.Outcome.Exec.Reason == emu::StopReason::Halted;
  if (!Run.Outcome.Ok)
    Run.Outcome.Error = Run.Outcome.Exec.describe();
  Injector.disarm();

  Run.Outcome.HasDispatch = tearDownDispatchCell(CL, M, Run.Outcome.Dispatch);
  Run.Outcome.MemFingerprint = M.fingerprint();
  for (size_t S = 0; S < B.ScalarValues.size(); ++S)
    Run.Outcome.LiveOuts.push_back(Machine.getScalar(
        codegen::scalarParamReg(static_cast<int>(S)).Index));
  Run.Injection = Injector.stats();
  Run.Tx = Machine.txStats();
  return Run;
}

FaultedRun core::runProgramMultiWithFaults(
    const ir::LoopFunction &F, const codegen::CompiledLoop &CL,
    const mem::Memory &BaseImage, const std::vector<ir::Bindings> &Invocations,
    const FaultPlan &Plan) {
  FaultedRun Run;
  RunOutcome &Out = Run.Outcome;
  Out.Ok = true;
  mem::Memory M = BaseImage.clone();
  setUpDispatchCell(CL, M);
  emu::Machine Machine(M);

  faults::FaultInjector Injector(Plan.Mem, Plan.Tx);
  Injector.arm(M, &Machine.tx());

  emu::RunLimits Limits;
  Limits.MaxInstructions = Plan.MaxInstructions;
  Limits.MaxRtmRetries = Plan.MaxRtmRetries;
  Limits.Simd = Plan.Simd;
  for (const ir::Bindings &B : Invocations) {
    Machine.resetRegisters();
    bindMachine(Machine, B);
    emu::ExecResult R = Machine.run(CL.Prog, Limits);
    Out.Exec.Stats.merge(R.Stats);
    if (R.Reason != emu::StopReason::Halted) {
      Out.Ok = false;
      Out.Exec.Reason = R.Reason;
      Out.Exec.FaultAddr = R.FaultAddr;
      Out.Exec.FaultPC = R.FaultPC;
      Out.Error = "invocation failed: " + R.describe();
      break;
    }
    Out.LiveOuts.clear();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Out.LiveOuts.push_back(Machine.getScalar(
          codegen::scalarParamReg(static_cast<int>(S)).Index));
    Out.LiveOutHash = foldLiveOuts(F, Out.LiveOutHash, Out.LiveOuts);
  }
  Injector.disarm();

  Out.HasDispatch = tearDownDispatchCell(CL, M, Out.Dispatch);
  Out.MemFingerprint = M.fingerprint();
  Run.Injection = Injector.stats();
  Run.Tx = Machine.txStats();
  Out.Tx = Run.Tx;
  Out.Mem = M.stats();
  return Run;
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

DiffVerdict core::runDifferential(const ir::LoopFunction &F,
                                  const codegen::CompiledLoop &ScalarCL,
                                  const codegen::CompiledLoop &VectorCL,
                                  const mem::Memory &BaseImage,
                                  const ir::Bindings &B,
                                  const FaultPlan &Plan) {
  DiffVerdict V;
  V.Scalar = runProgramWithFaults(ScalarCL, BaseImage, B, Plan);
  V.Vector = runProgramWithFaults(VectorCL, BaseImage, B, Plan);

  const RunOutcome &A = V.Scalar.Outcome;
  const RunOutcome &C = V.Vector.Outcome;
  if (A.Ok && C.Ok) {
    if (outcomesMatch(F, A, C)) {
      V.Equivalent = true;
      V.Detail = "both completed; memory fingerprints and live-outs match";
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
  std::string ScalarDesc = A.Ok ? "completed" : A.Exec.describe();
  std::string VectorDesc = C.Ok ? "completed" : C.Exec.describe();
  V.Detail = "only one execution survived: scalar " + ScalarDesc +
             ", vector " + VectorDesc;
  return V;
}

std::string DiffVerdict::describe() const {
  std::string S = Equivalent ? "EQUIVALENT: " : "DIVERGED: ";
  S += Detail;
  S += "\n  scalar: " + Scalar.report();
  S += "\n  vector: " + Vector.report();
  return S;
}
