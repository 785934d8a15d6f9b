//===- core/Evaluator.cpp -------------------------------------------------===//

#include "core/Evaluator.h"

#include "core/FaultHarness.h"
#include "support/Hash.h"

#include <cassert>

using namespace flexvec;
using namespace flexvec::core;
using namespace flexvec::ir;

namespace {

/// Maps the adaptive dispatch-cell page on \p M when \p CL is a
/// flexvec-adaptive program (no-op otherwise). Runs before the first
/// invocation; the cell starts zeroed (promoted state).
void setUpDispatchCell(const codegen::CompiledLoop &CL, mem::Memory &M) {
  if (CL.Kind != codegen::CodeGenKind::FlexVecAdaptive)
    return;
  M.map(driver::dispatch::CellAddr, driver::dispatch::CellSize);
}

/// Reads the dispatch counters back into \p Out and unmaps the cell page
/// (so fingerprints stay comparable with the scalar reference). Returns
/// true when \p CL is flexvec-adaptive. Runs before fingerprint().
bool tearDownDispatchCell(const codegen::CompiledLoop &CL, mem::Memory &M,
                          driver::DispatchCounts &Out) {
  if (CL.Kind != codegen::CodeGenKind::FlexVecAdaptive)
    return false;
  const uint64_t Base = driver::dispatch::CellAddr;
  const auto Rd = [&](int64_t Off) {
    return static_cast<uint64_t>(
        M.get<int64_t>(Base + static_cast<uint64_t>(Off)));
  };
  Out.State = Rd(driver::dispatch::StateOff);
  Out.Invocations = Rd(driver::dispatch::InvocationsOff);
  Out.AbortedInvocations = Rd(driver::dispatch::AbortedOff);
  Out.AbortEvents = Rd(driver::dispatch::AbortEventsOff);
  Out.GuardPass = Rd(driver::dispatch::GuardPassOff);
  Out.GuardFail = Rd(driver::dispatch::GuardFailOff);
  Out.Demotions = Rd(driver::dispatch::DemotionsOff);
  M.unmap(Base, driver::dispatch::CellSize);
  return true;
}

uint64_t foldLiveOuts(const LoopFunction &F, uint64_t H,
                      const std::vector<int64_t> &LiveOuts) {
  for (size_t S = 0; S < F.scalars().size(); ++S)
    if (F.scalar(S).IsLiveOut)
      H = hashCombine(H, static_cast<uint64_t>(LiveOuts[S]));
  return H;
}

/// The machine loop behind runProgramMulti and runProgramMultiWithFaults:
/// bind each invocation's inputs, run, collect and fold its live-outs;
/// stop at the first invocation that does not halt. \p Injector, when
/// given, is armed over the clone and the transaction unit for the whole
/// sequence.
RunOutcome runMachine(const LoopFunction &F, const codegen::CompiledLoop &CL,
                      const mem::Memory &BaseImage,
                      const std::vector<Bindings> &Invocations,
                      emu::TraceSink *Sink, const emu::RunLimits &Limits,
                      faults::FaultInjector *Injector) {
  RunOutcome Out;
  Out.Ok = true;
  mem::Memory M = BaseImage.clone();
  setUpDispatchCell(CL, M);
  emu::Machine Machine(M);
  if (Injector)
    Injector->arm(M, &Machine.tx());
  for (const Bindings &B : Invocations) {
    Machine.resetRegisters();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Machine.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                        B.ScalarValues[S]);
    for (size_t A = 0; A < B.ArrayBases.size(); ++A)
      Machine.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                        static_cast<int64_t>(B.ArrayBases[A]));
    emu::ExecResult R = Machine.run(CL.Prog, Limits, Sink);
    Out.Exec.Stats.merge(R.Stats);
    if (R.Reason != emu::StopReason::Halted) {
      Out.Ok = false;
      Out.Error = "invocation failed: " + R.describe();
      R.Stats = std::move(Out.Exec.Stats);
      Out.Exec = std::move(R);
      break;
    }
    Out.LiveOuts.clear();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Out.LiveOuts.push_back(Machine.getScalar(
          codegen::scalarParamReg(static_cast<int>(S)).Index));
    Out.LiveOutHash = foldLiveOuts(F, Out.LiveOutHash, Out.LiveOuts);
  }
  if (Injector)
    Injector->disarm();
  Out.Tx = Machine.txStats();
  Out.Mem = M.stats();
  Out.HasDispatch = tearDownDispatchCell(CL, M, Out.Dispatch);
  Out.MemFingerprint = M.fingerprint();
  return Out;
}

} // namespace

RunOutcome core::runProgramMulti(const LoopFunction &F,
                                 const codegen::CompiledLoop &CL,
                                 const mem::Memory &BaseImage,
                                 const std::vector<Bindings> &Invocations,
                                 emu::TraceSink *Sink,
                                 const emu::RunLimits &Limits) {
  return runMachine(F, CL, BaseImage, Invocations, Sink, Limits,
                    /*Injector=*/nullptr);
}

FaultedRun core::runProgramMultiWithFaults(
    const LoopFunction &F, const codegen::CompiledLoop &CL,
    const mem::Memory &BaseImage, const std::vector<Bindings> &Invocations,
    const FaultPlan &Plan) {
  faults::FaultInjector Injector(Plan.Mem, Plan.Tx);
  FaultedRun Run;
  Run.Outcome = runMachine(F, CL, BaseImage, Invocations, /*Sink=*/nullptr,
                           Plan.Limits, &Injector);
  Run.Injection = Injector.stats();
  return Run;
}

RunOutcome core::runReferenceMulti(const LoopFunction &F,
                                   const mem::Memory &BaseImage,
                                   const std::vector<Bindings> &Invocations) {
  RunOutcome Out;
  Out.Ok = true;
  mem::Memory M = BaseImage.clone();
  Interpreter Interp(M);
  for (const Bindings &B : Invocations) {
    Bindings Work = B;
    InterpResult R = Interp.run(F, Work);
    if (R.Faulted) {
      Out.Ok = false;
      Out.Error = "reference memory fault at address " +
                  std::to_string(R.FaultAddr);
      break;
    }
    if (R.DivideError) {
      Out.Ok = false;
      Out.Error = "reference integer divide error (zero divisor or "
                  "INT64_MIN / -1)";
      break;
    }
    Out.LiveOuts = Work.ScalarValues;
    Out.LiveOutHash = foldLiveOuts(F, Out.LiveOutHash, Out.LiveOuts);
  }
  Out.MemFingerprint = M.fingerprint();
  return Out;
}

bool core::outcomesMatch(const LoopFunction &F, const RunOutcome &A,
                         const RunOutcome &B) {
  if (!A.Ok || !B.Ok)
    return false;
  if (A.MemFingerprint != B.MemFingerprint)
    return false;
  if (A.LiveOutHash != B.LiveOutHash)
    return false;
  assert(A.LiveOuts.size() == B.LiveOuts.size());
  for (size_t S = 0; S < F.scalars().size(); ++S) {
    if (!F.scalar(S).IsLiveOut)
      continue;
    if (A.LiveOuts[S] != B.LiveOuts[S])
      return false;
  }
  return true;
}

double core::coverageScaledSpeedup(double HotSpeedup, double Coverage) {
  assert(HotSpeedup > 0 && Coverage >= 0 && Coverage <= 1);
  return 1.0 / (1.0 - Coverage + Coverage / HotSpeedup);
}
