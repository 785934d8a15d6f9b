//===- examples/conflict_detection.cpp - Runtime memory dependences --------===//
//
// Domain scenario: a table-update loop in the 473.astar mold (Figure 2 of
// the paper) whose store can hit a slot read by a later iteration. Shows
// how VPCONFLICTM + KFTM.EXC partition each vector iteration at runtime:
// the example runs the same loop at several conflict rates, verifies the
// results against the reference interpreter, and reports how many VPL
// rounds were needed and what that does to cycles.
//
//   $ ./examples/conflict_detection
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "sim/OooCore.h"
#include "support/Table.h"
#include "workloads/PaperLoops.h"

#include <cstdio>

using namespace flexvec;
using namespace flexvec::workloads;

int main() {
  auto F = buildConflictLoop();
  std::printf("== The loop (Figure 2 of the paper) ==\n%s\n",
              F->print().c_str());

  driver::CompileResult PR = driver::compileLoop(*F);
  std::printf("== Plan ==\n%s\n\n", PR.Plan.describe(*F).c_str());

  std::printf("The conflict check and the vector partitioning loop in the "
              "generated code:\n\n");
  // Print just the VPL region: from the first vconflictm to the backward
  // branch that closes the do/while.
  const isa::Program &P = PR.FlexVec->Prog;
  size_t First = 0, Last = 0;
  for (size_t I = 0; I < P.size(); ++I) {
    if (P[I].Op == isa::Opcode::VConflictM && First == 0)
      First = I > 2 ? I - 2 : 0;
    if (P[I].Op == isa::Opcode::KFtmExc)
      Last = I;
  }
  for (size_t I = First; I < std::min(P.size(), Last + 8); ++I)
    std::printf("%4zu:  %s\n", I, P[I].str().c_str());

  std::printf("\n== Sweeping the runtime conflict rate (n = 30000) ==\n");
  TextTable T({"conflict prob", "VPL rounds/chunk", "scalar cycles",
               "flexvec cycles", "speedup", "correct"});
  for (double Prob : {0.0, 0.02, 0.1, 0.3}) {
    Rng R(5);
    LoopInputs In = genConflictInputs(*F, R, 30000, Prob, 2048);

    // One invocation; each OooCore times its program as a trace sink.
    const std::vector<ir::Bindings> Invocations{In.B};
    core::RunOutcome Ref = core::runReferenceMulti(*F, In.Image, Invocations);
    sim::OooCore Scalar, Flex;
    core::runProgramMulti(*F, PR.Scalar, In.Image, Invocations, &Scalar);
    core::RunOutcome FlexOut =
        core::runProgramMulti(*F, *PR.FlexVec, In.Image, Invocations, &Flex);
    bool Correct = core::outcomesMatch(*F, Ref, FlexOut);

    uint64_t Kftm = FlexOut.Exec.Stats.countOf(isa::Opcode::KFtmExc);
    double Rounds = static_cast<double>(Kftm) / (30000.0 / 16.0);
    const uint64_t ScalarCycles = Scalar.stats().Cycles;
    const uint64_t FlexCycles = Flex.stats().Cycles;
    T.addRow({TextTable::fmt(Prob, 2), TextTable::fmt(Rounds, 2),
              TextTable::fmtInt(static_cast<long long>(ScalarCycles)),
              TextTable::fmtInt(static_cast<long long>(FlexCycles)),
              TextTable::fmt(static_cast<double>(ScalarCycles) /
                                 static_cast<double>(FlexCycles),
                             2) +
                  "x",
              Correct ? "yes" : "NO"});
  }
  T.print();

  std::printf("\nEvery store-to-load order the scalar loop would produce is "
              "preserved: the VPL executes the lanes before each detected\n"
              "conflict, retires them from k_todo, and re-runs the gather "
              "for the dependent lanes after the store has committed.\n");
  return 0;
}
