//===- examples/string_match.cpp - Early termination with FF loads ---------===//
//
// Domain scenario: a gzip/zlib-style match scan — walk a corpus until a
// sentinel is found, with a data-dependent table lookup per element
// (Figure 5 of the paper). Demonstrates:
//
//  1. vectorized early exit: the first matching lane commits `best_pos`
//     via VPSLCTLAST and clips k_loop for the lanes past it,
//  2. speculative safety: when the string ends exactly at a page boundary
//     one element past the match, the first-faulting load clips its mask
//     and the program falls back to scalar — and still gets the right
//     answer, and
//  3. the RTM alternative surviving the same scenario via abort + scalar
//     tile.
//
//   $ ./examples/string_match
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
  auto F = buildEarlyExitLoop();
  std::printf("== The loop (Figure 5 of the paper) ==\n%s\n",
              F->print().c_str());
  driver::CompileResult PR = driver::compileLoop(*F);
  std::printf("== Plan ==\n%s\n\n", PR.Plan.describe(*F).c_str());

  // Runs CL once on In's inputs; Core, when given, times the run.
  auto run = [&](const codegen::CompiledLoop &CL, const LoopInputs &In,
                 sim::OooCore *Core = nullptr) {
    return core::runProgramMulti(*F, CL, In.Image, {In.B}, Core);
  };

  // 1. Match-position sweep: the earlier the match, the less there is to
  //    vectorize; speedup grows with the scan length.
  std::printf("== Match position sweep (declared length 40000) ==\n");
  TextTable T({"match at", "scalar cycles", "flexvec cycles", "speedup",
               "best_pos correct"});
  for (int64_t MatchPos : {5L, 100L, 2000L, 20000L, 39999L}) {
    Rng R(9);
    LoopInputs In = genEarlyExitInputs(*F, R, 40000, MatchPos);
    core::RunOutcome Ref = core::runReferenceMulti(*F, In.Image, {In.B});
    sim::OooCore Scalar, Flex;
    run(PR.Scalar, In, &Scalar);
    core::RunOutcome FlexOut = run(*PR.FlexVec, In, &Flex);
    const uint64_t ScalarCycles = Scalar.stats().Cycles;
    const uint64_t FlexCycles = Flex.stats().Cycles;
    T.addRow({TextTable::fmtInt(MatchPos),
              TextTable::fmtInt(static_cast<long long>(ScalarCycles)),
              TextTable::fmtInt(static_cast<long long>(FlexCycles)),
              TextTable::fmt(static_cast<double>(ScalarCycles) /
                                 static_cast<double>(FlexCycles),
                             2) +
                  "x",
              core::outcomesMatch(*F, Ref, FlexOut) ? "yes" : "NO"});
  }
  T.print();

  // 2. Speculative fault: the string is mapped only up to one element past
  //    the match, ending exactly at a page boundary.
  std::printf("\n== Speculation past the end of the mapped string ==\n");
  Rng R(10);
  LoopInputs Tight = genEarlyExitInputs(*F, R, /*N=*/4000, /*MatchPos=*/777,
                                        /*TightPages=*/true);
  core::RunOutcome Ref = core::runReferenceMulti(*F, Tight.Image, {Tight.B});
  core::RunOutcome Flex = run(*PR.FlexVec, Tight);
  core::RunOutcome Rtm = run(*PR.Rtm, Tight);
  std::printf("  reference best_pos     = %lld\n",
              static_cast<long long>(Ref.LiveOuts[2]));
  std::printf("  flexvec (FF fallback)  = %lld  [%s, ran to completion: %s]\n",
              static_cast<long long>(Flex.LiveOuts[2]),
              core::outcomesMatch(*F, Ref, Flex) ? "correct" : "WRONG",
              Flex.Ok ? "yes" : "no");
  std::printf("  flexvec-rtm (abort)    = %lld  [%s]\n",
              static_cast<long long>(Rtm.LiveOuts[2]),
              core::outcomesMatch(*F, Ref, Rtm) ? "correct" : "WRONG");
  std::printf("\nWithout first-faulting semantics a plain vector load would "
              "deliver an architectural fault the scalar program never\n"
              "raises; VMOVFF clips the write-mask instead, the emitted "
              "check notices, and execution completes in scalar.\n");
  return 0;
}
