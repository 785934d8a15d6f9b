//===- bench/bench_rtm_tile.cpp - RTM strip-mining tile sensitivity --------===//
//
// Reproduces the claim of Sections 3.3.2 and 4.1: when first-faulting
// loads are not available, FlexVec can run the vector code inside
// rollback-only transactions; with strip-mining, "the inner loop should
// have a tile size of 128 to 256 scalar iterations" to land "within 1% to
// 2% of the code that is vectorized using first faulting load/gather" —
// smaller tiles pay per-transaction overhead, larger tiles risk capacity
// aborts.
//
// The harness sweeps the tile size for the two speculative-load loops
// (the h264ref conditional-update loop and the gzip-style early-exit
// loop) and prints cycles relative to the first-faulting build.
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
  std::printf("RTM strip-mining tile-size sensitivity "
              "(Sections 3.3.2 / 4.1)\n\n");

  struct Case {
    const char *Name;
    std::unique_ptr<ir::LoopFunction> F;
    LoopInputs In;
  };
  std::vector<Case> Cases;
  {
    Case C;
    C.Name = "h264 cond-update";
    C.F = buildH264Loop();
    Rng R(11);
    C.In = genH264Inputs(*C.F, R, /*N=*/60000, /*UpdateProb=*/0.03);
    Cases.push_back(std::move(C));
  }
  {
    Case C;
    C.Name = "string-search early-exit";
    C.F = buildEarlyExitLoop();
    Rng R(12);
    C.In = genEarlyExitInputs(*C.F, R, /*N=*/60000, /*MatchPos=*/55000);
    Cases.push_back(std::move(C));
  }

  const unsigned Tiles[] = {16, 32, 64, 128, 192, 256, 512, 1024};

  for (Case &C : Cases) {
    std::printf("== %s ==\n", C.Name);
    driver::CompileResult FFBuild = driver::compileLoop(*C.F);
    // One invocation timed by an OooCore trace sink; Fp keeps the final
    // memory digest of the latest run.
    const std::vector<ir::Bindings> Invocations{C.In.B};
    uint64_t Fp = 0;
    auto cycles = [&](const codegen::CompiledLoop &CL) {
      sim::OooCore Core;
      Fp = core::runProgramMulti(*C.F, CL, C.In.Image, Invocations, &Core)
               .MemFingerprint;
      return static_cast<double>(Core.stats().Cycles);
    };
    const double FF = cycles(*FFBuild.FlexVec);
    const uint64_t FFFp = Fp;
    const double Scalar = cycles(FFBuild.Scalar);

    TextTable T({"tile (scalar iters)", "cycles", "vs first-faulting",
                 "speedup vs scalar"});
    T.addRow({"first-faulting build",
              TextTable::fmtInt(static_cast<long long>(FF)), "100.0%",
              TextTable::fmt(Scalar / FF, 2) + "x"});
    T.addSeparator();
    for (unsigned Tile : Tiles) {
      driver::CompileResult PR = driver::compileLoop(*C.F, {.RtmTile = Tile});
      const double M = cycles(*PR.Rtm);
      // Cross-check correctness while we are here.
      if (Fp != FFFp) {
        std::printf("tile %u: OUTPUT MISMATCH\n", Tile);
        return 1;
      }
      T.addRow({std::to_string(Tile),
                TextTable::fmtInt(static_cast<long long>(M)),
                TextTable::fmtPercent(M / FF),
                TextTable::fmt(Scalar / M, 2) + "x"});
    }
    T.print();
    std::printf("\n");
  }
  std::printf("paper reference: tiles of 128-256 land within 1-2%% of the "
              "first-faulting build; small tiles pay XBEGIN/XEND overhead.\n");
  return 0;
}
