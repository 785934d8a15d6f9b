//===- examples/paper_figures.cpp - Walk the paper's figures ---------------===//
//
// Reproduces the paper's worked compilation examples as text: for each of
// the three pattern loops (Figures 2, 5, and 6/7), prints the source-level
// IR, the program dependence graph with the backward arcs FlexVec relaxes,
// the analysis plan (statement tags), and the generated partial vector
// code with VPLs.
//
//   $ ./examples/paper_figures [h264|conflict|earlyexit]
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerDriver.h"
#include "pdg/Pdg.h"
#include "workloads/PaperLoops.h"

#include <cstdio>
#include <cstring>

using namespace flexvec;

namespace {

void show(const char *Title, const char *FigureRef,
          const ir::LoopFunction &F) {
  std::printf("==========================================================\n");
  std::printf("%s (%s)\n", Title, FigureRef);
  std::printf("==========================================================\n\n");

  std::printf("-- source loop --\n%s\n", F.print().c_str());

  pdg::Pdg P(F);
  std::printf("-- program dependence graph --\n%s\n", P.dump().c_str());

  driver::CompileResult PR = driver::compileLoop(F);
  std::printf("-- analysis --\n%s\n\n", PR.Plan.describe(F).c_str());

  std::printf("-- FlexVec partial vector code --\n%s\n",
              PR.FlexVec->Prog.disassemble().c_str());

  std::printf("-- RTM variant (strip-mined, Figure 3 / Figure 5(f)) --\n");
  std::printf("%s\n", PR.Rtm->Notes.c_str());
  std::printf("(instructions: %zu; XBEGIN used: %s)\n\n",
              PR.Rtm->Prog.size(),
              PR.Rtm->Prog.usesOpcode(isa::Opcode::XBegin) ? "yes" : "no");
}

} // namespace

int main(int argc, char **argv) {
  const char *Which = argc > 1 ? argv[1] : "all";
  bool All = std::strcmp(Which, "all") == 0;

  if (All || std::strcmp(Which, "conflict") == 0) {
    auto F = workloads::buildConflictLoop();
    show("Runtime memory dependence", "Figure 2 / Figure 7", *F);
  }
  if (All || std::strcmp(Which, "earlyexit") == 0) {
    auto F = workloads::buildEarlyExitLoop();
    show("Early loop termination", "Figure 5", *F);
  }
  if (All || std::strcmp(Which, "h264") == 0) {
    auto F = workloads::buildH264Loop();
    show("Conditional scalar update (464.h264ref)", "Figures 1 and 6", *F);
  }
  return 0;
}
