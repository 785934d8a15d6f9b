//===- bench/bench_table1.cpp - Table 1: simulation parameters -------------===//
//
// Regenerates Table 1 of the paper: the simulated core configuration
// (echoed from the live defaults; only values the model reads) and the
// FlexVec instruction latencies/throughputs, measured the way the paper
// measured VPCONFLICTM — "running a micro-kernel calling [the instruction]
// back to back" on the cycle model. Dependent chains expose latency;
// independent streams expose reciprocal throughput.
//
//===----------------------------------------------------------------------===//

#include "emu/Machine.h"
#include "sim/OooCore.h"
#include "support/Table.h"

#include <cstdio>
#include <string>

using namespace flexvec;
using namespace flexvec::isa;
using namespace flexvec::sim;

namespace {

SimStats timeProgram(const Program &P, mem::Memory &M) {
  OooCore Core;
  emu::Machine Mach(M);
  Mach.run(P, emu::RunLimits(), &Core);
  return Core.stats();
}

/// Per-op cycles of a dependent chain (latency) of \p Op on mask k3.
double maskChain(Opcode Op, bool Dependent, int N = 2000) {
  mem::Memory M;
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0xFFFF);
  B.kset(Reg::mask(3), 0x0010);
  for (int I = 0; I < N; ++I) {
    Instruction Ins;
    Ins.Op = Op;
    Ins.Type = ElemType::I32;
    Ins.Dst = Dependent ? Reg::mask(3) : Reg::mask(4);
    Ins.Src1 = Reg::mask(3);
    Ins.MaskReg = Reg::mask(1);
    B.emit(Ins);
  }
  B.halt();
  return static_cast<double>(timeProgram(B.finalize(), M).Cycles) / N;
}

double slctLast(bool Dependent, int N = 2000) {
  mem::Memory M;
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0x00FF);
  for (int I = 0; I < N; ++I)
    B.vslctlast(Dependent ? Reg::vector(1) : Reg::vector(2), ElemType::I32,
                Reg::mask(1), Reg::vector(1));
  B.halt();
  return static_cast<double>(timeProgram(B.finalize(), M).Cycles) / N;
}

double conflictM(bool Dependent, int N = 1000) {
  mem::Memory M;
  ProgramBuilder B;
  B.kset(Reg::mask(1), 0xFFFF);
  if (Dependent) {
    // Chain through the result mask: conflict -> kftm (2) -> next enable.
    for (int I = 0; I < N; ++I) {
      B.vconflictm(Reg::mask(2), ElemType::I32, Reg::mask(1), Reg::vector(1),
                   Reg::vector(2));
      B.kftmExc(Reg::mask(1), ElemType::I32, Reg::mask(2), Reg::mask(2));
    }
  } else {
    for (int I = 0; I < N; ++I)
      B.vconflictm(Reg::mask(2), ElemType::I32, Reg::mask(1), Reg::vector(1),
                   Reg::vector(2));
  }
  B.halt();
  double PerOp = static_cast<double>(timeProgram(B.finalize(), M).Cycles) / N;
  return Dependent ? PerOp - 2.0 /* subtract the KFTM link */ : PerOp;
}

/// First-faulting gather: lanes-per-cycle throughput over the two load
/// ports (paper: 1-cycle AGU latency, 2 loads per cycle).
double gatherFFLanesPerCycle(int N = 500) {
  mem::Memory M;
  M.map(0x1000, 1 << 16);
  ProgramBuilder B;
  B.movImm(Reg::scalar(1), 0x1000);
  B.movImm(Reg::scalar(2), 0);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(2));
  for (int I = 0; I < N; ++I) {
    B.kset(Reg::mask(1), 0xFFFF);
    B.vgatherff(Reg::vector(2), ElemType::I32, Reg::mask(1), Reg::scalar(1),
                Reg::vector(1), 4, 0);
  }
  B.halt();
  SimStats S = timeProgram(B.finalize(), M);
  return 16.0 * N / static_cast<double>(S.Cycles);
}

} // namespace

int main() {
  std::printf("Table 1: Simulation Parameters\n\n");

  TextTable Top({"component", "configuration"});
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "%u/%u wide", FetchWidth,
                CommitWidth);
  Top.addRow({"Fetch/Commit", Buf});
  Top.addRow({"RS", std::to_string(RsEntries) + " entries"});
  Top.addRow({"ROB", std::to_string(RobEntries) + " entries"});
  Top.addRow({"Load/Store Queues", std::to_string(LoadQueueEntries) +
                                       "/" +
                                       std::to_string(StoreQueueEntries) +
                                       " entries"});
  auto cache = [](const CacheLevelConfig &C, const char *Latency) {
    uint64_t K = C.SizeBytes / 1024;
    std::string Size = K >= 1024 ? std::to_string(K / 1024) + "M"
                                 : std::to_string(K) + "K";
    return Size + ", " + std::to_string(C.Ways) + " way, " +
           std::to_string(C.LatencyCycles) + Latency;
  };
  Top.addRow({"L1 Dcache", cache(L1D, " cycles load to use latency")});
  Top.addRow({"L2 Unified Cache", cache(L2, " cycles hit time")});
  Top.addRow({"L3 Cache", cache(L3, " cycles hit time")});
  Top.addRow({"Memory Latency", std::to_string(MemoryLatency) +
                                    " cycles"});
  Top.addRow({"Load/Store Ports", std::to_string(LoadPorts) + "/" +
                                      std::to_string(StorePorts) +
                                      " units"});
  Top.print();
  std::printf("(Table 1's 5-wide dispatch and 8-wide issue are not modelled: "
              "issue is bounded by the execution units only.)\n");

  std::printf("\nFlexVec instruction latency/throughput "
              "(measured on the cycle model; paper values in brackets)\n\n");
  TextTable Bottom({"FlexVec instruction", "latency (cycles)",
                    "per-op cost, independent stream", "paper"});
  Bottom.addRow({"KFTMEXC", TextTable::fmt(maskChain(Opcode::KFtmExc, true), 1),
                 TextTable::fmt(maskChain(Opcode::KFtmExc, false), 2),
                 "2, 1"});
  Bottom.addRow({"KFTMINC", TextTable::fmt(maskChain(Opcode::KFtmInc, true), 1),
                 TextTable::fmt(maskChain(Opcode::KFtmInc, false), 2),
                 "2, 1"});
  Bottom.addRow({"VPSLCTLAST", TextTable::fmt(slctLast(true), 1),
                 TextTable::fmt(slctLast(false), 2), "3, 1"});
  Bottom.addRow({"VPCONFLICTM", TextTable::fmt(conflictM(true), 1),
                 TextTable::fmt(conflictM(false), 2), "20, 2"});
  char GBuf[64];
  std::snprintf(GBuf, sizeof(GBuf), "%.1f lanes/cycle",
                gatherFFLanesPerCycle());
  Bottom.addRow({"VPGATHERFF/VMOVFF", "1 cycle AGU + cache", GBuf,
                 "1 cycle AGU, 2 loads/cycle"});
  Bottom.print();
  return 0;
}
