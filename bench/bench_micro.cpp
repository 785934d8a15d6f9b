//===- bench/bench_micro.cpp - Engineering micro-benchmarks ----------------===//
//
// google-benchmark measurements of the repository's own machinery: the
// functional emulator, the coupled emulator+timing pipeline, the
// compilation pipeline, and the PDG/analysis front end. These guard the
// experiment harness's wall-clock budget rather than reproducing a paper
// figure.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "emu/simd/Kernels.h"
#include "isa/Program.h"
#include "sim/OooCore.h"
#include "workloads/PaperLoops.h"

#include <benchmark/benchmark.h>

#include <cstring>

using namespace flexvec;
using namespace flexvec::workloads;

namespace {

struct Fixture {
  std::unique_ptr<ir::LoopFunction> F = buildH264Loop();
  driver::CompileResult PR = driver::compileLoop(*F);
  LoopInputs In;
  std::vector<ir::Bindings> Invocations; ///< One: In.B.
  Fixture() {
    Rng R(31);
    In = genH264Inputs(*F, R, 20000, 0.02);
    Invocations = {In.B};
  }
};

Fixture &fixture() {
  static Fixture Fx;
  return Fx;
}

void BM_EmulatorScalar(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    core::RunOutcome Out = core::runProgramMulti(*Fx.F, Fx.PR.Scalar,
                                                 Fx.In.Image, Fx.Invocations);
    Instrs += Out.Exec.Stats.Instructions;
    benchmark::DoNotOptimize(Out.MemFingerprint);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

void BM_EmulatorFlexVec(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    core::RunOutcome Out = core::runProgramMulti(*Fx.F, *Fx.PR.FlexVec,
                                                 Fx.In.Image, Fx.Invocations);
    Instrs += Out.Exec.Stats.Instructions;
    benchmark::DoNotOptimize(Out.MemFingerprint);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

void BM_EmulatorPlusTimingModel(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    sim::OooCore Core;
    core::runProgramMulti(*Fx.F, *Fx.PR.FlexVec, Fx.In.Image, Fx.Invocations,
                          &Core);
    Instrs += Core.stats().Instructions;
    benchmark::DoNotOptimize(Core.stats().Cycles);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

void BM_ReferenceInterpreter(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Iters = 0;
  for (auto _ : State) {
    core::RunOutcome Out =
        core::runReferenceMulti(*Fx.F, Fx.In.Image, Fx.Invocations);
    benchmark::DoNotOptimize(Out.MemFingerprint);
    Iters += 20000;
  }
  State.counters["loop-iters/s"] = benchmark::Counter(
      static_cast<double>(Iters), benchmark::Counter::kIsRate);
}

void BM_CompilePipeline(benchmark::State &State) {
  for (auto _ : State) {
    auto F = buildH264Loop();
    driver::CompileResult PR = driver::compileLoop(*F);
    benchmark::DoNotOptimize(PR.FlexVec->Prog.size());
  }
}

void BM_PdgAndAnalysis(benchmark::State &State) {
  auto F = buildH264Loop();
  for (auto _ : State) {
    pdg::Pdg P(*F);
    analysis::VectorizationPlan Plan = analysis::analyzeLoop(P);
    benchmark::DoNotOptimize(Plan.Vectorizable);
  }
}

void BM_MemoryClone(benchmark::State &State) {
  Fixture &Fx = fixture();
  for (auto _ : State) {
    mem::Memory M = Fx.In.Image.clone();
    benchmark::DoNotOptimize(M.numPages());
  }
}

//===----------------------------------------------------------------------===//
// Hot-path attribution benchmarks (docs/PERFORMANCE.md): each of the
// pipeline optimizations measured in isolation, so a regression in one
// layer is visible without re-profiling the whole sweep.
//===----------------------------------------------------------------------===//

// Layer 1a, software TLB. Same-page accesses are the loop-workload common
// case and must be served by the TLB, not the page-map tree walk; the
// miss benchmark ping-pongs between two pages that collide in the
// direct-mapped TLB (64 entries, so pages 0 and 64 share a slot), making
// every lookup take the slow path. The hit/miss gap is the TLB's win.
void BM_MemoryTlbHitLoad(benchmark::State &State) {
  mem::Memory M;
  M.map(0x10000, mem::PageSize);
  uint64_t Accesses = 0;
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (uint64_t Off = 0; Off + 8 <= mem::PageSize; Off += 8) {
      uint64_t V = 0;
      M.readValue(0x10000 + Off, V);
      Sum += V;
    }
    Accesses += mem::PageSize / 8;
    benchmark::DoNotOptimize(Sum);
  }
  State.counters["loads/s"] = benchmark::Counter(
      static_cast<double>(Accesses), benchmark::Counter::kIsRate);
  State.counters["tlb-hit-rate"] =
      static_cast<double>(M.stats().TlbHits) /
      static_cast<double>(M.stats().TlbHits + M.stats().TlbMisses);
}

void BM_MemoryTlbMissLoad(benchmark::State &State) {
  mem::Memory M;
  M.map(0x10000, mem::PageSize);
  M.map(0x10000 + 64 * mem::PageSize, mem::PageSize); // same TLB slot
  uint64_t Accesses = 0;
  for (auto _ : State) {
    uint64_t Sum = 0;
    for (unsigned I = 0; I < 256; ++I) {
      uint64_t V = 0;
      M.readValue(0x10000 + (I & 1) * 64 * mem::PageSize, V);
      Sum += V;
    }
    Accesses += 256;
    benchmark::DoNotOptimize(Sum);
  }
  State.counters["loads/s"] = benchmark::Counter(
      static_cast<double>(Accesses), benchmark::Counter::kIsRate);
  State.counters["tlb-hit-rate"] =
      static_cast<double>(M.stats().TlbHits) /
      static_cast<double>(M.stats().TlbHits + M.stats().TlbMisses);
}

// Layer 1b, copy-on-write clones. clone() against the eager deepClone()
// it replaced on the per-cell path; the COW side also pays the first
// write per touched page, so both halves of the trade are visible.
void BM_MemoryDeepClone(benchmark::State &State) {
  Fixture &Fx = fixture();
  for (auto _ : State) {
    mem::Memory M = Fx.In.Image.deepClone();
    benchmark::DoNotOptimize(M.numPages());
  }
}

void BM_MemoryCloneThenTouchAll(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Copies = 0;
  for (auto _ : State) {
    mem::Memory M = Fx.In.Image.clone();
    // Touch one word per mapped data page (worst case for COW). The image
    // is laid out from 0x10000 upward with one unmapped guard page per
    // allocation, so scanning twice the mapped span covers every page;
    // reads of guard pages fault and are skipped.
    uint64_t End = 0x10000 + 2 * Fx.In.Image.numPages() * mem::PageSize;
    for (uint64_t A = 0x10000; A < End; A += mem::PageSize) {
      uint64_t V = 0;
      if (M.readValue(A, V).Ok)
        M.writeValue(A, V + 1);
    }
    Copies += M.stats().CowCopies;
    benchmark::DoNotOptimize(M.numPages());
  }
  State.counters["cow-copies"] =
      static_cast<double>(Copies) / static_cast<double>(State.iterations());
}

// Layer 2, pre-decoded dispatch. Plan construction runs once per
// Machine::run; BM_EmulatorScalar/FlexVec above measure the resulting
// steady-state dispatch throughput. This pins the predecode + setup cost
// alone by stopping the run after a single retired instruction.
void BM_PredecodeAndSetup(benchmark::State &State) {
  Fixture &Fx = fixture();
  emu::RunLimits Limits;
  Limits.MaxInstructions = 1;
  for (auto _ : State) {
    core::RunOutcome Out = core::runProgramMulti(
        *Fx.F, Fx.PR.Scalar, Fx.In.Image, Fx.Invocations, nullptr, Limits);
    benchmark::DoNotOptimize(Out.Exec.Stats.Instructions);
  }
}

// Layer 3, trace delivery. The same run fed to a sink that only
// implements onInstr (every record goes through the compatibility shim —
// one virtual call per retired instruction, the legacy cost model) versus
// a batch-native sink (one virtual call per 64-entry batch).
struct PerInstrCountingSink final : emu::TraceSink {
  uint64_t Records = 0;
  void onInstr(const emu::DynInstr &DI) override {
    Records += 1 + DI.NumMemAddrs;
  }
};

struct BatchCountingSink final : emu::TraceSink {
  uint64_t Records = 0;
  void onInstr(const emu::DynInstr &DI) override {
    Records += 1 + DI.NumMemAddrs;
  }
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    for (size_t I = 0; I < N; ++I)
      Records += 1 + Batch[I].NumMemAddrs;
  }
};

template <typename SinkT>
void runTraceDelivery(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    SinkT Sink;
    core::RunOutcome Out = core::runProgramMulti(
        *Fx.F, *Fx.PR.FlexVec, Fx.In.Image, Fx.Invocations, &Sink);
    Instrs += Out.Exec.Stats.Instructions;
    benchmark::DoNotOptimize(Sink.Records);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

void BM_TraceDeliveryPerInstr(benchmark::State &State) {
  runTraceDelivery<PerInstrCountingSink>(State);
}

void BM_TraceDeliveryBatched(benchmark::State &State) {
  runTraceDelivery<BatchCountingSink>(State);
}

void BM_TraceDeliveryNoSink(benchmark::State &State) {
  Fixture &Fx = fixture();
  uint64_t Instrs = 0;
  for (auto _ : State) {
    core::RunOutcome Out = core::runProgramMulti(*Fx.F, *Fx.PR.FlexVec,
                                                 Fx.In.Image, Fx.Invocations);
    Instrs += Out.Exec.Stats.Instructions;
    benchmark::DoNotOptimize(Out.MemFingerprint);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
}

//===----------------------------------------------------------------------===//
// Layer 4, SIMD lane kernels (emu/simd). Two levels of attribution:
//
//  - BM_LaneKernel/*: one kernel call in isolation — the per-opcode
//    throughput of each backend's table entry, full-mask vs half-mask.
//    This is where a backend regression shows up without any dispatch
//    noise on top.
//  - BM_VectorCode/*: a sinkless emulator run over synthetic vector-only
//    programs with RunLimits::Simd pinned per backend — the instr/s the
//    kernels buy once dispatch, retire and (for the memory variants) the
//    TLB fast paths are back in the loop. ALU (register-only), masked
//    ALU, unit-stride load/store and gather/scatter variants separate
//    the kernel win from the memory-path win.
//
// Two rows: scalar, and avx2 — registered only when SimdBackend::Auto
// resolves to the AVX2 table, so the suite is runnable anywhere.
//===----------------------------------------------------------------------===//

struct KernelBackend {
  const char *Name;
  emu::SimdBackend Backend;
  const emu::simd::KernelTable *Table;
};

std::vector<KernelBackend> kernelBackends() {
  std::vector<KernelBackend> Rows{
      {"scalar", emu::SimdBackend::Scalar, &emu::simd::scalarKernels()}};
  if (emu::resolveSimdBackend(emu::SimdBackend::Auto) == emu::SimdBackend::Avx2)
    Rows.push_back(
        {"avx2", emu::SimdBackend::Auto, &emu::simd::avx2Kernels()});
  return Rows;
}

/// Deterministic operand bytes; nonzero everywhere so VFDiv stays finite.
struct KernelOperands {
  alignas(64) uint8_t A[64];
  alignas(64) uint8_t B[64];
  alignas(64) uint8_t D[64];
  KernelOperands() {
    for (unsigned I = 0; I < 64; ++I) {
      A[I] = static_cast<uint8_t>(I * 7 + 3);
      B[I] = static_cast<uint8_t>(I * 13 + 5);
      D[I] = 0;
    }
    // Overwrite with well-formed lane payloads for the FP benchmarks;
    // integer kernels are total, so any bytes are valid for them.
    for (unsigned L = 0; L < 16; ++L) {
      float Fa = 1.5f + static_cast<float>(L);
      float Fb = 0.75f + static_cast<float>(L) * 0.5f;
      std::memcpy(A + L * 4, &Fa, 4);
      std::memcpy(B + L * 4, &Fb, 4);
    }
  }
};

void runBinKernel(benchmark::State &State, emu::simd::VecBinFn Fn,
                  uint64_t Mask) {
  KernelOperands Ops;
  for (auto _ : State) {
    Fn(Ops.D, Ops.A, Ops.B, Mask);
    benchmark::DoNotOptimize(Ops.D[0]);
    benchmark::ClobberMemory();
  }
  State.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}

void runCmpKernel(benchmark::State &State, emu::simd::VecCmpFn Fn,
                  uint64_t Mask) {
  KernelOperands Ops;
  uint64_t Acc = 0;
  for (auto _ : State) {
    Acc ^= Fn(Ops.A, Ops.B, Mask);
    benchmark::DoNotOptimize(Acc);
  }
  State.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}

void runConflictKernel(benchmark::State &State, emu::simd::VecConflictFn Fn,
                       uint64_t Enable) {
  KernelOperands Ops;
  uint64_t Acc = 0;
  for (auto _ : State) {
    Acc ^= Fn(Ops.A, Ops.B, Enable);
    benchmark::DoNotOptimize(Acc);
  }
  State.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}

void runGatherAddrKernel(benchmark::State &State, emu::simd::GatherAddrFn Fn) {
  KernelOperands Ops;
  uint64_t Addrs[16];
  for (auto _ : State) {
    Fn(Addrs, Ops.A, /*Base=*/0x10000, /*Disp=*/8, /*Scale=*/4);
    benchmark::DoNotOptimize(Addrs[0]);
    benchmark::ClobberMemory();
  }
  State.counters["kernels/s"] = benchmark::Counter(
      static_cast<double>(State.iterations()), benchmark::Counter::kIsRate);
}

/// Straight-line vector ALU block repeated by a scalar loop; sinkless, so
/// the measurement is dispatch + lane kernels and nothing else. When
/// \p Masked, every op runs under an alternating-lanes write mask.
isa::Program buildVectorAluProgram(bool Masked) {
  using namespace isa;
  ProgramBuilder B;
  const Reg Mask = Masked ? Reg::mask(1) : Reg::none();
  if (Masked)
    B.kset(Reg::mask(1), 0x5555);
  B.movImm(Reg::scalar(1), 1);
  B.movImm(Reg::scalar(2), 7);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(1));
  B.vbroadcast(Reg::vector(2), ElemType::I32, Reg::scalar(2));
  B.fmovImm(Reg::scalar(3), ElemType::F32, 1.25);
  B.vbroadcast(Reg::vector(3), ElemType::F32, Reg::scalar(3));
  B.vbroadcastImm(Reg::vector(4), ElemType::F32, 3);
  B.movImm(Reg::scalar(4), 0); // loop counter
  auto Head = B.createLabel();
  auto Exit = B.createLabel();
  B.bind(Head);
  B.cmpImm(Reg::scalar(5), CmpKind::LT, Reg::scalar(4), 4096);
  B.brZero(Reg::scalar(5), Exit);
  // 16 vector ALU ops per trip: the int and fp families the kernel layer
  // serves, on both element widths.
  for (int Rep = 0; Rep < 2; ++Rep) {
    B.vbinOp(Opcode::VAdd, ElemType::I32, Reg::vector(5), Reg::vector(1),
             Reg::vector(2), Mask);
    B.vbinOp(Opcode::VMul, ElemType::I32, Reg::vector(6), Reg::vector(5),
             Reg::vector(2), Mask);
    B.vbinOp(Opcode::VXor, ElemType::I32, Reg::vector(5), Reg::vector(6),
             Reg::vector(1), Mask);
    B.vbinOp(Opcode::VMax, ElemType::I32, Reg::vector(6), Reg::vector(5),
             Reg::vector(2), Mask);
    B.vbinOpImm(Opcode::VAddImm, ElemType::I32, Reg::vector(5), Reg::vector(6),
                11, Mask);
    B.vbinOp(Opcode::VFAdd, ElemType::F32, Reg::vector(7), Reg::vector(3),
             Reg::vector(4), Mask);
    B.vbinOp(Opcode::VFMul, ElemType::F32, Reg::vector(8), Reg::vector(7),
             Reg::vector(3), Mask);
    B.vbinOp(Opcode::VFMax, ElemType::F32, Reg::vector(7), Reg::vector(8),
             Reg::vector(4), Mask);
  }
  B.binOpImm(Opcode::AddImm, Reg::scalar(4), Reg::scalar(4), 1);
  B.jmp(Head);
  B.bind(Exit);
  B.halt();
  return B.finalize();
}

/// Unit-stride VLoad/VStore sweep over a mapped buffer: full write mask,
/// no transaction, resident pages — every access takes the block-copy
/// fast path. The gathered variant drives the same traffic through
/// VGather/VScatter with an index vector (batched address translation).
isa::Program buildVectorMemProgram(bool Gathered) {
  using namespace isa;
  ProgramBuilder B;
  const uint64_t Base = 0x10000;
  B.movImm(Reg::scalar(1), static_cast<int64_t>(Base));
  B.movImm(Reg::scalar(2), static_cast<int64_t>(Base) + 8192);
  B.movImm(Reg::scalar(6), 0);
  B.vindex(Reg::vector(1), ElemType::I32, Reg::scalar(6)); // 0..15
  B.movImm(Reg::scalar(4), 0); // loop counter
  B.movImm(Reg::scalar(5), 0); // byte offset, wraps inside the buffer
  auto Head = B.createLabel();
  auto Exit = B.createLabel();
  B.bind(Head);
  B.cmpImm(Reg::scalar(3), CmpKind::LT, Reg::scalar(4), 4096);
  B.brZero(Reg::scalar(3), Exit);
  if (Gathered) {
    B.vgather(Reg::vector(2), ElemType::I32, Reg::none(), Reg::scalar(5),
              Reg::vector(1), 4, static_cast<int64_t>(Base));
    B.vscatter(ElemType::I32, Reg::none(), Reg::scalar(5), Reg::vector(1), 4,
               static_cast<int64_t>(Base) + 8192, Reg::vector(2));
  } else {
    B.vload(Reg::vector(2), ElemType::I32, Reg::none(), Reg::scalar(1),
            Reg::scalar(5), 1, 0);
    B.vstore(ElemType::I32, Reg::none(), Reg::scalar(2), Reg::scalar(5), 1, 0,
             Reg::vector(2));
  }
  B.binOpImm(Opcode::AddImm, Reg::scalar(5), Reg::scalar(5), 64);
  B.binOpImm(Opcode::AndImm, Reg::scalar(5), Reg::scalar(5), 4095);
  B.binOpImm(Opcode::AddImm, Reg::scalar(4), Reg::scalar(4), 1);
  B.jmp(Head);
  B.bind(Exit);
  B.halt();
  return B.finalize();
}

void runVectorCode(benchmark::State &State, const isa::Program &P,
                   emu::SimdBackend Backend, bool MapMemory) {
  mem::Memory M;
  if (MapMemory)
    M.map(0x10000, 16384);
  emu::Machine Mach(M);
  emu::RunLimits Limits;
  Limits.Simd = Backend;
  uint64_t Instrs = 0, VecOps = 0;
  for (auto _ : State) {
    emu::ExecResult R = Mach.run(P, Limits);
    if (R.Reason != emu::StopReason::Halted)
      State.SkipWithError("vector-code program did not halt");
    Instrs += R.Stats.Instructions;
    VecOps += R.Stats.VectorOps;
    benchmark::DoNotOptimize(R.Stats.Instructions);
  }
  State.counters["instrs/s"] = benchmark::Counter(
      static_cast<double>(Instrs), benchmark::Counter::kIsRate);
  State.counters["vecops/s"] = benchmark::Counter(
      static_cast<double>(VecOps), benchmark::Counter::kIsRate);
}

int registerSimdBenches() {
  using benchmark::RegisterBenchmark;
  static constexpr uint64_t Full32 = 0xffff, Half32 = 0x5555;
  static constexpr uint64_t Full64 = 0xff;
  for (const KernelBackend &KB : kernelBackends()) {
    const emu::simd::KernelTable &T = *KB.Table;
    std::string P = std::string("BM_LaneKernel/") + KB.Name + "/";
    auto AddBin = [&](const char *Op, emu::simd::VecBinFn Fn, uint64_t Mask,
                      const char *MaskName) {
      RegisterBenchmark((P + Op + "/" + MaskName).c_str(),
                        [Fn, Mask](benchmark::State &S) {
                          runBinKernel(S, Fn, Mask);
                        });
    };
    AddBin("VAdd.i32", T.IntBin[0][0], Full32, "full");
    AddBin("VAdd.i32", T.IntBin[0][0], Half32, "half");
    AddBin("VMul.i32", T.IntBin[2][0], Full32, "full");
    AddBin("VMin.i64", T.IntBin[6][1], Full64, "full");
    AddBin("VFAdd.f32", T.FpBin[0][0], Full32, "full");
    AddBin("VFAdd.f32", T.FpBin[0][0], Half32, "half");
    AddBin("VFDiv.f64", T.FpBin[3][1], Full64, "full");
    AddBin("VFMin.f32", T.FpBin[4][0], Full32, "full");
    RegisterBenchmark((P + "VCmpLT.i32/full").c_str(),
                      [Fn = T.CmpInt[2][0]](benchmark::State &S) {
                        runCmpKernel(S, Fn, Full32);
                      });
    RegisterBenchmark((P + "VCmpLT.f32/full").c_str(),
                      [Fn = T.CmpFp[2][0]](benchmark::State &S) {
                        runCmpKernel(S, Fn, Full32);
                      });
    RegisterBenchmark((P + "VConflictM.i32/full").c_str(),
                      [Fn = T.Conflict[0]](benchmark::State &S) {
                        runConflictKernel(S, Fn, Full32);
                      });
    RegisterBenchmark((P + "GatherAddr.i32").c_str(),
                      [Fn = T.GatherAddr[0]](benchmark::State &S) {
                        runGatherAddrKernel(S, Fn);
                      });

    // Emulator-level vector-code throughput with this backend pinned.
    static const isa::Program AluP = buildVectorAluProgram(false);
    static const isa::Program AluMaskedP = buildVectorAluProgram(true);
    static const isa::Program UnitP = buildVectorMemProgram(false);
    static const isa::Program GatherP = buildVectorMemProgram(true);
    std::string V = std::string("BM_VectorCode/") + KB.Name + "/";
    auto AddProg = [&](const char *Kind, const isa::Program &Prog,
                       bool MapMemory) {
      RegisterBenchmark((V + Kind).c_str(),
                        [&Prog, B = KB.Backend,
                         MapMemory](benchmark::State &S) {
                          runVectorCode(S, Prog, B, MapMemory);
                        })
          ->Unit(benchmark::kMicrosecond);
    };
    AddProg("alu", AluP, false);
    AddProg("alu.masked", AluMaskedP, false);
    AddProg("mem.unit_stride", UnitP, true);
    AddProg("mem.gather", GatherP, true);
  }
  return 0;
}

const int SimdBenchesRegistered = registerSimdBenches();

BENCHMARK(BM_EmulatorScalar)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EmulatorFlexVec)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_EmulatorPlusTimingModel)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReferenceInterpreter)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CompilePipeline)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PdgAndAnalysis)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryClone)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryTlbHitLoad)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryTlbMissLoad)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryDeepClone)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_MemoryCloneThenTouchAll)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_PredecodeAndSetup)->Unit(benchmark::kMicrosecond);
BENCHMARK(BM_TraceDeliveryNoSink)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceDeliveryPerInstr)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TraceDeliveryBatched)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
