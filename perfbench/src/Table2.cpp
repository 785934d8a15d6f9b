//===- perfbench/src/Table2.cpp - The Figure 8 matrix workloads -----------===//
//
// table2-full: the 25-row x 6-variant matrix at full-fidelity simulation,
// a fresh compile cache per pass (as one flexvec-bench run has).
// table2-storm: the same matrix in chaos mode, every cell sinkless through
// the fault harness under a seeded RTM conflict storm.
//
// The untraced pass is one core::runSweep call at Jobs = 1. The traced
// pass replays evalCell's call sequence cell by cell.
//
//===----------------------------------------------------------------------===//

#include "Workload.h"

#include "core/Evaluator.h"
#include "core/FaultHarness.h"
#include "core/ParallelEvaluator.h"
#include "ir/Parser.h"
#include "obs/BenchDiff.h"
#include "sim/OooCore.h"
#include "support/Hash.h"
#include "support/Json.h"
#include "workloads/Figure8.h"

#include <cstdio>
#include <fstream>
#include <sstream>

using namespace flexvec;
using namespace perfbench;

namespace {

/// Rows run by the untimed warm-up slice.
constexpr size_t WarmUpRows = 4;

/// Forwards the emulator's batches to the timing model and charges the
/// time spent inside OooCore::onBatch to the enclosing emulate span.
class TimedSink final : public emu::TraceSink {
public:
  TimedSink(sim::OooCore &Core, SpanRecorder &Rec) : Core(Core), Rec(Rec) {}
  void onInstr(const emu::DynInstr &DI) override { onBatch(&DI, 1); }
  void onBatch(const emu::DynInstr *Batch, size_t N) override {
    int64_t T0 = nowNs();
    Core.onBatch(Batch, N);
    Rec.addModelBatch(nowNs() - T0);
  }

private:
  sim::OooCore &Core;
  SpanRecorder &Rec;
};

/// What the traced replay must reproduce from the untraced pass.
struct CellFacts {
  bool Generated = false;
  bool Correct = false;
  uint64_t Cycles = 0;
  uint64_t EmuInstructions = 0;
};

class Table2 final : public Workload {
public:
  Table2(uint64_t Seed, bool Storm) {
    Opts.Jobs = 1;
    Opts.Seed = Seed;
    Opts.Scale = 1.0;
    if (Storm)
      Opts.FaultSeed = deriveStreamSeed(Seed, fnv1a64("table2-storm")) | 1;
  }

  void setUp() override { Suite = workloads::buildFigure8Suite(Opts.Scale); }

  void warmUp() override {
    std::vector<core::SweepWorkload> Slice(
        Suite.Workloads.begin(), Suite.Workloads.begin() + WarmUpRows);
    core::runSweep(Slice, Opts);
  }

  PassResult runPass() override;
  PassResult runTracedPass(SpanRecorder &Rec) override;

private:
  void reportFailure(const core::SweepWorkload &W, const char *Variant,
                     const std::string &Why) const {
    std::fprintf(stderr,
                 "perfbench: %s/%s %s (seed=%llu, fault seed=%llu)\n"
                 "DSL reproducer:\n%s\n",
                 W.Name.c_str(), Variant, Why.c_str(),
                 static_cast<unsigned long long>(Opts.Seed),
                 static_cast<unsigned long long>(Opts.FaultSeed),
                 ir::printLoopDsl(*W.F).c_str());
  }

  core::SweepOptions Opts;
  workloads::Figure8Suite Suite;
  std::vector<CellFacts> Last; ///< Cells of the latest untraced pass.
};

PassResult Table2::runPass() {
  PassResult R;
  int64_t T0 = nowNs();
  core::SweepResult S = core::runSweep(Suite.Workloads, Opts);
  R.WallS = static_cast<double>(nowNs() - T0) * 1e-9;

  Last.assign(S.Cells.size(), CellFacts());
  for (size_t I = 0; I < S.Cells.size(); ++I) {
    const core::CellResult &Cell = S.Cells[I];
    // A task is one cell; the program's own stage clocks cover it
    // (compile, inputs, reference, emulate + model).
    R.TaskMs.push_back(Cell.Times.CompileMs + Cell.Times.InputsMs +
                       Cell.Times.EmulateMs + Cell.Times.SimulateMs);
    ++R.Attempted;
    Last[I] = {Cell.Generated, Cell.Correct, Cell.Cycles,
               Cell.EmuInstructions};
    if (Cell.Generated && !Cell.Correct) {
      ++R.Failed;
      reportFailure(Suite.Workloads[I / core::NumVariants],
                    Cell.Variant.c_str(),
                    "diverged from the reference interpreter");
    }
  }
  R.Payload = core::benchJson(S, /*Deterministic=*/true).dump();
  R.SpeedupSpec = S.SpecGeomean;
  R.SpeedupApps = S.AppsGeomean;
  return R;
}

PassResult Table2::runTracedPass(SpanRecorder &Rec) {
  PassResult R;
  Metrics &C = R.Counts;
  core::CompileCache Cache;
  int64_t T0 = nowNs();
  {
    Scoped PassSpan(Rec, Layer::Pass, 0);
    for (size_t WI = 0; WI < Suite.Workloads.size(); ++WI) {
      const core::SweepWorkload &W = Suite.Workloads[WI];
      core::WorkloadInstance In;
      core::RunOutcome Ref;
      bool HaveInputs = false;
      for (unsigned V = 0; V < core::NumVariants; ++V) {
        uint32_t Task = static_cast<uint32_t>(WI * core::NumVariants + V);
        const char *Variant = core::variantName(static_cast<core::VariantId>(V));
        Scoped TaskSpan(Rec, Layer::Task, Task);
        ++R.Attempted;
        const CellFacts &Want = Last.at(Task);

        std::shared_ptr<const core::PipelineResult> PR;
        bool Hit = false;
        {
          Scoped S(Rec, Layer::DriverCompile, Task);
          PR = Cache.getOrCompile(*W.F, Opts.RtmTile, &Hit, Opts.Vec,
                                  Opts.Predicated);
        }
        if (!Hit)
          countProgram(*PR, C);
        const codegen::CompiledLoop *CL =
            core::selectVariant(*PR, static_cast<core::VariantId>(V));
        if (!CL) {
          if (Want.Generated) {
            ++R.Failed;
            reportFailure(W, Variant, "declined in the traced replay only");
          }
          continue;
        }

        // Row inputs and the reference outcome, computed by the row's
        // first cell as in evalCell.
        if (!HaveInputs) {
          {
            Scoped S(Rec, Layer::WorkloadsInputs, Task);
            Rng G(deriveStreamSeed(Opts.Seed, fnv1a64(W.Name)));
            In = W.Gen(G);
          }
          C["workloads.inputs_calls"] += 1;
          {
            Scoped S(Rec, Layer::IrInterp, Task);
            Ref = core::runReferenceMulti(*W.F, In.Image, In.Invocations);
          }
          C["ir.interp_runs"] += 1;
          HaveInputs = true;
        }

        // evalCell builds a core for every cell, storm cells included.
        sim::OooCore Core;
        core::RunOutcome Out;
        if (Opts.FaultSeed) {
          core::FaultPlan Plan;
          Plan.Tx.Seed = deriveStreamSeed(Opts.FaultSeed, fnv1a64(W.Name));
          Plan.Tx.AbortProb = 0.5;
          Plan.Tx.Reason = rtm::AbortReason::Conflict;
          Scoped S(Rec, Layer::EmuSinkless, Task);
          Out = core::runProgramMultiWithFaults(*W.F, *CL, In.Image,
                                                In.Invocations, Plan)
                    .Outcome;
        } else {
          TimedSink Sink(Core, Rec);
          Scoped S(Rec, Layer::EmuTraced, Task);
          Out = core::runProgramMulti(*W.F, *CL, In.Image, In.Invocations,
                                      &Sink);
        }
        bool Match = false;
        {
          Scoped S(Rec, Layer::CoreCheck, Task);
          Match = core::outcomesMatch(*W.F, Ref, Out);
        }

        countRun(Out, !Opts.FaultSeed, C);
        sim::SimStats Sim = Core.stats();
        if (!Opts.FaultSeed) {
          C["sim.model_instrs"] += static_cast<double>(Sim.Instructions);
          C["sim.uops"] += static_cast<double>(Sim.Uops);
        }

        if (!Match) {
          ++R.Failed;
          reportFailure(W, Variant, "diverged from the reference interpreter");
        } else if (!Want.Generated || !Want.Correct ||
                   Want.EmuInstructions != Out.Exec.Stats.Instructions ||
                   Want.Cycles != Sim.Cycles) {
          ++R.Failed;
          reportFailure(W, Variant,
                        "traced replay differs from core::runSweep (cycles " +
                            std::to_string(Sim.Cycles) + " vs " +
                            std::to_string(Want.Cycles) + ")");
        }
      }
    }
  }
  R.WallS = static_cast<double>(nowNs() - T0) * 1e-9;
  C["core.cache.hits"] = static_cast<double>(Cache.hits());
  C["core.cache.misses"] = static_cast<double>(Cache.misses());
  C["driver.compiles"] = static_cast<double>(Cache.misses());
  return R;
}

} // namespace

void perfbench::countProgram(const core::PipelineResult &PR, Metrics &C) {
  for (unsigned V = 0; V < core::NumVariants; ++V) {
    const codegen::CompiledLoop *CL =
        core::selectVariant(PR, static_cast<core::VariantId>(V));
    if (CL) {
      C["driver.variants_generated"] += 1;
      C["driver.program_instrs"] += static_cast<double>(CL->Prog.size());
    } else {
      C["driver.variants_declined"] += 1;
    }
  }
}

void perfbench::countRun(const core::RunOutcome &Out, bool Traced,
                         Metrics &C) {
  const emu::ExecStats &E = Out.Exec.Stats;
  if (Traced) {
    C["emu.traced_instrs"] += static_cast<double>(E.Instructions);
    C["emu.trace_batches"] += static_cast<double>(E.TraceBatches);
  } else {
    C["emu.sinkless_instrs"] += static_cast<double>(E.Instructions);
  }
  C["emu.fastpath.unit_stride_hits"] +=
      static_cast<double>(E.SimdUnitStrideHits);
  C["emu.fastpath.mask_shortcircuits"] +=
      static_cast<double>(E.SimdMaskShortcircuits);
  C["mem.tlb_hits"] += static_cast<double>(Out.Mem.TlbHits);
  C["mem.tlb_misses"] += static_cast<double>(Out.Mem.TlbMisses);
  C["mem.cow_page_copies"] += static_cast<double>(Out.Mem.CowCopies);
  C["rtm.begins"] += static_cast<double>(Out.Tx.Begins);
  C["rtm.commits"] += static_cast<double>(Out.Tx.Commits);
  C["rtm.fallbacks"] += static_cast<double>(E.RtmFallbacks);
}

std::unique_ptr<Workload> perfbench::makeTable2(uint64_t Seed, bool Storm) {
  return std::make_unique<Table2>(Seed, Storm);
}

CanonicalCheck perfbench::runCanonicalCheck(const std::string &BaselinePath) {
  CanonicalCheck C;
  core::SweepOptions Opts;
  Opts.Jobs = 1;
  Opts.Seed = 1;
  Opts.Scale = 0.1;
  core::SweepResult R = workloads::runFigure8Sweep(Opts);
  C.SpeedupSpec = R.SpecGeomean;
  C.SpeedupApps = R.AppsGeomean;

  std::ifstream In(BaselinePath);
  if (!In) {
    C.Detail = "cannot read " + BaselinePath;
    return C;
  }
  std::stringstream Text;
  Text << In.rdbuf();
  Json Base, Cur;
  std::string Err;
  if (!Json::parse(Text.str(), Base, Err)) {
    C.Detail = "baseline does not parse: " + Err;
    return C;
  }
  if (!Json::parse(core::benchJson(R, /*Deterministic=*/true).dump(), Cur,
                   Err)) {
    C.Detail = "payload does not parse: " + Err;
    return C;
  }
  obs::BenchDiffReport Rep =
      obs::diffBench(Base, Cur, obs::BenchDiffOptions());
  C.Ok = Rep.ExitCode == 0;
  for (const std::string &Line : Rep.Regressions)
    C.Detail += Line + "\n";
  return C;
}
