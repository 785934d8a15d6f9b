//===- core/ParallelEvaluator.cpp -----------------------------------------===//

#include "core/ParallelEvaluator.h"

#include "core/Evaluator.h"
#include "core/FaultHarness.h"
#include "driver/Remarks.h"
#include "sim/OooCore.h"
#include "support/Hash.h"
#include "support/Statistics.h"
#include "support/ThreadPool.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <mutex>

using namespace flexvec;
using namespace flexvec::core;

const char *core::variantName(VariantId V) {
  switch (V) {
  case VariantId::Scalar:
    return "scalar";
  case VariantId::Traditional:
    return "traditional";
  case VariantId::Speculative:
    return "speculative";
  case VariantId::FlexVec:
    return "flexvec";
  case VariantId::Rtm:
    return "flexvec-rtm";
  case VariantId::Adaptive:
    return "flexvec-adaptive";
  }
  return "?";
}

const codegen::CompiledLoop *
core::selectVariant(const driver::CompileResult &PR, VariantId V) {
  switch (V) {
  case VariantId::Scalar:
    return &PR.Scalar;
  case VariantId::Traditional:
    return PR.Traditional ? &*PR.Traditional : nullptr;
  case VariantId::Speculative:
    return PR.Speculative ? &*PR.Speculative : nullptr;
  case VariantId::FlexVec:
    return PR.FlexVec ? &*PR.FlexVec : nullptr;
  case VariantId::Rtm:
    return PR.Rtm ? &*PR.Rtm : nullptr;
  case VariantId::Adaptive:
    return PR.Adaptive ? &*PR.Adaptive : nullptr;
  }
  return nullptr;
}

namespace {

using Clock = std::chrono::steady_clock;

double msSince(Clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - Start)
      .count();
}

/// Per-workload state shared by the five variant cells of one row: the
/// generated inputs and the reference-interpreter outcome are pure
/// functions of (workload, seed), so the first cell to need them computes
/// them once and the others reuse the result. After publication the image
/// is only ever clone()d — concurrent COW clones are safe because the
/// shared base holds a reference to every page, so no clone can ever write
/// shared bytes in place.
struct SharedInputs {
  std::once_flag Once;
  WorkloadInstance In;
  RunOutcome Ref;
};

/// One fan-out job: compile (through the cache), fetch this workload's
/// inputs and reference-interpreter outcome (computed once per row, see
/// SharedInputs), then run the variant through the emulator with the
/// Table 1 timing model attached. Speedups are filled in after the
/// fan-in, when the scalar column is available.
CellResult evalCell(const SweepWorkload &W, VariantId V,
                    const SweepOptions &Opts, CompileCache &Cache,
                    SharedInputs &SI) {
  CellResult Cell;
  Cell.Benchmark = W.Name;
  Cell.Group = W.Group;
  Cell.Variant = variantName(V);
  Cell.Coverage = W.Coverage;
  Cell.PaperSpeedup = W.PaperSpeedup;

  std::shared_ptr<const driver::CompileResult> PR;
  {
    obs::ScopedTimer T(Cell.Times.CompileMs);
    PR = Cache.getOrCompile(*W.F, Opts.RtmTile, nullptr, Opts.Vec,
                            Opts.Predicated);
  }

  // Every cell carries the remark stream filtered to its variant —
  // including declined cells, where the missed-remark is the machine-
  // readable "why not". Remarks are a pure function of the loop structure
  // (no names), so this stays byte-stable under cache sharing. The
  // counters register first so the cell registry renders in a fixed order.
  Cell.Remarks = PR->Remarks.toJsonFor(Cell.Variant);
  obs::Counter &Applied = Cell.Metrics.counter("driver.remarks.applied");
  obs::Counter &Missed = Cell.Metrics.counter("driver.remarks.missed");
  for (const driver::Remark &Rk : PR->Remarks.remarks()) {
    if (Rk.Variant != Cell.Variant)
      continue;
    if (Rk.Kind == driver::RemarkKind::Applied)
      Applied.inc();
    else if (Rk.Kind == driver::RemarkKind::Missed)
      Missed.inc();
  }

  const codegen::CompiledLoop *CL = selectVariant(*PR, V);
  if (!CL)
    return Cell; // Strategy declined the loop: empty cell (see Remarks).
  Cell.Generated = true;

  // First cell of this row to arrive pays for input generation and the
  // reference run and charges them to its stage clock; the other four see
  // zero here. Cells that block on an in-flight init (jobs > 1) simply
  // wait inside call_once — stage_ms is observational either way.
  std::call_once(SI.Once, [&] {
    {
      obs::ScopedTimer T(Cell.Times.InputsMs);
      Rng R(deriveStreamSeed(Opts.Seed, fnv1a64(W.Name)));
      SI.In = W.Gen(R);
    }
    obs::ScopedTimer T(Cell.Times.EmulateMs);
    SI.Ref = runReferenceMulti(*W.F, SI.In.Image, SI.In.Invocations);
  });
  const WorkloadInstance &In = SI.In;
  const RunOutcome &Ref = SI.Ref;

  sim::OooCore Core;
  // In sampled mode the emulator's trace feeds the sampler, which routes
  // seed-chosen windows into the core and extrapolates; in full mode the
  // core drinks the whole stream directly (the sampler sits unused).
  sim::SampledCore Sampler(Core, Opts.Sample);
  emu::TraceSink *Sink =
      Opts.Sim == SimMode::Sampled ? static_cast<emu::TraceSink *>(&Sampler)
                                   : &Core;
  RunOutcome Out;
  {
    obs::ScopedTimer T(Cell.Times.SimulateMs);
    if (Opts.FaultSeed) {
      // Chaos mode: a seeded RTM conflict storm rides through the fault
      // harness (no trace sink — the timing model stays cold; the cell
      // carries correctness and emu/rtm/dispatch counters only).
      FaultPlan Plan;
      Plan.Tx.Seed = deriveStreamSeed(Opts.FaultSeed, fnv1a64(W.Name));
      Plan.Tx.AbortProb = 0.5;
      Plan.Tx.Reason = rtm::AbortReason::Conflict;
      Out = runProgramMultiWithFaults(*W.F, *CL, In.Image, In.Invocations,
                                      Plan)
                .Outcome;
    } else {
      Out = runProgramMulti(*W.F, *CL, In.Image, In.Invocations, Sink);
    }
  }

  Cell.Correct = outcomesMatch(*W.F, Ref, Out);
  sim::SimStats Stats = Core.stats();
  if (Opts.Sim == SimMode::Sampled && !Opts.FaultSeed) {
    // Extrapolated cycle count over the full stream; instruction count is
    // the full stream too (the emulator always retires everything). Uops
    // stay a detailed-subset counter — documented in the v2-sampled
    // schema notes (docs/EVALUATION.md).
    sim::SampledStats SS = Sampler.stats();
    Cell.Cycles = SS.EstimatedCycles;
    Cell.Instructions = SS.Instructions;
    Cell.Uops = Stats.Uops;
  } else {
    Cell.Cycles = Stats.Cycles;
    Cell.Instructions = Stats.Instructions;
    Cell.Uops = Stats.Uops;
  }
  Cell.EmuInstructions = Out.Exec.Stats.Instructions;

  // Harvest the per-layer stats into this cell's registry. Registration
  // order is fixed (emu, rtm, sim, mem, dispatch) so two registries for
  // the same cell render byte-identically regardless of the worker
  // schedule.
  emu::recordMetrics(Out.Exec.Stats, Cell.Metrics);
  rtm::recordMetrics(Out.Tx, Cell.Metrics);
  if (Out.Tx.Begins)
    Cell.Metrics.gauge("rtm.fallback_rate")
        .set(static_cast<double>(Out.Exec.Stats.RtmFallbacks) /
             static_cast<double>(Out.Tx.Begins));
  sim::recordMetrics(Stats, Cell.Metrics);
  if (Opts.Sim == SimMode::Sampled && !Opts.FaultSeed) {
    // Sampling observability (only in the v2-sampled payload): how much
    // of the stream the detailed model actually saw. The sim.* counters
    // above cover the detailed subset only.
    sim::SampledStats SS = Sampler.stats();
    Cell.Metrics.counter("sim.sample.windows").inc(SS.Windows);
    Cell.Metrics.counter("sim.sample.measured_instructions")
        .inc(SS.MeasuredInstructions);
    Cell.Metrics.counter("sim.sample.detailed_instructions")
        .inc(SS.DetailedInstructions);
    Cell.Metrics.counter("sim.sample.estimated_cycles")
        .inc(SS.EstimatedCycles);
  }
  mem::recordMetrics(Out.Mem, Cell.Metrics);
  if (Out.HasDispatch) {
    const driver::DispatchCounts &D = Out.Dispatch;
    Cell.Metrics.counter("dispatch.guard.pass").inc(D.GuardPass);
    Cell.Metrics.counter("dispatch.guard.fail").inc(D.GuardFail);
    Cell.Metrics.counter("dispatch.demotions").inc(D.Demotions);
    Cell.Metrics.counter("dispatch.speculative_invocations")
        .inc(D.Invocations);
    // The runtime dispatch story joins the compiler remarks in this
    // cell's stream: guard outcomes plus the demoted/promoted verdict.
    for (const driver::Remark &Rk : driver::dispatchRemarks(D))
      Cell.Remarks.push(Rk.toJson());
  }
  return Cell;
}

} // namespace

SweepResult core::runSweep(const std::vector<SweepWorkload> &Workloads,
                           const SweepOptions &Opts, CompileCache *Cache) {
  Clock::time_point Start = Clock::now();
  CompileCache Local;
  CompileCache &C = Cache ? *Cache : Local;
  uint64_t Hits0 = C.hits(), Misses0 = C.misses(), Waits0 = C.waits();

  size_t NumCells = Workloads.size() * NumVariants;
  // Row-shared inputs/reference outcomes (never resized: SharedInputs
  // holds a once_flag and must not move).
  std::vector<SharedInputs> Shared(Workloads.size());

  ThreadPool Pool(Opts.Jobs);
  SweepResult R;
  R.Jobs = Opts.Jobs;
  R.Workers = Pool.workerCount();
  R.Seed = Opts.Seed;
  R.Scale = Opts.Scale;
  R.Trips = std::max(1u, Opts.Trips);
  R.Vec = Opts.Vec;
  R.Sim = Opts.Sim;
  R.Sample = Opts.Sample;

  // Pool-occupancy probe: cells in flight right now, and the high-water
  // mark. Observability only — the values are schedule-dependent and are
  // excluded from the deterministic JSON payload.
  std::atomic<unsigned> InFlight{0}, PeakInFlight{0};

  for (unsigned Trip = 0; Trip < R.Trips; ++Trip) {
    R.Cells = Pool.map<CellResult>(NumCells, [&](size_t I) {
      unsigned Now = InFlight.fetch_add(1, std::memory_order_relaxed) + 1;
      unsigned Peak = PeakInFlight.load(std::memory_order_relaxed);
      while (Now > Peak && !PeakInFlight.compare_exchange_weak(
                               Peak, Now, std::memory_order_relaxed))
        ;
      const SweepWorkload &W = Workloads[I / NumVariants];
      VariantId V = static_cast<VariantId>(I % NumVariants);
      CellResult Cell = evalCell(W, V, Opts, C, Shared[I / NumVariants]);
      InFlight.fetch_sub(1, std::memory_order_relaxed);
      return Cell;
    });
  }
  R.PeakInFlight = PeakInFlight.load(std::memory_order_relaxed);
  R.SingleFlightWaits = C.waits() - Waits0;

  // Ordered fan-in: speedups against the scalar column, then the group
  // geomeans over the FlexVec column — all reductions walk the cells in
  // matrix order so the aggregates are independent of worker scheduling.
  // Groups accumulate by name in first-seen order, so imported kernel
  // families fan into their own geomeans instead of polluting SPEC/APPS.
  std::vector<std::pair<std::string, std::vector<double>>> ByGroup;
  auto groupBucket = [&](const std::string &G) -> std::vector<double> & {
    for (auto &Entry : ByGroup)
      if (Entry.first == G)
        return Entry.second;
    ByGroup.emplace_back(G, std::vector<double>());
    return ByGroup.back().second;
  };
  for (size_t W = 0; W < Workloads.size(); ++W) {
    const CellResult &Scalar = R.Cells[W * NumVariants];
    for (unsigned V = 0; V < NumVariants; ++V) {
      CellResult &Cell = R.Cells[W * NumVariants + V];
      if (!Cell.Generated || !Cell.Cycles || !Scalar.Cycles)
        continue;
      Cell.HotSpeedup = static_cast<double>(Scalar.Cycles) /
                        static_cast<double>(Cell.Cycles);
      Cell.Overall = coverageScaledSpeedup(Cell.HotSpeedup, Cell.Coverage);
      if (V == static_cast<unsigned>(VariantId::FlexVec))
        groupBucket(Cell.Group).push_back(Cell.Overall);
    }
  }
  for (const auto &Entry : ByGroup) {
    double G = geomean(Entry.second);
    R.GroupGeomeans.emplace_back(Entry.first, G);
    if (Entry.first == "SPEC")
      R.SpecGeomean = G;
    else if (Entry.first == "APPS")
      R.AppsGeomean = G;
  }
  R.CacheHits = C.hits() - Hits0;
  R.CacheMisses = C.misses() - Misses0;
  R.WallSeconds = msSince(Start) / 1000.0;
  return R;
}

Json core::benchJson(const SweepResult &R, bool Deterministic) {
  Json Doc = Json::object();
  // Sampled runs carry their own schema tag and a sampling section; full
  // runs render exactly the v2 document — byte-identical to the
  // pre-sampling baseline, which is what the benchdiff gate compares.
  bool Sampled = R.Sim == SimMode::Sampled;
  Doc.set("schema", Sampled ? "flexvec-bench-figure8/v2-sampled"
                            : "flexvec-bench-figure8/v2");
  Doc.set("seed", R.Seed);
  Doc.set("scale", R.Scale);
  Doc.set("trips", R.Trips);
  // Sweep-config field: the vector width the cells ran at, in bits.
  // Emitted only at non-default widths so the VL=512 payload stays
  // byte-identical to the v2 baseline; absent means 512 (benchdiff
  // treats the two spellings as equal).
  if (R.Vec.Bytes != isa::VectorBytes)
    Doc.set("vl", R.Vec.bits());
  if (Sampled) {
    Json Samp = Json::object();
    Samp.set("interval_instrs", R.Sample.IntervalInstrs);
    Samp.set("detail_instrs", R.Sample.DetailInstrs);
    Samp.set("warmup_instrs", R.Sample.WarmupInstrs);
    Samp.set("seed", R.Sample.Seed);
    Doc.set("sampling", std::move(Samp));
  }

  if (!Deterministic) {
    Json Run = Json::object();
    Run.set("jobs", R.Jobs);
    Run.set("workers", R.Workers);
    // Host/environment-dependent, so run-section only: which lane-kernel
    // table the machines actually executed (CPUID: avx2 or scalar).
    Run.set("emu.simd.backend",
            emu::simdBackendName(emu::resolveSimdBackend(
                emu::SimdBackend::Auto)));
    Run.set("wall_seconds", R.WallSeconds);
    Run.set("single_flight_waits", R.SingleFlightWaits);
    Run.set("peak_in_flight", R.PeakInFlight);
    // Throughput gauges live only here, in the schedule-dependent run
    // section, so the deterministic payload stays byte-stable across
    // worker counts and machine speeds.
    if (R.WallSeconds > 0) {
      uint64_t EmuInstrs = 0;
      for (const CellResult &Cell : R.Cells)
        EmuInstrs += Cell.EmuInstructions;
      Run.set("cells_per_sec",
              static_cast<double>(R.Cells.size()) / R.WallSeconds);
      Run.set("emu_instrs_per_sec",
              static_cast<double>(EmuInstrs) / R.WallSeconds);
    }
    Doc.set("run", std::move(Run));
  }

  Json CacheJ = Json::object();
  CacheJ.set("hits", R.CacheHits);
  CacheJ.set("misses", R.CacheMisses);
  CacheJ.set("hit_rate", R.cacheHitRate());
  Doc.set("cache", std::move(CacheJ));

  Json Geo = Json::object();
  Geo.set("spec", R.SpecGeomean);
  Geo.set("apps", R.AppsGeomean);
  // Additional groups (imported kernel families) follow the two legacy
  // keys, lowercased, in first-seen matrix order. Additive vs the v2
  // baseline: benchdiff walks baseline keys only.
  for (const auto &Entry : R.GroupGeomeans) {
    if (Entry.first == "SPEC" || Entry.first == "APPS")
      continue;
    std::string Key = Entry.first;
    for (char &Ch : Key)
      Ch = static_cast<char>(std::tolower(static_cast<unsigned char>(Ch)));
    Geo.set(Key, Entry.second);
  }
  Doc.set("geomean_overall_speedup", std::move(Geo));

  // Sweep-level metric aggregate: per-cell registries merged in matrix
  // order (gauges are per-cell derived values and drop out of the merge),
  // so the aggregate is as deterministic as the cells themselves.
  obs::Registry Totals;
  for (const CellResult &Cell : R.Cells)
    Totals.merge(Cell.Metrics);
  Doc.set("metrics", Totals.toJson(/*IncludeTimers=*/!Deterministic));

  Json Cells = Json::array();
  for (const CellResult &Cell : R.Cells) {
    Json J = Json::object();
    J.set("benchmark", Cell.Benchmark);
    J.set("group", Cell.Group);
    J.set("variant", Cell.Variant);
    J.set("generated", Cell.Generated);
    // The variant-filtered remark stream rides along for every cell —
    // declined cells are exactly where the "why not" matters. New key,
    // additive vs the v2 baseline (benchdiff walks baseline keys only).
    J.set("remarks", Cell.Remarks);
    if (Cell.Generated) {
      J.set("correct", Cell.Correct);
      J.set("cycles", Cell.Cycles);
      J.set("instructions", Cell.Instructions);
      J.set("uops", Cell.Uops);
      J.set("hot_speedup", Cell.HotSpeedup);
      J.set("overall_speedup", Cell.Overall);
      J.set("coverage", Cell.Coverage);
      J.set("paper_speedup", Cell.PaperSpeedup);
      J.set("metrics",
            Cell.Metrics.toJson(/*IncludeTimers=*/!Deterministic));
      if (!Deterministic) {
        Json Stage = Json::object();
        Stage.set("compile_ms", Cell.Times.CompileMs);
        Stage.set("inputs_ms", Cell.Times.InputsMs);
        Stage.set("emulate_ms", Cell.Times.EmulateMs);
        Stage.set("simulate_ms", Cell.Times.SimulateMs);
        if (Cell.Times.SimulateMs > 0)
          Stage.set("emu_instrs_per_sec",
                    static_cast<double>(Cell.EmuInstructions) /
                        (Cell.Times.SimulateMs / 1000.0));
        J.set("stage_ms", std::move(Stage));
      }
    }
    Cells.push(std::move(J));
  }
  Doc.set("cells", std::move(Cells));
  return Doc;
}
