//===- core/ParallelEvaluator.h - Parallel evaluation engine ----*- C++ -*-===//
//
// The parallel evaluation engine behind `flexvec-bench` and the --jobs
// flags: fans a workload x 6-variant matrix (for the paper evaluation,
// the 18 Table 2 workloads) out over a deterministic thread pool as
// independent (compile -> emulate -> simulate) jobs, with a
// content-addressed compiled-loop cache so the six variant cells of one
// workload — and repeated sweeps — compile once.
//
// Determinism contract: every aggregated number (cycles, speedups,
// geomeans, cache hit/miss counts) is a pure function of (workloads, seed,
// trips); the worker count only changes wall-clock time. Per-cell inputs
// come from PRNG streams seeded by (base seed, workload name), reductions
// run over the result vector in matrix order after the fan-in, and the
// cache compiles each key exactly once. ParallelEvaluatorTest compares
// --jobs=1 against --jobs=8 byte-for-byte on the rendered JSON.
//
// The engine lives below the workload library, so it takes loops through
// the SweepWorkload view; workloads/Figure8.h adapts the 18 Table 2
// benchmarks onto it.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_PARALLELEVALUATOR_H
#define FLEXVEC_CORE_PARALLELEVALUATOR_H

#include "core/CompileCache.h"
#include "core/Evaluator.h"
#include "ir/Interp.h"
#include "memory/Memory.h"
#include "obs/Metrics.h"
#include "support/Json.h"
#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace flexvec {
namespace core {

/// The six code variants of the evaluation matrix, in column order.
using VariantId = codegen::CodeGenKind;
using codegen::NumVariants;
using codegen::variantName;

/// The variant's program within \p PR, or nullptr if the generator
/// declined the loop.
const codegen::CompiledLoop *selectVariant(const driver::CompileResult &PR,
                                           VariantId V);

/// One row of the evaluation matrix, as the engine sees it. \p F must
/// outlive the sweep; \p Gen must be safe to call concurrently (it only
/// reads its captures and draws from the Rng it is handed).
struct SweepWorkload {
  std::string Name;
  std::string Group; ///< "SPEC", "APPS", or an imported kernel family.
  double Coverage = 0;
  double PaperSpeedup = 0;
  const ir::LoopFunction *F = nullptr;
  std::function<WorkloadInstance(Rng &)> Gen;
};

struct SweepOptions {
  unsigned Jobs = 1;  ///< Worker threads (0 = one per hardware thread).
  uint64_t Seed = 1;  ///< Base seed for the per-workload input streams.
  double Scale = 1.0; ///< Recorded in the result (workload sizing).
  unsigned RtmTile = codegen::DefaultRtmTile;
  /// Vector width every cell is compiled and run at (512-bit by default).
  isa::VectorConfig Vec;
  /// SVE-style predicated loop control for every compiled variant.
  bool Predicated = false;
  /// Chaos mode: when non-zero, every cell runs under a seeded RTM
  /// conflict-abort storm (probability 0.5, derived per workload from this
  /// seed) through the fault harness. Timing-model cycles are not
  /// collected in this mode; correctness still compares against the
  /// reference interpreter. 0 = off (the normal sweep).
  uint64_t FaultSeed = 0;
};

/// Wall-clock stage breakdown of one cell, in milliseconds. Excluded from
/// the deterministic JSON payload.
struct StageTimes {
  double CompileMs = 0;  ///< Cache lookup + compile on miss.
  double InputsMs = 0;   ///< Memory image / invocation generation.
  double EmulateMs = 0;  ///< Reference-interpreter run.
  double SimulateMs = 0; ///< Emulator + OOO timing model run.
};

/// One (workload, variant) cell of the matrix.
struct CellResult {
  std::string Benchmark;
  std::string Group;   ///< "SPEC" or "APPS".
  std::string Variant; ///< variantName of the column.
  bool Generated = false; ///< Variant produced by the pipeline.
  bool Correct = false;   ///< Matched the reference interpreter.
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Uops = 0;
  /// Instructions retired by the functional emulator for the variant run
  /// (deterministic; feeds the schedule-dependent throughput gauges).
  uint64_t EmuInstructions = 0;
  double HotSpeedup = 0;  ///< Scalar cycles / this variant's cycles.
  double Overall = 0;     ///< Coverage-scaled (Section 5) speedup.
  double Coverage = 0;
  double PaperSpeedup = 0; ///< Paper's Figure 8 number, for reference.
  StageTimes Times;
  /// Per-cell structured metrics harvested from the variant's simulated
  /// run (emu.*, rtm.*, sim.* — see docs/OBSERVABILITY.md). Pure event
  /// counts and ratios of them: byte-stable across worker counts.
  obs::Registry Metrics;
  /// The compiler's remark stream filtered to this cell's variant (see
  /// docs/COMPILER.md). Declined cells carry the missed-remark explaining
  /// why. Remarks never mention the loop name, so the payload is
  /// byte-stable under compiled-loop cache sharing.
  Json Remarks;
};

/// The full sweep, cells in matrix order (workload-major, variant-minor).
struct SweepResult {
  std::vector<CellResult> Cells;
  double SpecGeomean = 0; ///< Over FlexVec overall speedups, SPEC group.
  double AppsGeomean = 0; ///< Over FlexVec overall speedups, apps group.
  /// Geomean of FlexVec overall speedups per group, every group, in
  /// first-seen matrix order. SPEC and APPS appear here too (identical to
  /// the mirrors above); imported kernel families add their own entries.
  std::vector<std::pair<std::string, double>> GroupGeomeans;
  uint64_t CacheHits = 0;
  uint64_t CacheMisses = 0;
  /// Schedule-dependent pipeline observability (excluded from the
  /// deterministic JSON payload): cache hits that blocked on an in-flight
  /// compile, and the peak number of concurrently evaluating cells.
  uint64_t SingleFlightWaits = 0;
  unsigned PeakInFlight = 0;
  unsigned Jobs = 0;    ///< Requested worker count.
  unsigned Workers = 0; ///< Actual worker count used.
  uint64_t Seed = 0;
  double Scale = 1.0;
  double WallSeconds = 0;
  /// Width the cells compiled and ran at.
  isa::VectorConfig Vec;

  double cacheHitRate() const {
    uint64_t Total = CacheHits + CacheMisses;
    return Total ? static_cast<double>(CacheHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }
};

/// Runs the workloads x variants matrix. \p Cache (optional) persists
/// compiled loops across calls; when null an internal cache scoped to this
/// sweep is used.
SweepResult runSweep(const std::vector<SweepWorkload> &Workloads,
                     const SweepOptions &Opts, CompileCache *Cache = nullptr);

/// Renders \p R as the BENCH_figure8.json document. With \p Deterministic
/// set, wall-time fields and the run-environment section (jobs, workers,
/// wall_seconds, per-stage timings) are omitted so payloads from runs with
/// different worker counts compare byte-identical.
Json benchJson(const SweepResult &R, bool Deterministic = false);

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_PARALLELEVALUATOR_H
