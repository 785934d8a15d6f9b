//===- workloads/Benchmarks.h - The 18 evaluation kernels -------*- C++ -*-===//
//
// One kernel per row of Table 2: eleven SPEC CPU 2006 C/C++ benchmarks and
// seven real applications. SPEC sources and ref inputs are proprietary, so
// each kernel is a synthetic loop with the *same dependence pattern*,
// published coverage, average trip count, and FlexVec instruction mix as
// the paper reports for that benchmark (see DESIGN.md for the
// substitution argument).
//
// Kernels are instantiated from five templates:
//   * argmin/argmax        - conditional scalar update (KFTM, VPSLCTLAST)
//   * conditional gather   - h264-style update guarding speculative loads
//                            (adds VPGATHERFF/VMOVFF)
//   * string match         - early termination (KFTM, VPSLCTLAST, FF loads)
//   * scatter-accumulate   - runtime memory dependence (KFTM, VPCONFLICTM)
//   * force                - conditional update + memory dependence
//                            (KFTM, VPSLCTLAST, VPCONFLICTM)
//
// Each instance carries the paper's Figure 8 speedup so the harness can
// print paper-vs-measured side by side.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_WORKLOADS_BENCHMARKS_H
#define FLEXVEC_WORKLOADS_BENCHMARKS_H

#include "core/Evaluator.h"
#include "workloads/PaperLoops.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace flexvec {
namespace workloads {

/// Kernel templates (Table 2 instruction-mix classes).
enum class KernelKind : uint8_t {
  ArgExtreme,   ///< KFTM, VPSLCTLAST
  CondGather,   ///< KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF
  Match,        ///< KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF (early exit)
  ScatterAccum, ///< KFTM, VPCONFLICTM
  Force,        ///< KFTM, VPSLCTLAST, VPCONFLICTM
  // Imported kernel-family kinds (KernelFamilies.h); never produced by
  // buildAllBenchmarks.
  Affine,      ///< Unit-stride / affine-offset only (POLY family).
  GatherChain, ///< Runtime-resolved gathers, no conflicts (IRREG family).
};

const char *kernelKindName(KernelKind K);

/// One evaluation benchmark.
struct Benchmark {
  std::string Name;  ///< "464.h264ref", "LAMMPS", ...
  std::string Group; ///< "SPEC" or "APPS".
  KernelKind Kind;
  double Coverage;        ///< Table 2.
  int64_t PaperTripCount; ///< Table 2 (average trip count).
  double PaperSpeedup;    ///< Figure 8 (overall application speedup).
  std::string PaperMix;   ///< Table 2 instruction-mix string.

  std::unique_ptr<ir::LoopFunction> F;
  /// Generates the memory image and invocation list, sized so the whole
  /// benchmark simulates in reasonable time while preserving the paper's
  /// trip-count structure (short-trip loops run many invocations).
  std::function<core::WorkloadInstance(Rng &)> Gen;
};

/// Builds all 18 benchmarks. \p IterationScale scales total simulated
/// iterations (1.0 ≈ a few tens of thousands of iterations per benchmark;
/// tests can pass a smaller value).
std::vector<Benchmark> buildAllBenchmarks(double IterationScale = 1.0);

// --- Template builders (exposed for tests and ablation benches) ---------===//

/// argmin/argmax: if (e <op> best) { best = e; best_idx = i; } with
/// \p ExtraCompute additive fused multiply-add steps and an optional
/// 50%-taken outer data-dependent branch (the "branchy" 450.soplex shape).
std::unique_ptr<ir::LoopFunction>
buildArgExtremeLoop(const std::string &Name, bool Fp, unsigned ExtraCompute,
                    bool Branchy, bool IsMin = true);

core::WorkloadInstance
genArgExtremeInputs(const ir::LoopFunction &F, Rng &R, int64_t Trip,
                    int64_t Invocations, double UpdateProb, bool Fp,
                    unsigned ExtraCompute, bool Branchy, bool IsMin = true);

/// scatter-accumulate: d[idx[i]] += e with \p ExtraCompute steps.
std::unique_ptr<ir::LoopFunction>
buildScatterAccumLoop(const std::string &Name, bool Fp,
                      unsigned ExtraCompute);

core::WorkloadInstance
genScatterAccumInputs(const ir::LoopFunction &F, Rng &R, int64_t Trip,
                      int64_t Invocations, double ConflictProb,
                      int64_t TableSize, bool Fp, unsigned ExtraCompute);

/// force: argmax over e plus d[idx[i]] += e (two disjoint VPLs).
std::unique_ptr<ir::LoopFunction>
buildForceLoop(const std::string &Name, bool Fp, unsigned ExtraCompute);

core::WorkloadInstance
genForceInputs(const ir::LoopFunction &F, Rng &R, int64_t Trip,
               int64_t Invocations, double UpdateProb, double ConflictProb,
               int64_t TableSize, bool Fp, unsigned ExtraCompute);

/// h264-style conditional gather: reuses the paper loop with a corpus of
/// invocations.
core::WorkloadInstance
genCondGatherInputs(const ir::LoopFunction &F, Rng &R, int64_t Trip,
                    int64_t Invocations, double UpdateProb,
                    double OuterPassProb = 0.05);

/// String match over a corpus: each invocation searches from the previous
/// match (mean match distance = \p MeanTrip).
core::WorkloadInstance
genMatchInputs(const ir::LoopFunction &F, Rng &R, int64_t MeanTrip,
               int64_t Invocations);

} // namespace workloads
} // namespace flexvec

#endif // FLEXVEC_WORKLOADS_BENCHMARKS_H
