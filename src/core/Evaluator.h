//===- core/Evaluator.h - Correctness and performance evaluation -*- C++ -*-===//
//
// The run API: executes a compiled program (or the IR reference
// interpreter) over a sequence of hot-loop invocations against one cloned
// memory image. A caller-provided trace sink — typically an sim::OooCore —
// feeds the timing model; a one-element invocation list is an ordinary
// single run. Also implements the paper's coverage scaling: hot-region
// speedups are scaled down by the region's contribution to total program
// execution (Section 5).
//
// core/FaultHarness.h adds the faulted and differential forms; together
// they are the only ways a program runs.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_EVALUATOR_H
#define FLEXVEC_CORE_EVALUATOR_H

#include "codegen/Compiled.h"
#include "driver/AdaptiveStrategy.h"
#include "emu/Machine.h"
#include "ir/Interp.h"

#include <string>
#include <vector>

namespace flexvec {
namespace core {

/// A memory image plus the bindings of every hot-loop invocation.
struct WorkloadInstance {
  mem::Memory Image;
  std::vector<ir::Bindings> Invocations;
};

/// Result of one program (or reference) execution.
struct RunOutcome {
  bool Ok = false; ///< Ran to completion (Halt / interpreter return).
  /// Machine runs only. Stats merge every invocation; on failure the stop
  /// report (reason, fault address, PC, opcode, abort history) is the
  /// failing invocation's.
  emu::ExecResult Exec;
  rtm::TxStats Tx;                ///< Transaction-unit stats (machine runs).
  mem::MemoryStats Mem;           ///< Image TLB/COW stats (machine runs).
  uint64_t MemFingerprint = 0;    ///< Final memory image digest.
  std::vector<int64_t> LiveOuts;  ///< Raw live-out scalar values, in
                                  ///< scalar-parameter order.
  uint64_t LiveOutHash = 0; ///< Folded live-outs across multi-invocations.
  /// flexvec-adaptive runs only (HasDispatch): the dispatch-cell counters
  /// read back after the final invocation.
  driver::DispatchCounts Dispatch;
  bool HasDispatch = false;
  std::string Error;
};

/// Runs \p CL once per element of \p Invocations against one persistent
/// memory clone (mutations carry across invocations, like repeated calls
/// into a hot loop). LiveOutHash folds every invocation's live-outs. \p Sink
/// optionally receives the dynamic instruction trace; \p Limits applies to
/// each invocation.
RunOutcome runProgramMulti(const ir::LoopFunction &F,
                           const codegen::CompiledLoop &CL,
                           const mem::Memory &BaseImage,
                           const std::vector<ir::Bindings> &Invocations,
                           emu::TraceSink *Sink = nullptr,
                           const emu::RunLimits &Limits = {});

/// Reference-interpreter counterpart of runProgramMulti.
RunOutcome runReferenceMulti(const ir::LoopFunction &F,
                             const mem::Memory &BaseImage,
                             const std::vector<ir::Bindings> &Invocations);

/// True when two outcomes agree on memory and live-outs.
bool outcomesMatch(const ir::LoopFunction &F, const RunOutcome &A,
                   const RunOutcome &B);

/// Amdahl scaling used in Section 5: overall = 1 / (1 - c + c / s).
double coverageScaledSpeedup(double HotSpeedup, double Coverage);

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_EVALUATOR_H
