//===- driver/AdaptiveStrategy.h - Adaptive multi-versioned codegen -*- C++ -*-===//
//
// The fifth lowering product, flexvec-adaptive: one program carrying BOTH
// the speculative variant (flexvec-rtm) and the traditional variant (or a
// scalar tail when the loop needs FlexVec),
// dispatched at run time by a preheader prologue that consults
//
//  (a) a cheap runtime guard — a minimum trip-count check plus an
//      alias-range overlap check over the loop's store/load base+extent
//      pairs — and
//  (b) a persistent per-loop dispatch cell: a counter block in the
//      program's data image tracking invocations, aborted invocations,
//      guard outcomes, and demotions.
//
// Once the observed abort rate crosses the threshold (>= 50% aborted
// invocations over >= 8 invocations) the prologue stores a
// demoted state flag and every later invocation re-dispatches permanently
// to the traditional variant — graceful degradation under abort storms
// instead of paying the retry+rollback tax forever.
//
// Demotion state machine (cell word +0):
//
//    0 = promoted: run guard, then the speculative nest
//    1 = demoted:  jump straight to the traditional variant
//
// The state is sticky by construction — no emitted instruction ever clears
// it — so a storm that ends after demotion cannot flap the program back.
//
// Abort attribution is lag-1: the speculative resume blocks bump an
// abort-event counter (cell +24); the NEXT invocation's prologue compares
// it against the previous snapshot (+32) and, when it grew, charges one
// aborted invocation. The counter block uses only existing scalar
// load/store/ALU/branch instructions — no new opcodes.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_ADAPTIVESTRATEGY_H
#define FLEXVEC_DRIVER_ADAPTIVESTRATEGY_H

#include "driver/LoweringStrategy.h"

namespace flexvec {
namespace driver {
namespace dispatch {

/// Base address of the dispatch cell. Far above any BumpAllocator image
/// (which grows up from 0x10000) so the cell can never collide with
/// workload data; harnesses map it before running an adaptive program and
/// unmap it before fingerprinting so memory digests stay comparable with
/// the scalar reference.
inline constexpr uint64_t CellAddr = 1ULL << 40;
inline constexpr uint64_t CellSize = 64;

/// I64 field offsets within the cell.
inline constexpr int64_t StateOff = 0;           ///< 0 promoted, 1 demoted.
inline constexpr int64_t InvocationsOff = 8;     ///< Speculative invocations.
inline constexpr int64_t AbortedOff = 16;        ///< Aborted invocations.
inline constexpr int64_t AbortEventsOff = 24;    ///< Fallback entries.
inline constexpr int64_t PrevAbortEventsOff = 32;///< Lag-1 reconcile snapshot.
inline constexpr int64_t GuardPassOff = 40;
inline constexpr int64_t GuardFailOff = 48;
inline constexpr int64_t DemotionsOff = 56;

/// Thresholds of the dispatch prologue; all compiled into the program.
/// Trip counts below MinTrip fail the guard (vector setup cost dominates).
inline constexpr unsigned MinTrip = 16;
/// Demotion is considered only after this many speculative invocations.
inline constexpr unsigned Window = 8;
/// Demote when aborted invocations reach this percentage of speculative
/// invocations (>= comparison, integer arithmetic).
inline constexpr unsigned DemotePercent = 50;

} // namespace dispatch

/// Post-run dispatch-cell counter values, read back by the harnesses.
struct DispatchCounts {
  uint64_t State = 0;
  uint64_t Invocations = 0;
  uint64_t AbortedInvocations = 0;
  uint64_t AbortEvents = 0;
  uint64_t GuardPass = 0;
  uint64_t GuardFail = 0;
  uint64_t Demotions = 0;
};

/// Synthesizes the runtime dispatch remarks for one adaptive execution:
/// `dispatch.guard-failed` when any invocation failed the runtime guard,
/// then exactly one of `dispatch.demoted` / `dispatch.promoted-stay`
/// describing where the state machine ended up. Stable ids, pinned by
/// RemarksGoldenTest.
std::vector<Remark> dispatchRemarks(const DispatchCounts &C);

/// The adaptive strategy; createStrategy(CodeGenKind::FlexVecAdaptive)
/// is the way to build one.
std::unique_ptr<LoweringStrategy> newAdaptiveStrategy();

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_ADAPTIVESTRATEGY_H
