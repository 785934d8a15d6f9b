//===- analysis/Patterns.h - FlexVec pattern detection ----------*- C++ -*-===//
//
// The FlexVec analysis module (paper Section 4): takes the PDG, recognizes
// reduction idioms, relaxes the infrequent backward dependence arcs that
// form the three FlexVec patterns, and produces a VectorizationPlan — the
// statement tags the if-conversion code generator consumes.
//
// Patterns (Sections 4.1-4.3):
//  * Early loop termination  — backward control arc from the immediate
//    dominator of a break to the loop header.
//  * Conditional scalar update — backward (loop-carried) scalar flow arcs
//    from a conditionally executed definition.
//  * Runtime memory dependencies — "maybe" carried store→load arcs through
//    non-affine subscripts, checked at run time with VPCONFLICTM.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_ANALYSIS_PATTERNS_H
#define FLEXVEC_ANALYSIS_PATTERNS_H

#include "pdg/Pdg.h"

#include <string>
#include <vector>

namespace flexvec {
namespace analysis {

/// Recognized reduction idioms (handled by classic vectorization, no VPL).
enum class ReductionKind : uint8_t { Add, Min, Max };

struct ReductionInfo {
  int Node = 0;        ///< The reducing AssignScalar.
  int ScalarId = -1;   ///< The accumulator.
  ReductionKind Kind = ReductionKind::Add;
  int GuardNode = 0;   ///< For guarded min/max form; 0 if direct.
};

/// Early loop termination (Section 4.1).
struct EarlyExitInfo {
  int GuardNode = 0;  ///< Immediate dominator (controlling if) of the break.
  int BreakNode = 0;
  bool BreakInElse = false; ///< Break sits in the guard's false-region.
};

/// One conditionally updated scalar inside a conditional-update VPL.
struct CondUpdateScalar {
  int UpdateNode = 0; ///< The conditional AssignScalar.
  int ScalarId = -1;
  int GuardNode = 0;  ///< Innermost controlling if of the update.
  /// True if the scalar is read by statements lexically after the update
  /// (requires the selective k_rem broadcast rather than VPSLCTLAST alone).
  bool UsedAfterUpdate = false;
  /// True if the scalar is read anywhere in the loop (a pure live-out
  /// "last value" needs no propagation to later lanes at all).
  bool UsedInLoop = false;
};

/// A conditional-update vector partitioning loop (Section 4.2). The VPL
/// encloses the contiguous range [FirstTop, LastTop] of top-level body
/// statements (the smallest region closure covering the relaxed SCC);
/// statements in the range are re-executed when an update fires.
struct CondUpdateVpl {
  int FirstTop = 0; ///< Index into LoopFunction::body().
  int LastTop = 0;  ///< Inclusive.
  std::vector<CondUpdateScalar> Updates;
};

/// A runtime memory-dependence VPL (Section 4.3). Same region convention
/// as CondUpdateVpl.
struct MemConflictVpl {
  int FirstTop = 0;
  int LastTop = 0;
  int ArrayId = -1;
  /// Index expressions for the conflicting store and loads: the operands of
  /// the VPCONFLICTM runtime check (duplicated subtrees in the paper).
  const ir::Expr *StoreIndex = nullptr;
  std::vector<const ir::Expr *> LoadIndices;
};

/// The complete plan handed to the vectorizer.
struct VectorizationPlan {
  bool Vectorizable = false;
  std::string Reason; ///< Diagnostic when not vectorizable.

  std::vector<ReductionInfo> Reductions;
  std::vector<EarlyExitInfo> EarlyExits;
  std::vector<CondUpdateVpl> CondUpdateVpls;
  std::vector<MemConflictVpl> MemConflictVpls;

  /// Statement nodes whose array loads must use first-faulting variants
  /// (they execute speculatively in the shadow of a relaxed dependence).
  std::vector<int> SpeculativeLoadNodes;

  /// Bitset over statement ids mirroring SpeculativeLoadNodes, built once
  /// by seal() in pattern-analysis; empty until sealed.
  std::vector<uint64_t> SpecLoadBits;

  /// True if any FlexVec-specific mechanism is required (i.e. a traditional
  /// vectorizer would reject the loop).
  bool needsFlexVec() const {
    return !EarlyExits.empty() || !CondUpdateVpls.empty() ||
           !MemConflictVpls.empty();
  }

  /// Finalizes the plan for emission: builds the speculative-load bitset
  /// (\p NumStmts is the highest statement id, per LoopFunction::numStmts).
  void seal(int NumStmts);

  bool isSpeculative(int Node) const {
    if (!SpecLoadBits.empty()) {
      unsigned N = static_cast<unsigned>(Node);
      if (N >= SpecLoadBits.size() * 64)
        return false;
      return (SpecLoadBits[N / 64] >> (N % 64)) & 1;
    }
    // Unsealed plans (hand-built in tests, queries during analysis) fall
    // back to the scan.
    for (int N : SpeculativeLoadNodes)
      if (N == Node)
        return true;
    return false;
  }

  std::string describe(const ir::LoopFunction &F) const;
};

/// Runs the FlexVec analysis over \p P.
VectorizationPlan analyzeLoop(const pdg::Pdg &P);

} // namespace analysis
} // namespace flexvec

#endif // FLEXVEC_ANALYSIS_PATTERNS_H
