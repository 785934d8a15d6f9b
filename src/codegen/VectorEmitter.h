//===- codegen/VectorEmitter.h - Shared vector code emission ---*- C++ -*-===//
//
// The if-conversion machinery of Figure 4, factored so the traditional,
// speculative, FlexVec, and FlexVec-RTM generators share one emitter:
//
//  * lane configuration (all arrays in a loop share one element width;
//    VL = 16 for 32-bit lanes, 8 for 64-bit lanes),
//  * masked expression evaluation (loads under the current predicate,
//    conditions evaluated directly into mask registers),
//  * scalar classification: invariant (pre-broadcast), reduction (vector
//    accumulator + final reduce), committed (conditionally updated values
//    propagated with VPSLCTLAST and re-synchronized to scalar registers at
//    chunk boundaries), temporary (scalar-expanded, per-lane),
//  * the two Vector Partitioning Loop forms (conditional update with
//    KFTM.INC, memory conflict with VPCONFLICTM + KFTM.EXC),
//  * early-exit guard lowering, and
//  * first-faulting load sequences with bail-out to a scalar fallback.
//
// Mask register roles follow codegen/Compiled.h.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CODEGEN_VECTOREMITTER_H
#define FLEXVEC_CODEGEN_VECTOREMITTER_H

#include "codegen/Compiled.h"

#include <functional>
#include <optional>
#include <tuple>
#include <vector>

namespace flexvec {
namespace codegen {

/// How each scalar variable is realized in vector code.
enum class ScalarClass : uint8_t {
  Invariant, ///< Never assigned: broadcast once in the preheader.
  Reduction, ///< Idiom-recognized accumulator (vector partials + reduce).
  Committed, ///< Conditionally updated / early-exit committed: VPSLCTLAST
             ///< propagation, scalar-register image at chunk boundaries.
  Temp,      ///< Scalar-expanded per-lane temporary (defined before use
             ///< within each iteration).
};

class VectorEmitter {
public:
  struct Options {
    /// Scalar fallback entry a first-faulting check branches to when a
    /// speculative fault clipped its mask. Set, speculative loads use
    /// VMOVFF/VPGATHERFF; unset (RTM mode), they are plain loads and faults
    /// surface as transaction aborts.
    std::optional<isa::ProgramBuilder::Label> FaultBail;
    /// PACT'13-style speculative mode: emit the body as plain if-converted
    /// straight-line vector code with no VPLs; the caller guarantees (via
    /// up-front checks) that no relaxed dependence fires in this chunk.
    bool StraightlineOnly = false;
    /// Vector register width this loop is compiled for; VL derives from it
    /// and the loop's lane width. Defaults to the 512-bit baseline.
    unsigned VectorBytes = isa::VectorBytes;
    /// SVE-style predicated loop control: the chunk head computes k_loop
    /// with KWHILELT and the prolog skips the bound broadcast + compare.
    bool Predicated = false;
  };

  VectorEmitter(isa::ProgramBuilder &B, const ir::LoopFunction &F,
                const analysis::VectorizationPlan &Plan, Options Opts);

  /// Lanes per vector for this loop.
  unsigned vl() const { return VL; }
  isa::ElemType intTy() const { return IntTy; }
  isa::ElemType floatTy() const { return FloatTy; }

  ScalarClass classOf(int ScalarId) const { return Classes[ScalarId]; }

  /// Why the code emitted so far is unusable, or empty: the first
  /// construct met that has no vector form (or that needed more live
  /// scratch registers than v16..v31). Emission carries on past it, so
  /// pattern-analysis can decline such loops after lowering flexvec-rtm.
  const std::string &whyUnsupported() const { return Unsupported; }

  /// Scalar register acting as the early-exit flag (set when any lane
  /// breaks).
  isa::Reg breakFlag() const { return isa::Reg::scalar(31); }

  /// Broadcasts invariants, initializes reduction accumulators and the
  /// break flag, zeroes the induction variable.
  void emitPreheader();

  /// Per-chunk setup: v_i, k_loop against \p BoundReg, re-broadcast of
  /// committed scalars from their scalar registers. Under Options::
  /// Predicated the head already computed k_loop, so only v_i and the
  /// re-broadcasts are emitted.
  void emitChunkProlog(isa::Reg BoundReg);

  /// Predicated loop-control head (Options::Predicated):
  ///   k_loop = whilelt(i, Bound); t = ktest k_loop; brZero t, ExitTo
  void emitPredicatedHead(isa::Reg HeadTemp, isa::Reg BoundReg,
                          isa::ProgramBuilder::Label ExitTo);

  /// Emits the whole body for one chunk (top-level statements, VPLs, early
  /// exits) under k_loop.
  void emitBody();

  /// Synchronizes committed scalars back to scalar registers and advances
  /// the induction variable by VL.
  void emitChunkEpilog();

  /// Final reductions into the live-out scalar registers (vector exit path
  /// only; the scalar fallback path maintains scalar registers directly).
  void emitLiveOuts();

  /// Generator notes for CompiledLoop::Notes.
  std::string notes() const;

  /// Speculative-baseline support: sets bits of \p FlagReg when any k_loop
  /// lane satisfies \p Cond (evaluated with current broadcast state).
  void emitSpecCondCheck(const ir::Expr *Cond, isa::Reg FlagReg);

  /// Speculative-baseline support: sets bits of \p FlagReg when any lane of
  /// the conflict region has a cross-lane memory dependence.
  void emitSpecConflictCheck(const analysis::MemConflictVpl &Vpl,
                             isa::Reg FlagReg);

  /// Speculative-baseline support: emits one top-level statement as plain
  /// if-converted code under k_loop (no VPLs).
  void emitStraightlineTopLevel(const ir::Stmt *S);

private:
  struct VecPool;

  // Mask register roles.
  static isa::Reg kLoop() { return isa::Reg::mask(1); }
  static isa::Reg kIf0() { return isa::Reg::mask(2); }
  static isa::Reg kIf1() { return isa::Reg::mask(3); }
  static isa::Reg kTodo() { return isa::Reg::mask(4); }
  static isa::Reg kStop() { return isa::Reg::mask(5); }
  static isa::Reg kSafe() { return isa::Reg::mask(6); }
  static isa::Reg kScratch() { return isa::Reg::mask(7); }
  static isa::Reg kAll() { return isa::Reg::mask(0); }

  isa::Reg scalarVecReg(int ScalarId) const {
    return isa::Reg::vector(2 + static_cast<unsigned>(ScalarId));
  }
  isa::Reg indexVec() const { return isa::Reg::vector(0); }

  /// Maps a declared element type onto this loop's lane types.
  isa::ElemType laneType(isa::ElemType Declared) const;

  void unsupported(std::string Why);
  isa::Reg acquireVec();
  void releaseVec(isa::Reg R);
  void releaseIfScratch(isa::Reg R);
  void noteConstant(isa::ElemType Ty, int64_t Bits);
  isa::Reg constantReg(isa::ElemType Ty, int64_t Bits) const;

  /// Evaluates a boolean expression into mask \p DestK, constrained by
  /// \p WriteMask (result ⊆ WriteMask).
  void evalCond(const ir::Expr *E, isa::Reg WriteMask, isa::Reg DestK);

  /// Evaluates a value expression; loads are masked by CurMask. The result
  /// may be a canonical register (v_i or a scalar image) — callers that
  /// need the value to survive later writes must copy it.
  isa::Reg evalVec(const ir::Expr *E);

  /// Emits a (possibly first-faulting) vector load for an ArrayRef.
  isa::Reg emitArrayLoad(const ir::Expr *E);

  /// dst = Mask ? Src : dst  (full-register select).
  void emitMaskedMove(isa::Reg Dst, isa::ElemType Ty, isa::Reg Mask,
                      isa::Reg Src);

  struct RegionCtx {
    bool InCondVpl = false;
    const analysis::CondUpdateVpl *Vpl = nullptr;
    /// Per-update persistent value registers (parallel to Vpl->Updates).
    std::vector<isa::Reg> UpdateVals;
    /// True while emitting the commit region of an early-exit guard (the
    /// current predicate is the first-exiting-lane singleton).
    bool InExitRegion = false;
    /// Lanes at or after the first exiting lane (selective broadcast mask).
    isa::Reg ExitRemMask;
    /// Speculative mode: plain if-conversion everywhere.
    bool StraightlineOnly = false;
  };

  void emitStmtList(const std::vector<ir::Stmt *> &Stmts, RegionCtx &Ctx);
  void emitStmt(const ir::Stmt *S, RegionCtx &Ctx);
  void emitAssign(const ir::Stmt *S, RegionCtx &Ctx);
  void emitStore(const ir::Stmt *S, RegionCtx &Ctx);
  void emitIf(const ir::Stmt *S, RegionCtx &Ctx);

  void emitEarlyExitGuard(const ir::Stmt *Guard,
                          const analysis::EarlyExitInfo &EE);
  void emitCondUpdateVpl(const analysis::CondUpdateVpl &Vpl);
  void emitMemConflictVpl(const analysis::MemConflictVpl &Vpl);

  const analysis::ReductionInfo *reductionOf(int ScalarId) const;
  const analysis::EarlyExitInfo *earlyExitAt(const ir::Stmt *S) const;

  bool isSpeculativeLoadSite(int StmtId) const;

  isa::ProgramBuilder &B;
  const ir::LoopFunction &F;
  const analysis::VectorizationPlan &Plan;
  Options Opts;

  unsigned VL = 16;
  isa::ElemType IntTy = isa::ElemType::I32;
  isa::ElemType FloatTy = isa::ElemType::F32;

  std::vector<ScalarClass> Classes;
  std::vector<uint8_t> VecFree; ///< Scratch vector registers v16..v31.
  std::string Unsupported;
  /// Pre-broadcast constant pool: (lane type, raw bits) -> persistent
  /// register, filled by emitPreheader so loop bodies never re-broadcast
  /// immediates.
  std::vector<std::tuple<isa::ElemType, int64_t, isa::Reg>> ConstPool;
  std::vector<uint8_t> Persistent; ///< Registers exempt from release.

  isa::Reg CurMask;       ///< Active predicate during body emission.
  int IfDepth = 0;        ///< Depth of the k2/k3 if-conversion stack.
  int CurrentStmtId = 0;  ///< For speculative-load lookup.
  std::string NotesText;
};

} // namespace codegen
} // namespace flexvec

#endif // FLEXVEC_CODEGEN_VECTOREMITTER_H
