//===- driver/LoweringStrategy.h - Algorithm-1 lowering driver --*- C++ -*-===//
//
// The single Algorithm-1 lowering skeleton and the strategy interface the
// four vector variants plug into. The skeleton owns everything the paper's
// Algorithm 1 shares across variants — preheader, the chunked vector loop
// (head guard, chunk prolog, body, chunk epilog, early-exit break,
// backedge), the live-out block, and the halt — while a LoweringStrategy
// contributes only what genuinely differs: legality, emitter options, the
// shape of the loop nest (flat chunks vs. RTM tiles vs. checkpointed
// straightline chunks), and the scalar-fallback tails.
//
// Emission-order contract: the skeleton emits, in order,
//
//   preheader | loop nest | resume blocks | VecExit: live-outs |
//   fallback tail | HaltL: halt
//
// where "resume blocks" are fallback bodies that re-enter the loop (the
// RTM abort handler, the speculative scalar chunk) and the "fallback tail"
// runs after the live-outs (FlexVec's first-faulting scalar fallback, or
// just the jmp-to-halt that skips it). Strategies with empty tails fall
// through from the live-outs straight into the halt, reproducing the
// traditional layout byte-for-byte.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_LOWERINGSTRATEGY_H
#define FLEXVEC_DRIVER_LOWERINGSTRATEGY_H

#include "codegen/Compiled.h"
#include "codegen/VectorEmitter.h"
#include "driver/Remarks.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>

namespace flexvec {
namespace driver {

/// Optional early-exit break emitted after the chunk epilog. (Namespace
/// scope rather than nested: a nested aggregate with member initializers
/// cannot be a `= {}` default argument inside its own enclosing class.)
struct BreakCheck {
  bool Enabled = false;
  isa::ProgramBuilder::Label To = 0;
  const char *Comment = nullptr;
};

/// Shared state of one lowering: the builder, the loop, the plan, and the
/// skeleton's labels. Owned by lowerLoop(); strategies receive it in every
/// hook.
struct LoweringContext {
  isa::ProgramBuilder B;
  const ir::LoopFunction &F;
  const analysis::VectorizationPlan &Plan;
  unsigned RtmTile;
  RemarkStream &Remarks;
  /// Valid during the emission hooks (constructed after prepare()).
  codegen::VectorEmitter *Em = nullptr;
  /// Bound by the skeleton: the live-out block and the final halt.
  isa::ProgramBuilder::Label VecExit = 0;
  isa::ProgramBuilder::Label HaltL = 0;
  /// Non-zero only under the adaptive strategy: base address of the
  /// persistent dispatch cell. Strategies whose resume/fallback blocks mark
  /// an aborted speculative attempt bump the cell's abort-event counter
  /// when this is set; normal lowering (0) is byte-identical to before.
  uint64_t DispatchCellAddr = 0;
  /// Vector width this lowering compiles for; stamped into the Program and
  /// the emitter options. Defaults to the 512-bit baseline.
  isa::VectorConfig Vec;
  /// SVE-style predicated loop control (KWHILELT chunk heads).
  bool Predicated = false;
  /// The first construct met, by any emitter of this lowering, that has
  /// no vector form; empty while the program is usable.
  std::string Unsupported;

  LoweringContext(const ir::LoopFunction &F,
                  const analysis::VectorizationPlan &Plan, unsigned RtmTile,
                  RemarkStream &Remarks,
                  isa::VectorConfig Vec = isa::VectorConfig(),
                  bool Predicated = false)
      : F(F), Plan(Plan), RtmTile(RtmTile), Remarks(Remarks), Vec(Vec),
        Predicated(Predicated) {
    B.setVectorBytes(Vec.Bytes);
  }

  /// Trip-count register (scalar parameter holding n).
  isa::Reg trip() const {
    return codegen::scalarParamReg(F.tripCountScalar());
  }
  /// Scratch register used by every loop-head guard.
  isa::Reg headTemp() const { return isa::Reg::scalar(25); }

  /// Optional early-exit break emitted after the chunk epilog.
  using BreakCheck = driver::BreakCheck;

  /// Algorithm 1's loop-head guard: `t = i < Bound; brZero t, ExitTo`.
  void emitLoopHead(isa::Reg Bound, isa::ProgramBuilder::Label ExitTo);

  /// One full Algorithm-1 chunk loop against \p Bound:
  ///
  ///   Top:  head guard (exit to ExitTo)
  ///         chunk prolog
  ///         [AfterProlog]
  ///         body            (Em->emitBody() unless Body overrides)
  ///         chunk epilog
  ///         [break check]
  ///         jmp Top
  ///
  /// This is the one place the chunked loop structure exists; every
  /// strategy's nest is built from it. Returns the loop-top label so
  /// resume blocks can re-enter the loop.
  isa::ProgramBuilder::Label
  emitChunkLoop(isa::Reg Bound, isa::ProgramBuilder::Label ExitTo,
                BreakCheck Break = {},
                const std::function<void()> &AfterProlog = {},
                const std::function<void()> &Body = {});
};

/// One code-generation variant plugged into the Algorithm-1 skeleton.
class LoweringStrategy {
public:
  virtual ~LoweringStrategy() = default;

  virtual codegen::CodeGenKind kind() const = 0;

  /// Legality check and per-loop setup (labels, checkpoint schedules) for a
  /// vectorizable plan. Runs before the emitter exists. A decline must emit
  /// a Missed remark tagged with variantName(kind()) and return false — no
  /// refusal is ever silent.
  virtual bool prepare(LoweringContext &Ctx) = 0;

  /// Emitter configuration for this strategy.
  virtual codegen::VectorEmitter::Options
  emitterOptions(const LoweringContext &Ctx) const = 0;

  /// The strategy's loop nest, built from Ctx.emitChunkLoop /
  /// Ctx.emitLoopHead. Exits branch to Ctx.VecExit.
  virtual void emitLoopNest(LoweringContext &Ctx) = 0;

  /// Blocks between the loop nest and the live-out block that re-enter the
  /// loop (RTM abort handler, speculative scalar chunk). Default: none.
  virtual void emitResumeBlocks(LoweringContext &Ctx) { (void)Ctx; }

  /// Code after the live-outs: the jmp-to-halt plus any scalar fallback
  /// entered from inside the loop (FlexVec's first-faulting bail). The
  /// default emits nothing, so control falls through into the halt.
  virtual void emitFallbackTail(LoweringContext &Ctx) { (void)Ctx; }

  /// CompiledLoop::Notes text; called after emission completes.
  virtual std::string notes(const LoweringContext &Ctx) const = 0;
};

/// Creates the strategy for \p Kind (one of the five vector variants).
std::unique_ptr<LoweringStrategy> createStrategy(codegen::CodeGenKind Kind);

/// The body of the Algorithm-1 skeleton: creates fresh VecExit/HaltL labels
/// on \p Ctx, constructs the emitter from \p S's options, and emits
/// preheader | nest | resume | live-outs | tail | halt. Returns the
/// strategy's notes (computed while the emitter is still alive) and keeps
/// the emitter's whyUnsupported() in Ctx.Unsupported. Exposed so the
/// adaptive strategy can nest a complete traditional skeleton behind its
/// dispatch guard; \p S must already have prepare()d successfully.
std::string emitSkeletonBody(LoweringContext &Ctx, LoweringStrategy &S);

/// THE Algorithm-1 driver: runs the strategy for \p Kind through the
/// shared skeleton. Returns nullopt when the plan is not vectorizable or
/// the strategy declines, after a Missed remark says why. A generated
/// program gets no remark here: the driver files its Applied remark. When
/// the emission met a construct without a vector form, \p Unsupported
/// receives its name and the program is unusable.
std::optional<codegen::CompiledLoop>
lowerLoop(const ir::LoopFunction &F, const analysis::VectorizationPlan &Plan,
          codegen::CodeGenKind Kind, unsigned RtmTile, RemarkStream &Remarks,
          isa::VectorConfig Vec, bool Predicated, std::string &Unsupported);

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_LOWERINGSTRATEGY_H
