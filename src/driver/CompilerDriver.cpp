//===- driver/CompilerDriver.cpp ------------------------------------------===//

#include "driver/CompilerDriver.h"

#include "codegen/ScalarCodeGen.h"
#include "driver/LoweringStrategy.h"
#include "driver/Verifier.h"
#include "pdg/Pdg.h"
#include "support/Error.h"

#include <utility>

using namespace flexvec;
using namespace flexvec::driver;
using codegen::CodeGenKind;
using codegen::CompiledLoop;

namespace {

std::string stmtRef(int Node) { return "S" + std::to_string(Node); }

// --- ir-normalize -----------------------------------------------------------

/// Validates the loop against the register conventions and records its
/// static shape. This is where a malformed loop dies loudly instead of
/// overflowing the parameter register file mid-emission.
class IrNormalizePass final : public Pass {
public:
  const char *name() const override { return "ir-normalize"; }

  void run(PassContext &Ctx) override {
    if (Ctx.F.scalars().size() > ir::MaxScalarParams)
      fatalError("loop has more scalar parameters than the register "
                 "conventions allow");
    if (Ctx.F.arrays().size() > ir::MaxArrayParams)
      fatalError("loop has more array parameters than the register "
                 "conventions allow");
    if (Ctx.F.tripCountScalar() < 0)
      fatalError("loop has no trip-count scalar");

    Ctx.R.Shape = analysis::computeLoopShape(Ctx.F);
    Ctx.R.Remarks.analysis(
        name(), "loop-shape",
        "vector-memory-ops=" + std::to_string(Ctx.R.Shape.VectorMemoryOps) +
            " gather-scatter=" +
            std::to_string(Ctx.R.Shape.GatherScatterOps) +
            " compute-ops=" + std::to_string(Ctx.R.Shape.ComputeOps));
  }
};

// --- pdg-build --------------------------------------------------------------

class PdgBuildPass final : public Pass {
public:
  const char *name() const override { return "pdg-build"; }

  void run(PassContext &Ctx) override {
    Ctx.Graph = std::make_unique<pdg::Pdg>(Ctx.F);
  }
};

// --- pattern-analysis -------------------------------------------------------

class PatternAnalysisPass final : public Pass {
public:
  const char *name() const override { return "pattern-analysis"; }

  void run(PassContext &Ctx) override {
    const ir::LoopFunction &F = Ctx.F;
    RemarkStream &Rs = Ctx.R.Remarks;
    analysis::VectorizationPlan &Plan = Ctx.R.Plan;
    Plan = analysis::analyzeLoop(*Ctx.Graph);

    if (!Plan.Vectorizable)
      Rs.missed(name(), "not-vectorizable", Plan.Reason);

    for (const analysis::ReductionInfo &R : Plan.Reductions) {
      const char *Kind = R.Kind == analysis::ReductionKind::Add   ? "add"
                         : R.Kind == analysis::ReductionKind::Min ? "min"
                                                                  : "max";
      Rs.analysis(name(), "reduction",
                  std::string("recognized ") + Kind + " reduction over '" +
                      F.scalar(R.ScalarId).Name + "'" +
                      (R.GuardNode ? " (guarded)" : ""))
          .Node = R.Node;
    }
    for (const analysis::EarlyExitInfo &EE : Plan.EarlyExits)
      Rs.analysis(name(), "early-exit",
                  "early loop termination: guard " + stmtRef(EE.GuardNode) +
                      " breaks at " + stmtRef(EE.BreakNode) +
                      (EE.BreakInElse ? " (break in else region)" : ""))
          .Node = EE.GuardNode;
    for (const analysis::CondUpdateVpl &CU : Plan.CondUpdateVpls) {
      std::string Names;
      for (const analysis::CondUpdateScalar &U : CU.Updates) {
        if (!Names.empty())
          Names += ", ";
        Names += "'" + F.scalar(U.ScalarId).Name + "'";
      }
      Rs.analysis(name(), "cond-update-vpl",
                  "conditional-update VPL over top-level statements " +
                      std::to_string(CU.FirstTop) + ".." +
                      std::to_string(CU.LastTop) + " updating " + Names)
          .Node = CU.Updates.empty() ? 0 : CU.Updates[0].UpdateNode;
    }
    for (const analysis::MemConflictVpl &MC : Plan.MemConflictVpls)
      Rs.analysis(name(), "mem-conflict-vpl",
                  "runtime memory-conflict VPL on array '" +
                      F.array(MC.ArrayId).Name +
                      "' over top-level statements " +
                      std::to_string(MC.FirstTop) + ".." +
                      std::to_string(MC.LastTop));
  }
};

// --- plan-legalize ----------------------------------------------------------

/// Finalizes the plan for emission: builds the per-statement speculative-
/// load bitset so isSpeculative() is O(1) during codegen.
class PlanLegalizePass final : public Pass {
public:
  const char *name() const override { return "plan-legalize"; }

  void run(PassContext &Ctx) override {
    analysis::VectorizationPlan &Plan = Ctx.R.Plan;
    Plan.seal(Ctx.F.numStmts());
    if (!Plan.SpeculativeLoadNodes.empty()) {
      std::string Sites;
      for (int N : Plan.SpeculativeLoadNodes) {
        if (!Sites.empty())
          Sites += ", ";
        Sites += stmtRef(N);
      }
      Ctx.R.Remarks.analysis(name(), "speculative-loads",
                             "loads at " + Sites +
                                 " execute speculatively and need "
                                 "first-faulting forms (or RTM)");
    }
  }
};

// --- lower ------------------------------------------------------------------

/// Generates the scalar baseline and runs each of the five vector
/// strategies through the Algorithm-1 skeleton.
class LowerPass final : public Pass {
public:
  const char *name() const override { return "lower"; }

  void run(PassContext &Ctx) override {
    CompileResult &R = Ctx.R;
    R.Scalar = codegen::generateScalar(Ctx.F);
    R.Remarks.note(name(), "scalar", R.Scalar.Notes).Variant = "scalar";

    R.Traditional = lower(Ctx, CodeGenKind::Traditional);
    R.Speculative = lower(Ctx, CodeGenKind::Speculative);
    R.FlexVec = lower(Ctx, CodeGenKind::FlexVec);
    R.Rtm = lower(Ctx, CodeGenKind::FlexVecRtm);
    R.Adaptive = lower(Ctx, CodeGenKind::FlexVecAdaptive);
  }

private:
  static std::optional<CompiledLoop> lower(PassContext &Ctx,
                                           CodeGenKind Kind) {
    std::unique_ptr<LoweringStrategy> S = createStrategy(Kind);
    return lowerLoop(Ctx.F, Ctx.R.Plan, Ctx.Opts.RtmTile, *S, Ctx.R.Remarks,
                     Ctx.Opts.Vec, Ctx.Opts.Predicated);
  }
};

// --- program-verify ---------------------------------------------------------

/// Runs the structural verifier over every generated program. Emits no
/// remarks (it is gated on build config / environment, and remark streams
/// must be identical across configs); a violation is a codegen bug and
/// dies loudly.
class ProgramVerifyPass final : public Pass {
public:
  const char *name() const override { return "program-verify"; }

  void run(PassContext &Ctx) override {
    if (!verificationEnabled())
      return;
    const CompileResult &R = Ctx.R;
    verify(Ctx, "scalar", R.Scalar);
    verify(Ctx, "traditional", R.Traditional);
    verify(Ctx, "speculative", R.Speculative);
    verify(Ctx, "flexvec", R.FlexVec);
    verify(Ctx, "flexvec-rtm", R.Rtm);
    verify(Ctx, "flexvec-adaptive", R.Adaptive);
  }

private:
  static void verify(PassContext &Ctx, const char *Variant,
                     const std::optional<CompiledLoop> &C) {
    if (C)
      verify(Ctx, Variant, *C);
  }
  static void verify(PassContext &Ctx, const char *Variant,
                     const CompiledLoop &C) {
    std::vector<std::string> Errors = verifyProgram(C.Prog);
    if (Errors.empty())
      return;
    std::string Msg = "program verification failed for loop '" +
                      Ctx.F.name() + "' variant " + Variant + ":";
    for (const std::string &E : Errors)
      Msg += "\n  " + E;
    fatalError(Msg);
  }
};

} // namespace

PassManager driver::buildPipeline() {
  PassManager PM;
  PM.add(std::make_unique<IrNormalizePass>());
  PM.add(std::make_unique<PdgBuildPass>());
  PM.add(std::make_unique<PatternAnalysisPass>());
  PM.add(std::make_unique<PlanLegalizePass>());
  PM.add(std::make_unique<LowerPass>());
  PM.add(std::make_unique<ProgramVerifyPass>());
  return PM;
}

CompileResult driver::compileLoop(const ir::LoopFunction &F,
                                  const DriverOptions &Opts) {
  CompileResult R;
  PassContext Ctx(F, Opts, R);
  PassManager PM = buildPipeline();
  PM.run(Ctx);
  return R;
}
