//===- driver/CompilerDriver.cpp ------------------------------------------===//

#include "driver/CompilerDriver.h"

#include "codegen/ScalarCodeGen.h"
#include "codegen/VectorEmitter.h"
#include "driver/LoweringStrategy.h"
#include "driver/Verifier.h"
#include "pdg/Pdg.h"
#include "support/Error.h"

using namespace flexvec;
using namespace flexvec::driver;
using codegen::CodeGenKind;
using codegen::CompiledLoop;

namespace {

std::string stmtRef(int Node) { return "S" + std::to_string(Node); }

/// ir-normalize: validates the loop against the register conventions and
/// records its static shape. This is where a malformed loop dies loudly
/// instead of overflowing the parameter register file mid-emission.
void normalizeIr(const ir::LoopFunction &F, CompileResult &R) {
  if (F.scalars().size() > ir::MaxScalarParams)
    fatalError("loop has more scalar parameters than the register "
               "conventions allow");
  if (F.arrays().size() > ir::MaxArrayParams)
    fatalError("loop has more array parameters than the register "
               "conventions allow");
  if (F.tripCountScalar() < 0)
    fatalError("loop has no trip-count scalar");

  R.Shape = analysis::computeLoopShape(F);
  R.Remarks.analysis(
      "ir-normalize", "loop-shape",
      "vector-memory-ops=" + std::to_string(R.Shape.VectorMemoryOps) +
          " gather-scatter=" + std::to_string(R.Shape.GatherScatterOps) +
          " compute-ops=" + std::to_string(R.Shape.ComputeOps));
}

/// pattern-analysis: builds the plan from the PDG and remarks every
/// recognized idiom and relaxed dependence. A loop whose dependences allow
/// vector code but which uses a construct the vector emitter cannot emit
/// is declined too: a dry run of the flexvec-rtm body, the widest of the
/// five variants' emissions, finds the construct.
void analyzePatterns(const ir::LoopFunction &F, const pdg::Pdg &Graph,
                     CompileResult &R) {
  const char *Pass = "pattern-analysis";
  RemarkStream &Rs = R.Remarks;
  analysis::VectorizationPlan &Plan = R.Plan;
  Plan = analysis::analyzeLoop(Graph);
  if (Plan.Vectorizable) {
    isa::ProgramBuilder Scratch;
    codegen::VectorEmitter::Options Opts;
    Opts.UseFirstFaulting = false;
    codegen::VectorEmitter Em(Scratch, F, Plan, Opts);
    Em.emitBody();
    if (!Em.whyUnsupported().empty()) {
      Plan.Vectorizable = false;
      Plan.Reason = Em.whyUnsupported();
    }
  }

  if (!Plan.Vectorizable)
    Rs.missed(Pass, "not-vectorizable", Plan.Reason);

  for (const analysis::ReductionInfo &Red : Plan.Reductions) {
    const char *Kind = Red.Kind == analysis::ReductionKind::Add   ? "add"
                       : Red.Kind == analysis::ReductionKind::Min ? "min"
                                                                  : "max";
    Rs.analysis(Pass, "reduction",
                std::string("recognized ") + Kind + " reduction over '" +
                    F.scalar(Red.ScalarId).Name + "'" +
                    (Red.GuardNode ? " (guarded)" : ""))
        .Node = Red.Node;
  }
  for (const analysis::EarlyExitInfo &EE : Plan.EarlyExits)
    Rs.analysis(Pass, "early-exit",
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
    Rs.analysis(Pass, "cond-update-vpl",
                "conditional-update VPL over top-level statements " +
                    std::to_string(CU.FirstTop) + ".." +
                    std::to_string(CU.LastTop) + " updating " + Names)
        .Node = CU.Updates.empty() ? 0 : CU.Updates[0].UpdateNode;
  }
  for (const analysis::MemConflictVpl &MC : Plan.MemConflictVpls)
    Rs.analysis(Pass, "mem-conflict-vpl",
                "runtime memory-conflict VPL on array '" +
                    F.array(MC.ArrayId).Name + "' over top-level statements " +
                    std::to_string(MC.FirstTop) + ".." +
                    std::to_string(MC.LastTop));
}

/// plan-legalize: finalizes the plan for emission, building the
/// per-statement speculative-load bitset so isSpeculative() is O(1) during
/// codegen.
void legalizePlan(const ir::LoopFunction &F, CompileResult &R) {
  analysis::VectorizationPlan &Plan = R.Plan;
  Plan.seal(F.numStmts());
  if (Plan.SpeculativeLoadNodes.empty())
    return;
  std::string Sites;
  for (int N : Plan.SpeculativeLoadNodes) {
    if (!Sites.empty())
      Sites += ", ";
    Sites += stmtRef(N);
  }
  R.Remarks.analysis("plan-legalize", "speculative-loads",
                     "loads at " + Sites +
                         " execute speculatively and need first-faulting "
                         "forms (or RTM)");
}

/// lower: generates the scalar baseline and runs each of the five vector
/// variants through the Algorithm-1 skeleton.
void lower(const ir::LoopFunction &F, const DriverOptions &Opts,
           CompileResult &R) {
  R.Scalar = codegen::generateScalar(F);
  R.Remarks.note("lower", "scalar", R.Scalar.Notes).Variant =
      codegen::variantName(CodeGenKind::Scalar);
  auto lowerAs = [&](CodeGenKind Kind) {
    return lowerLoop(F, R.Plan, Kind, Opts.RtmTile, R.Remarks, Opts.Vec,
                     Opts.Predicated);
  };
  R.Traditional = lowerAs(CodeGenKind::Traditional);
  R.Speculative = lowerAs(CodeGenKind::Speculative);
  R.FlexVec = lowerAs(CodeGenKind::FlexVec);
  R.Rtm = lowerAs(CodeGenKind::FlexVecRtm);
  R.Adaptive = lowerAs(CodeGenKind::FlexVecAdaptive);
}

/// program-verify: runs the structural verifier over every generated
/// program when verificationEnabled() says so. Emits no remarks (remark
/// streams must be identical across configs); a violation is a codegen
/// bug and dies loudly.
void verifyPrograms(const ir::LoopFunction &F, const CompileResult &R) {
  if (!verificationEnabled())
    return;
  const CompiledLoop *Programs[] = {
      &R.Scalar,
      R.Traditional ? &*R.Traditional : nullptr,
      R.Speculative ? &*R.Speculative : nullptr,
      R.FlexVec ? &*R.FlexVec : nullptr,
      R.Rtm ? &*R.Rtm : nullptr,
      R.Adaptive ? &*R.Adaptive : nullptr,
  };
  for (const CompiledLoop *C : Programs) {
    if (!C)
      continue;
    std::vector<std::string> Errors = verifyProgram(C->Prog);
    if (Errors.empty())
      continue;
    std::string Msg = "program verification failed for loop '" + F.name() +
                      "' variant " + codegen::variantName(C->Kind) + ":";
    for (const std::string &E : Errors)
      Msg += "\n  " + E;
    fatalError(Msg);
  }
}

} // namespace

CompileResult driver::compileLoop(const ir::LoopFunction &F,
                                  const DriverOptions &Opts) {
  CompileResult R;
  normalizeIr(F, R);
  const pdg::Pdg Graph(F); // pdg-build
  analyzePatterns(F, Graph, R);
  legalizePlan(F, R);
  lower(F, Opts, R);
  verifyPrograms(F, R);
  return R;
}
