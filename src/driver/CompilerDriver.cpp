//===- driver/CompilerDriver.cpp ------------------------------------------===//

#include "driver/CompilerDriver.h"

#include "codegen/ScalarCodeGen.h"
#include "driver/LoweringStrategy.h"
#include "driver/Verifier.h"
#include "pdg/Pdg.h"
#include "support/Error.h"

using namespace flexvec;
using namespace flexvec::driver;
using codegen::CodeGenKind;
using codegen::CompiledLoop;

namespace {

// 'S', not "S": GCC 12 reports a false -Wrestrict on `"S" + std::string&&`.
std::string stmtRef(int Node) { return 'S' + std::to_string(Node); }

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

/// pattern-analysis: builds and seals the plan from the PDG and remarks
/// every recognized idiom and relaxed dependence. For a vectorizable plan
/// it lowers flexvec-rtm at the compiled width and mode and keeps the
/// program as R.Rtm. Every other variant emits a subset of that code, so
/// when the emission meets a construct without a vector form the loop is
/// declined instead.
void analyzePatterns(const ir::LoopFunction &F, const pdg::Pdg &Graph,
                     const DriverOptions &Opts, CompileResult &R) {
  const char *Pass = "pattern-analysis";
  RemarkStream &Rs = R.Remarks;
  analysis::VectorizationPlan &Plan = R.Plan;
  Plan = analysis::analyzeLoop(Graph);
  Plan.seal(F.numStmts());
  if (Plan.Vectorizable) {
    // A vectorizable plan leaves no remark here: flexvec-rtm never declines.
    std::string Unsupported;
    R.Rtm = lowerLoop(F, Plan, CodeGenKind::FlexVecRtm, Opts.RtmTile, Rs,
                      Opts.Vec, Opts.Predicated, Unsupported);
    if (!Unsupported.empty()) {
      R.Rtm.reset();
      Plan.Vectorizable = false;
      Plan.Reason = std::move(Unsupported);
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

/// plan-legalize: remarks the loads that execute speculatively and so need
/// first-faulting forms or a transaction.
void legalizePlan(CompileResult &R) {
  const analysis::VectorizationPlan &Plan = R.Plan;
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

/// lower: generates the scalar baseline and runs the vector variants
/// through the Algorithm-1 skeleton, remarking each in variant order;
/// flexvec-rtm's program comes from pattern-analysis.
void lower(const ir::LoopFunction &F, const DriverOptions &Opts,
           CompileResult &R) {
  R.Scalar = codegen::generateScalar(F);
  R.Remarks.note("lower", "scalar", R.Scalar.Notes).Variant =
      codegen::variantName(CodeGenKind::Scalar);
  auto applied = [&](const CompiledLoop &L) {
    R.Remarks.applied("lower", "vectorized", L.Notes).Variant =
        codegen::variantName(L.Kind);
  };
  auto lowerAs = [&](CodeGenKind Kind) {
    std::string Unsupported;
    std::optional<CompiledLoop> L = lowerLoop(
        F, R.Plan, Kind, Opts.RtmTile, R.Remarks, Opts.Vec, Opts.Predicated,
        Unsupported);
    // pattern-analysis declined every loop whose flexvec-rtm emission met
    // such a construct, and the other variants emit a subset of it.
    if (!Unsupported.empty())
      fatalError("loop '" + F.name() + "': " + Unsupported);
    if (L)
      applied(*L);
    return L;
  };
  R.Traditional = lowerAs(CodeGenKind::Traditional);
  R.Speculative = lowerAs(CodeGenKind::Speculative);
  R.FlexVec = lowerAs(CodeGenKind::FlexVec);
  if (R.Rtm)
    applied(*R.Rtm);
  else
    R.Rtm = lowerAs(CodeGenKind::FlexVecRtm); // Declines: not vectorizable.
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
  analyzePatterns(F, Graph, Opts, R);
  legalizePlan(R);
  lower(F, Opts, R);
  verifyPrograms(F, R);
  return R;
}
