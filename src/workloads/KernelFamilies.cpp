//===- workloads/KernelFamilies.cpp ---------------------------------------===//

#include "workloads/KernelFamilies.h"

#include "gen/Gen.h"
#include "ir/Parser.h"
#include "support/Error.h"

#include <algorithm>

using namespace flexvec;
using namespace flexvec::workloads;

namespace {

struct FamilyRow {
  const char *Name;  ///< Sweep-row name ("poly.axpy", "avk.gather_chain").
  const char *Group; ///< "POLY" or "IRREG".
  KernelKind Kind;
  const char *Mix;     ///< Expected FlexVec instruction classes.
  int64_t Trip;        ///< Iterations per invocation.
  int64_t Invocations; ///< Before iteration scaling.
  int64_t IndexBound;  ///< Values in idx-convention arrays.
  int64_t IndexMask;   ///< Largest masked subscript in the kernel.
  const char *Dsl;
};

// The subscripts each kernel can form are bounded by its row's IndexMask /
// IndexBound; gen::buildConventionInputs sizes every array past both, so
// the DSL below never reads or writes out of bounds.
const FamilyRow Rows[] = {
    // --- POLY: polybench-style affine kernels ---------------------------
    {"poly.axpy", "POLY", KernelKind::Affine, "VMUL/VADD (unit stride)",
     1024, 10, 64, 255,
     R"(loop poly_axpy(i64 n trip, i32 alpha, i32 x[] readonly, i32 y[]) {
  y[i] = (y[i] + (alpha * x[i]));
})"},
    {"poly.jacobi1d", "POLY", KernelKind::Affine,
     "VADD (affine +1/+2 offsets)", 1024, 10, 64, 255,
     R"(loop poly_jacobi1d(i64 n trip, i32 t1, i32 a[] readonly, i32 b[]) {
  t1 = ((a[i] + a[(i + 1)]) + a[(i + 2)]);
  b[i] = t1;
})"},
    {"poly.dotmin", "POLY", KernelKind::ArgExtreme,
     "KFTM, VPSLCTLAST (conditional-min reduction)", 2048, 8, 64, 255,
     R"(loop poly_dotmin(i64 n trip, i32 best liveout, i32 pay liveout,
                 i32 t1, i32 x[] readonly, i32 y[] readonly) {
  t1 = (x[i] * y[i]);
  if (t1 < best) {
    best = t1;
    pay = i;
  }
})"},
    // --- IRREG: Autovesk-style gather/scatter kernels -------------------
    {"avk.gather_chain", "IRREG", KernelKind::GatherChain,
     "VPGATHERFF x2 (two-level indirection)", 1024, 10, 256, 255,
     R"(loop avk_gather_chain(i64 n trip, i32 t1, i32 t2,
                      i32 idx[] readonly, i32 lut[] readonly, i32 out[]) {
  t1 = lut[(idx[i] & 255)];
  t2 = lut[(t1 & 255)];
  out[i] = (t1 + t2);
})"},
    {"avk.scatter_max", "IRREG", KernelKind::ScatterAccum,
     "KFTM, VPCONFLICTM (scatter-max histogram)", 1024, 10, 128, 255,
     R"(loop avk_scatter_max(i64 n trip, i32 j, i32 idx[] readonly,
                     i32 w[] readonly, i32 hist[]) {
  j = idx[i];
  hist[j] = max(hist[j], w[i]);
})"},
    {"avk.graph_relax", "IRREG", KernelKind::Force,
     "VPGATHERFF, VPCONFLICTM (edge relaxation)", 1024, 10, 128, 255,
     R"(loop avk_graph_relax(i64 n trip, i32 j, i32 t1,
                     i32 idxdst[] readonly, i32 idxsrc[] readonly,
                     i32 w[] readonly, i32 pot[] readonly, i32 d[]) {
  j = idxdst[i];
  t1 = (pot[(idxsrc[i] & 255)] + w[i]);
  d[j] = min(d[j], t1);
})"},
    {"avk.stride_blend", "IRREG", KernelKind::GatherChain,
     "VPGATHERFF (non-unit stride)", 1024, 10, 64, 255,
     R"(loop avk_stride_blend(i64 n trip, i32 t1, i32 s0[] readonly,
                      i32 out[]) {
  t1 = (s0[((i * 2) & 255)] + s0[(((i * 2) + 1) & 255)]);
  out[i] = t1;
})"},
};

} // namespace

std::vector<Benchmark>
workloads::buildFamilyBenchmarks(double IterationScale) {
  std::vector<Benchmark> Out;
  Out.reserve(std::size(Rows));
  for (const FamilyRow &R : Rows) {
    ir::ParseResult P = ir::parseLoop(R.Dsl);
    if (!P)
      fatalError("family kernel failed to parse: " + std::string(R.Name) +
                 ": " + P.Error);

    Benchmark B;
    B.Name = R.Name;
    B.Group = R.Group;
    B.Kind = R.Kind;
    B.Coverage = 1.0; // The kernel *is* the workload; no app around it.
    B.PaperTripCount = R.Trip;
    B.PaperSpeedup = 0.0; // Imported family: no Figure 8 reference point.
    B.PaperMix = R.Mix;
    B.F = std::move(P.F);

    gen::InputPlan Plan;
    Plan.Trip = R.Trip;
    Plan.IndexBound = R.IndexBound;
    Plan.IndexMask = R.IndexMask;
    Plan.ArraySlack = 8;
    int64_t Invs = std::max<int64_t>(
        1, static_cast<int64_t>(
               static_cast<double>(R.Invocations) * IterationScale));
    const ir::LoopFunction *FPtr = B.F.get();
    B.Gen = [FPtr, Plan, Invs](Rng &Rand) {
      core::WorkloadInstance In;
      In.Invocations.reserve(static_cast<size_t>(Invs));
      for (int64_t V = 0; V < Invs; ++V) {
        ir::Bindings Bind = ir::Bindings::forFunction(*FPtr);
        gen::buildConventionInputs(*FPtr, Rand, Plan, In.Image, Bind);
        In.Invocations.push_back(std::move(Bind));
      }
      return In;
    };
    Out.push_back(std::move(B));
  }
  return Out;
}
