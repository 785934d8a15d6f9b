//===- workloads/Benchmarks.cpp -------------------------------------------===//

#include "workloads/Benchmarks.h"

#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace flexvec;
using namespace flexvec::workloads;
using namespace flexvec::ir;
using isa::CmpKind;
using isa::ElemType;

const char *workloads::kernelKindName(KernelKind K) {
  switch (K) {
  case KernelKind::ArgExtreme:
    return "arg-extreme";
  case KernelKind::CondGather:
    return "cond-gather";
  case KernelKind::Match:
    return "match";
  case KernelKind::ScatterAccum:
    return "scatter-accum";
  case KernelKind::Force:
    return "force";
  case KernelKind::Affine:
    return "affine";
  case KernelKind::GatherChain:
    return "gather-chain";
  }
  unreachable("unknown kernel kind");
}

namespace {

/// Extra-compute multipliers (small, float-exact).
constexpr int64_t ExtraConsts[] = {3, 5, 7, 2, 9, 4};

/// Sets scalar \p Id's initial value of type \p Ty to integer \p V.
void bindValue(Bindings &B, const LoopFunction &F, int Id, int64_t V) {
  if (isFloatType(F.scalar(Id).Type))
    B.setFloat(F.scalar(Id).Type, Id, static_cast<double>(V));
  else
    B.setInt(Id, V);
}

/// One step of the running-extreme trace: with probability UpdateProb the
/// target strictly improves; otherwise it is strictly worse. Returns the
/// per-iteration final values of `e`.
std::vector<int64_t> extremeTrace(Rng &R, int64_t Trip, double UpdateProb,
                                  bool IsMin, int64_t Start) {
  std::vector<int64_t> T(static_cast<size_t>(Trip));
  int64_t Cur = Start;
  for (int64_t I = 0; I < Trip; ++I) {
    if (R.nextBool(UpdateProb)) {
      int64_t Step = R.nextInRange(1, 8);
      Cur = IsMin ? Cur - Step : Cur + Step;
      T[static_cast<size_t>(I)] = Cur;
    } else {
      int64_t Away = static_cast<int64_t>(R.nextBelow(1000));
      T[static_cast<size_t>(I)] = IsMin ? Cur + Away : Cur - Away;
    }
    assert(Cur > 16 && Cur < (1 << 24) && "extreme trace out of range");
  }
  return T;
}

/// Writes \p Values (exact small integers) as the array's element type.
uint64_t allocTyped(mem::BumpAllocator &Alloc, const std::vector<int64_t> &V,
                    bool Fp) {
  if (Fp) {
    std::vector<float> F(V.size());
    for (size_t I = 0; I < V.size(); ++I)
      F[I] = static_cast<float>(V[I]);
    return Alloc.allocArray(F);
  }
  std::vector<int32_t> I32(V.size());
  for (size_t I = 0; I < V.size(); ++I)
    I32[I] = static_cast<int32_t>(V[I]);
  return Alloc.allocArray(I32);
}

int64_t extraSumOf(const std::vector<int64_t> &Aux, int64_t I,
                   unsigned ExtraCompute) {
  int64_t Sum = 0;
  for (unsigned K = 0; K < ExtraCompute; ++K)
    Sum += Aux[static_cast<size_t>(I)] * ExtraConsts[K % 6];
  return Sum;
}

/// Appends the additive extra-compute statements: e = e + aux[i] * Ck.
void appendExtraCompute(LoopFunction &F, std::vector<Stmt *> &Body, int EId,
                        int AuxArray, ElemType Ty, unsigned ExtraCompute) {
  for (unsigned K = 0; K < ExtraCompute; ++K) {
    const Expr *C = isFloatType(Ty)
                        ? F.constFloat(Ty, static_cast<double>(
                                               ExtraConsts[K % 6]))
                        : F.constInt(Ty, ExtraConsts[K % 6]);
    const Expr *Term =
        F.binary(BinOp::Mul, F.arrayRef(AuxArray, F.indexRef()), C);
    Body.push_back(
        F.assignScalar(EId, F.binary(BinOp::Add, F.scalarRef(EId), Term)));
  }
}

} // namespace

// --- arg-extreme ----------------------------------------------------------===//

std::unique_ptr<LoopFunction>
workloads::buildArgExtremeLoop(const std::string &Name, bool Fp,
                               unsigned ExtraCompute, bool Branchy,
                               bool IsMin) {
  ElemType Ty = Fp ? ElemType::F32 : ElemType::I32;
  auto F = std::make_unique<LoopFunction>(Name);
  int N = F->addScalar("n", ElemType::I64);
  int Best = F->addScalar("best", Ty, /*IsLiveOut=*/true);
  int BestIdx = F->addScalar("best_idx", ElemType::I32, /*IsLiveOut=*/true);
  int E = F->addScalar("e", Ty);
  int Key = F->addArray("key", Ty, /*ReadOnly=*/true);
  int Aux = ExtraCompute ? F->addArray("aux", Ty, true) : -1;
  int Flag = Branchy ? F->addArray("flag", ElemType::I32, true) : -1;
  F->setTripCountScalar(N);

  std::vector<Stmt *> Body;
  Body.push_back(F->assignScalar(E, F->arrayRef(Key, F->indexRef())));
  appendExtraCompute(*F, Body, E, Aux, Ty, ExtraCompute);

  Stmt *Guard = F->makeIfShell(F->compare(IsMin ? CmpKind::LT : CmpKind::GT,
                                          F->scalarRef(E),
                                          F->scalarRef(Best)));
  F->addThen(Guard, F->assignScalar(Best, F->scalarRef(E)));
  F->addThen(Guard, F->assignScalar(BestIdx, F->indexRef()));

  if (Branchy) {
    Stmt *Outer = F->makeIfShell(F->compare(
        CmpKind::NE, F->arrayRef(Flag, F->indexRef()),
        F->constInt(ElemType::I32, 0)));
    F->addThen(Outer, Guard);
    Body.push_back(Outer);
  } else {
    Body.push_back(Guard);
  }
  F->setBody(Body);
  return F;
}

core::WorkloadInstance
workloads::genArgExtremeInputs(const LoopFunction &F, Rng &R, int64_t Trip,
                               int64_t Invocations, double UpdateProb, bool Fp,
                               unsigned ExtraCompute, bool Branchy,
                               bool IsMin) {
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);
  int64_t Start = IsMin ? (1 << 22) : (1 << 16);

  // Each invocation processes its own slice of a large backing array, the
  // way repeated calls into a hot loop stream over fresh data.
  int64_t Slices = std::min<int64_t>(Invocations, 48);
  int64_t Total = Trip * Slices;

  std::vector<int64_t> Aux(static_cast<size_t>(Total), 0);
  for (auto &V : Aux)
    V = static_cast<int64_t>(R.nextBelow(16));
  std::vector<int64_t> Flag(static_cast<size_t>(Total), 1);
  if (Branchy)
    for (auto &V : Flag)
      V = R.nextBool(0.98) ? 1 : 0;

  std::vector<int64_t> Key(static_cast<size_t>(Total));
  for (int64_t S = 0; S < Slices; ++S) {
    std::vector<int64_t> Targets =
        extremeTrace(R, Trip, UpdateProb, IsMin, Start);
    // With the branchy outer guard, an "update" target only fires when
    // flag=1; force flags on at improving steps so UpdateProb is respected.
    if (Branchy) {
      int64_t Cur = Start;
      for (int64_t I = 0; I < Trip; ++I) {
        bool Improves = IsMin ? Targets[static_cast<size_t>(I)] < Cur
                              : Targets[static_cast<size_t>(I)] > Cur;
        if (Improves) {
          Flag[static_cast<size_t>(S * Trip + I)] = 1;
          Cur = Targets[static_cast<size_t>(I)];
        }
      }
    }
    for (int64_t I = 0; I < Trip; ++I)
      Key[static_cast<size_t>(S * Trip + I)] =
          Targets[static_cast<size_t>(I)] -
          extraSumOf(Aux, S * Trip + I, ExtraCompute);
  }

  uint64_t KeyBase = allocTyped(Alloc, Key, Fp);
  uint64_t AuxBase = ExtraCompute ? allocTyped(Alloc, Aux, Fp) : 0;
  uint64_t FlagBase = Branchy ? allocTyped(Alloc, Flag, /*Fp=*/false) : 0;

  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    uint64_t Off = static_cast<uint64_t>((Inv % Slices) * Trip) * 4;
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = KeyBase + Off;
    int NextArray = 1;
    if (ExtraCompute)
      B.ArrayBases[NextArray++] = AuxBase + Off;
    if (Branchy)
      B.ArrayBases[NextArray++] = FlagBase + Off;
    B.setInt(0, Trip);
    bindValue(B, F, 1, Start); // best
    B.setInt(2, -1);           // best_idx
    Out.Invocations.push_back(B);
  }
  return Out;
}

// --- scatter-accumulate -----------------------------------------------------===//

std::unique_ptr<LoopFunction>
workloads::buildScatterAccumLoop(const std::string &Name, bool Fp,
                                 unsigned ExtraCompute) {
  ElemType Ty = Fp ? ElemType::F32 : ElemType::I32;
  auto F = std::make_unique<LoopFunction>(Name);
  int N = F->addScalar("n", ElemType::I64);
  int J = F->addScalar("j", ElemType::I32);
  int E = F->addScalar("e", Ty);
  int Idx = F->addArray("idx", ElemType::I32, /*ReadOnly=*/true);
  int W = F->addArray("w", Ty, true);
  int Aux = ExtraCompute ? F->addArray("aux", Ty, true) : -1;
  int D = F->addArray("d", Ty);
  F->setTripCountScalar(N);

  std::vector<Stmt *> Body;
  Body.push_back(F->assignScalar(J, F->arrayRef(Idx, F->indexRef())));
  Body.push_back(F->assignScalar(E, F->arrayRef(W, F->indexRef())));
  appendExtraCompute(*F, Body, E, Aux, Ty, ExtraCompute);
  const Expr *JRef = F->scalarRef(J); // Shared by the load and the store.
  Body.push_back(F->storeArray(
      D, JRef,
      F->binary(BinOp::Add, F->arrayRef(D, JRef), F->scalarRef(E))));
  F->setBody(Body);
  return F;
}

namespace {

std::vector<int64_t> conflictIndices(Rng &R, int64_t Trip,
                                     double ConflictProb, int64_t TableSize) {
  std::vector<int64_t> Idx(static_cast<size_t>(Trip));
  std::vector<int64_t> Recent;
  for (int64_t I = 0; I < Trip; ++I) {
    int64_t V;
    if (!Recent.empty() && R.nextBool(ConflictProb))
      V = Recent[R.nextBelow(Recent.size())];
    else
      V = static_cast<int64_t>(R.nextBelow(static_cast<uint64_t>(TableSize)));
    Idx[static_cast<size_t>(I)] = V;
    Recent.push_back(V);
    if (Recent.size() > 12)
      Recent.erase(Recent.begin());
  }
  return Idx;
}

} // namespace

core::WorkloadInstance
workloads::genScatterAccumInputs(const LoopFunction &F, Rng &R, int64_t Trip,
                                 int64_t Invocations, double ConflictProb,
                                 int64_t TableSize, bool Fp,
                                 unsigned ExtraCompute) {
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);

  int64_t Slices = std::min<int64_t>(Invocations, 48);
  int64_t Total = Trip * Slices;

  std::vector<int64_t> Idx(static_cast<size_t>(Total));
  for (int64_t S = 0; S < Slices; ++S) {
    std::vector<int64_t> SliceIdx =
        conflictIndices(R, Trip, ConflictProb, TableSize);
    std::copy(SliceIdx.begin(), SliceIdx.end(),
              Idx.begin() + static_cast<long>(S * Trip));
  }
  std::vector<int64_t> W(static_cast<size_t>(Total));
  for (auto &V : W)
    V = static_cast<int64_t>(R.nextBelow(16));
  std::vector<int64_t> Aux(static_cast<size_t>(Total));
  for (auto &V : Aux)
    V = static_cast<int64_t>(R.nextBelow(16));
  std::vector<int64_t> D(static_cast<size_t>(TableSize));
  for (auto &V : D)
    V = static_cast<int64_t>(R.nextBelow(64));

  uint64_t IdxBase = allocTyped(Alloc, Idx, /*Fp=*/false);
  uint64_t WBase = allocTyped(Alloc, W, Fp);
  uint64_t AuxBase = ExtraCompute ? allocTyped(Alloc, Aux, Fp) : 0;
  uint64_t DBase = allocTyped(Alloc, D, Fp);

  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    uint64_t Off = static_cast<uint64_t>((Inv % Slices) * Trip) * 4;
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = IdxBase + Off;
    B.ArrayBases[1] = WBase + Off;
    int NextArray = 2;
    if (ExtraCompute)
      B.ArrayBases[NextArray++] = AuxBase + Off;
    B.ArrayBases[NextArray] = DBase;
    B.setInt(0, Trip);
    Out.Invocations.push_back(B);
  }
  return Out;
}

// --- force -------------------------------------------------------------------===//

std::unique_ptr<LoopFunction>
workloads::buildForceLoop(const std::string &Name, bool Fp,
                          unsigned ExtraCompute) {
  ElemType Ty = Fp ? ElemType::F32 : ElemType::I32;
  auto F = std::make_unique<LoopFunction>(Name);
  int N = F->addScalar("n", ElemType::I64);
  int Best = F->addScalar("max_e", Ty, /*IsLiveOut=*/true);
  int BestIdx = F->addScalar("argmax", ElemType::I32, /*IsLiveOut=*/true);
  int E = F->addScalar("e", Ty);
  int J = F->addScalar("j", ElemType::I32);
  int W = F->addArray("w", Ty, /*ReadOnly=*/true);
  int Aux = ExtraCompute ? F->addArray("aux", Ty, true) : -1;
  int Idx = F->addArray("idx", ElemType::I32, true);
  int D = F->addArray("d", Ty);
  F->setTripCountScalar(N);

  std::vector<Stmt *> Body;
  Body.push_back(F->assignScalar(E, F->arrayRef(W, F->indexRef())));
  appendExtraCompute(*F, Body, E, Aux, Ty, ExtraCompute);
  Stmt *Guard = F->makeIfShell(
      F->compare(CmpKind::GT, F->scalarRef(E), F->scalarRef(Best)));
  F->addThen(Guard, F->assignScalar(Best, F->scalarRef(E)));
  F->addThen(Guard, F->assignScalar(BestIdx, F->indexRef()));
  Body.push_back(Guard);
  Body.push_back(F->assignScalar(J, F->arrayRef(Idx, F->indexRef())));
  const Expr *JRef = F->scalarRef(J);
  Body.push_back(F->storeArray(
      D, JRef,
      F->binary(BinOp::Add, F->arrayRef(D, JRef), F->scalarRef(E))));
  F->setBody(Body);
  return F;
}

core::WorkloadInstance
workloads::genForceInputs(const LoopFunction &F, Rng &R, int64_t Trip,
                          int64_t Invocations, double UpdateProb,
                          double ConflictProb, int64_t TableSize, bool Fp,
                          unsigned ExtraCompute) {
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);

  int64_t Slices = std::min<int64_t>(Invocations, 48);
  int64_t Total = Trip * Slices;

  std::vector<int64_t> Aux(static_cast<size_t>(Total));
  for (auto &V : Aux)
    V = static_cast<int64_t>(R.nextBelow(16));
  std::vector<int64_t> W(static_cast<size_t>(Total));
  std::vector<int64_t> Idx(static_cast<size_t>(Total));
  for (int64_t S = 0; S < Slices; ++S) {
    std::vector<int64_t> Targets =
        extremeTrace(R, Trip, UpdateProb, /*IsMin=*/false, 1 << 16);
    for (int64_t I = 0; I < Trip; ++I)
      W[static_cast<size_t>(S * Trip + I)] =
          Targets[static_cast<size_t>(I)] -
          extraSumOf(Aux, S * Trip + I, ExtraCompute);
    std::vector<int64_t> SliceIdx =
        conflictIndices(R, Trip, ConflictProb, TableSize);
    std::copy(SliceIdx.begin(), SliceIdx.end(),
              Idx.begin() + static_cast<long>(S * Trip));
  }
  std::vector<int64_t> D(static_cast<size_t>(TableSize));
  for (auto &V : D)
    V = static_cast<int64_t>(R.nextBelow(64));

  uint64_t WBase = allocTyped(Alloc, W, Fp);
  uint64_t AuxBase = ExtraCompute ? allocTyped(Alloc, Aux, Fp) : 0;
  uint64_t IdxBase = allocTyped(Alloc, Idx, /*Fp=*/false);
  uint64_t DBase = allocTyped(Alloc, D, Fp);

  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    uint64_t Off = static_cast<uint64_t>((Inv % Slices) * Trip) * 4;
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = WBase + Off;
    int NextArray = 1;
    if (ExtraCompute)
      B.ArrayBases[NextArray++] = AuxBase + Off;
    B.ArrayBases[NextArray++] = IdxBase + Off;
    B.ArrayBases[NextArray] = DBase;
    B.setInt(0, Trip);
    bindValue(B, F, 1, 1 << 16); // max_e seed
    B.setInt(2, -1);             // argmax
    Out.Invocations.push_back(B);
  }
  return Out;
}

// --- cond-gather & match ------------------------------------------------------===//

core::WorkloadInstance
workloads::genCondGatherInputs(const LoopFunction &F, Rng &R, int64_t Trip,
                               int64_t Invocations, double UpdateProb,
                               double OuterPassProb) {
  LoopInputs In = genH264Inputs(F, R, Trip, UpdateProb, OuterPassProb);
  core::WorkloadInstance Out;
  Out.Image = std::move(In.Image);
  Out.Invocations.assign(static_cast<size_t>(Invocations), In.B);
  return Out;
}

core::WorkloadInstance
workloads::genMatchInputs(const LoopFunction &F, Rng &R, int64_t MeanTrip,
                          int64_t Invocations) {
  core::WorkloadInstance Out;
  mem::BumpAllocator Alloc(Out.Image);

  constexpr int32_t MatchChar = 200;
  constexpr int32_t MatchVal = 999;
  std::vector<int32_t> Tab(256);
  for (size_t C = 0; C < Tab.size(); ++C)
    Tab[C] = static_cast<int32_t>(C) * 2;
  Tab[MatchChar] = MatchVal;

  // Corpus with matches planted at ~MeanTrip spacing; each invocation
  // resumes one element past the previous match.
  int64_t CorpusLen = Invocations * (2 * MeanTrip + 2) + 1024;
  std::vector<int32_t> Corpus(static_cast<size_t>(CorpusLen));
  for (auto &C : Corpus) {
    int32_t V = static_cast<int32_t>(R.nextBelow(256));
    C = V == MatchChar ? 17 : V;
  }
  std::vector<int64_t> MatchPos(static_cast<size_t>(Invocations));
  int64_t Pos = 0;
  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    int64_t Dist = 1 + static_cast<int64_t>(
                           R.nextBelow(static_cast<uint64_t>(2 * MeanTrip)));
    int64_t At = Pos + Dist;
    assert(At < CorpusLen);
    Corpus[static_cast<size_t>(At)] = MatchChar;
    MatchPos[static_cast<size_t>(Inv)] = At;
    Pos = At + 1;
  }

  uint64_t CorpusBase = Alloc.allocArray(Corpus);
  uint64_t TabBase = Alloc.allocArray(Tab);

  Pos = 0;
  for (int64_t Inv = 0; Inv < Invocations; ++Inv) {
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[0] = CorpusBase + static_cast<uint64_t>(Pos) * 4;
    B.ArrayBases[1] = TabBase;
    int64_t Remaining = CorpusLen - Pos;
    B.setInt(0, std::min<int64_t>(512, Remaining)); // length
    B.setInt(1, MatchVal);                          // val
    B.setInt(2, -1);                                // best_pos
    Out.Invocations.push_back(B);
    Pos = MatchPos[static_cast<size_t>(Inv)] + 1;
  }
  return Out;
}

// --- the 18 benchmarks ----------------------------------------------------===//

std::vector<Benchmark> workloads::buildAllBenchmarks(double IterationScale) {
  std::vector<Benchmark> Out;
  auto scaled = [IterationScale](int64_t V) {
    int64_t S = static_cast<int64_t>(static_cast<double>(V) * IterationScale);
    return std::max<int64_t>(1, S);
  };

  struct Row {
    const char *Name;
    const char *Group;
    KernelKind Kind;
    double Coverage;
    int64_t PaperTrip;
    double PaperSpeedup;
    const char *Mix;
    int64_t SimTrip;
    int64_t Invocations;
    bool Fp;
    unsigned Extra;
    bool Branchy;
    double DepProb;      // Update prob / conflict prob.
    double ConflictProb; // Force kernels only.
    int64_t TableSize;
  };

  const Row Rows[] = {
      {"401.bzip2", "SPEC", KernelKind::CondGather, 0.21, 4235, 1.10,
       "KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF", 4235, 6, false, 0, false,
       0.01, 0.06, 0},
      {"403.gcc", "SPEC", KernelKind::ArgExtreme, 0.041, 31000, 1.03,
       "KFTM, VPSLCTLAST", 20000, 2, false, 0, false, 0.004, 0, 0},
      {"445.gobmk", "SPEC", KernelKind::ArgExtreme, 0.068, 67, 1.04,
       "KFTM, VPSLCTLAST", 67, 360, false, 2, false, 0.03, 0, 0},
      {"458.sjeng", "SPEC", KernelKind::ArgExtreme, 0.072, 22, 1.04,
       "KFTM, VPSLCTLAST", 22, 1000, false, 2, false, 0.05, 0, 0},
      {"464.h264ref", "SPEC", KernelKind::CondGather, 0.602, 1089, 1.13,
       "KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF", 1089, 22, false, 0, false,
       0.06, 0.05, 0},
      {"473.astar", "SPEC", KernelKind::ScatterAccum, 0.365, 961, 1.16,
       "KFTM, VPCONFLICTM", 961, 25, false, 2, false, 0.02, 0, 4096},
      {"433.milc", "SPEC", KernelKind::ScatterAccum, 0.229, 160000, 1.10,
       "KFTM, VPCONFLICTM", 24000, 1, true, 5, false, 0.005, 0, 16384},
      {"435.gromacs", "SPEC", KernelKind::ScatterAccum, 0.495, 83, 1.11,
       "KFTM, VPCONFLICTM", 83, 290, true, 2, false, 0.06, 0, 2048},
      {"444.namd", "SPEC", KernelKind::ArgExtreme, 0.374, 157, 1.16,
       "KFTM, VPSLCTLAST", 157, 150, true, 1, false, 0.12, 0, 0},
      {"450.soplex", "SPEC", KernelKind::ArgExtreme, 0.13, 1422, 1.05,
       "KFTM, VPSLCTLAST", 1422, 17, true, 0, true, 0.02, 0, 0},
      {"454.calculix", "SPEC", KernelKind::ScatterAccum, 0.11, 4298, 1.08,
       "KFTM, VPCONFLICTM", 4298, 6, true, 4, false, 0.01, 0, 4096},
      {"LAMMPS", "APPS", KernelKind::Force, 0.66, 683, 1.13,
       "KFTM, VPSLCTLAST, VPCONFLICTM", 683, 35, true, 2, false, 0.04, 0.04,
       4096},
      {"GROMACS", "APPS", KernelKind::Force, 0.48, 512, 1.12,
       "KFTM, VPSLCTLAST, VPCONFLICTM", 512, 47, true, 2, false, 0.02, 0.02,
       2048},
      {"SSCA2", "APPS", KernelKind::Force, 0.595, 58000, 1.15,
       "KFTM, VPSLCTLAST, VPCONFLICTM", 24000, 1, false, 1, false, 0.01,
       0.01, 65536},
      {"MILC", "APPS", KernelKind::ScatterAccum, 0.12, 16000, 1.06,
       "KFTM, VPCONFLICTM", 16000, 2, true, 1, false, 0.005, 0, 4000000},
      {"BLAST", "APPS", KernelKind::Force, 0.191, 600, 1.09,
       "KFTM, VPSLCTLAST, VPCONFLICTM", 600, 40, false, 4, false, 0.02, 0.02,
       4096},
      {"GZIP", "APPS", KernelKind::Match, 0.467, 33, 1.10,
       "KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF", 33, 700, false, 0, false, 0,
       0, 0},
      {"ZLIB", "APPS", KernelKind::Match, 0.567, 54, 1.12,
       "KFTM, VPSLCTLAST, VPGATHERFF, VMOVFF", 54, 440, false, 0, false, 0,
       0, 0},
  };

  for (const Row &R : Rows) {
    Benchmark B;
    B.Name = R.Name;
    B.Group = R.Group;
    B.Kind = R.Kind;
    B.Coverage = R.Coverage;
    B.PaperTripCount = R.PaperTrip;
    B.PaperSpeedup = R.PaperSpeedup;
    B.PaperMix = R.Mix;

    switch (R.Kind) {
    case KernelKind::ArgExtreme:
      B.F = buildArgExtremeLoop(R.Name, R.Fp, R.Extra, R.Branchy);
      break;
    case KernelKind::CondGather:
      B.F = buildH264Loop();
      break;
    case KernelKind::Match:
      B.F = buildEarlyExitLoop();
      break;
    case KernelKind::ScatterAccum:
      B.F = buildScatterAccumLoop(R.Name, R.Fp, R.Extra);
      break;
    case KernelKind::Force:
      B.F = buildForceLoop(R.Name, R.Fp, R.Extra);
      break;
    case KernelKind::Affine:
    case KernelKind::GatherChain:
      unreachable("family kinds are built in KernelFamilies.cpp");
    }

    const LoopFunction *FPtr = B.F.get();
    Row RC = R;
    int64_t Invs = scaled(R.Invocations);
    B.Gen = [FPtr, RC, Invs](Rng &Rand) {
      switch (RC.Kind) {
      case KernelKind::ArgExtreme:
        return genArgExtremeInputs(*FPtr, Rand, RC.SimTrip, Invs, RC.DepProb,
                                   RC.Fp, RC.Extra, RC.Branchy);
      case KernelKind::CondGather:
        return genCondGatherInputs(*FPtr, Rand, RC.SimTrip, Invs, RC.DepProb,
                                   RC.ConflictProb);
      case KernelKind::Match:
        return genMatchInputs(*FPtr, Rand, RC.SimTrip, Invs);
      case KernelKind::ScatterAccum:
        return genScatterAccumInputs(*FPtr, Rand, RC.SimTrip, Invs,
                                     RC.DepProb, RC.TableSize, RC.Fp,
                                     RC.Extra);
      case KernelKind::Force:
        return genForceInputs(*FPtr, Rand, RC.SimTrip, Invs, RC.DepProb,
                              RC.ConflictProb, RC.TableSize, RC.Fp, RC.Extra);
      case KernelKind::Affine:
      case KernelKind::GatherChain:
        break; // Family kinds generate inputs in KernelFamilies.cpp.
      }
      unreachable("unknown kernel kind");
    };
    Out.push_back(std::move(B));
  }
  return Out;
}
