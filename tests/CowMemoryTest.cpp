//===- tests/CowMemoryTest.cpp - COW clone equivalence ---------------------===//
//
// Differential acceptance tests for copy-on-write memory images: a run
// against a COW clone() must be observationally identical — memory
// fingerprint, live-outs, fault behaviour — to the same run against an
// eager deepClone(), across the checked-in loop corpus and under injected
// memory faults. The shared base image must survive every run (including
// faulting ones) byte-for-byte untouched.
//
//===----------------------------------------------------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "faults/FaultInjector.h"
#include "ir/Parser.h"
#include "support/Hash.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace flexvec;
using namespace flexvec::ir;

namespace {

//===----------------------------------------------------------------------===//
// Unit-level COW semantics.
//===----------------------------------------------------------------------===//

TEST(CowMemory, WriteThroughCloneCopiesPageAndPreservesBase) {
  mem::Memory Base;
  Base.map(0x1000, 2 * mem::PageSize);
  Base.set<int32_t>(0x1000, 111);
  Base.set<int32_t>(0x2000, 222);
  uint64_t BaseFp = Base.fingerprint();

  mem::Memory Clone = Base.clone();
  EXPECT_EQ(Clone.stats().CowCopies, 0u) << "clone() must not copy pages";
  EXPECT_TRUE(Clone.contentsEqual(Base));
  EXPECT_EQ(Clone.fingerprint(), BaseFp);

  // First write through the clone copies exactly the touched page.
  Clone.set<int32_t>(0x1000, 999);
  EXPECT_EQ(Clone.stats().CowCopies, 1u);
  EXPECT_EQ(Clone.get<int32_t>(0x1000), 999);
  EXPECT_EQ(Base.get<int32_t>(0x1000), 111) << "base must not see the write";
  EXPECT_EQ(Base.fingerprint(), BaseFp);

  // The page is now exclusively owned: further writes copy nothing.
  Clone.set<int32_t>(0x1004, 7);
  EXPECT_EQ(Clone.stats().CowCopies, 1u);

  // Writes through the *base* to a still-shared page copy on the base's
  // side, leaving the clone's view intact.
  Base.set<int32_t>(0x2000, 333);
  EXPECT_EQ(Base.stats().CowCopies, 1u);
  EXPECT_EQ(Clone.get<int32_t>(0x2000), 222);
}

TEST(CowMemory, CloneOfCloneSharesUntouchedPages) {
  mem::Memory Base;
  Base.map(0x1000, 4 * mem::PageSize);
  for (uint64_t P = 0; P < 4; ++P)
    Base.set<int64_t>(0x1000 + P * mem::PageSize, static_cast<int64_t>(P));
  uint64_t BaseFp = Base.fingerprint();

  mem::Memory A = Base.clone();
  mem::Memory B = A.clone();
  B.set<int64_t>(0x1000, 99);
  EXPECT_EQ(B.stats().CowCopies, 1u);
  EXPECT_EQ(A.get<int64_t>(0x1000), 0);
  EXPECT_EQ(Base.fingerprint(), BaseFp);
  EXPECT_TRUE(A.contentsEqual(Base));
}

TEST(CowMemory, FaultingWriteNeitherCopiesNorMutates) {
  mem::Memory Base;
  Base.map(0x1000, mem::PageSize); // seed contents while writable
  Base.set<int32_t>(0x1000, 77);
  Base.map(0x1000, mem::PageSize, mem::PermRead); // then drop write perm
  uint64_t BaseFp = Base.fingerprint();

  mem::Memory Clone = Base.clone();
  int32_t V = 123;
  mem::AccessResult R = Clone.write(0x1000, &V, sizeof(V));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.FaultAddr, 0x1000u);
  EXPECT_EQ(Clone.stats().CowCopies, 0u)
      << "a faulting write must not trigger the COW copy";
  EXPECT_EQ(Clone.fingerprint(), BaseFp);
  EXPECT_EQ(Base.fingerprint(), BaseFp);
}

TEST(CowMemory, StraddlingFaultingWriteHasNoPartialEffect) {
  mem::Memory Base;
  Base.map(0x1000, mem::PageSize);                // writable page
  Base.map(0x2000, mem::PageSize, mem::PermRead); // read-only neighbour
  uint64_t BaseFp = Base.fingerprint();

  mem::Memory Clone = Base.clone();
  // 8-byte write straddling into the read-only page: must fault without
  // copying or modifying the writable first page.
  int64_t V = -1;
  mem::AccessResult R = Clone.write(0x2000 - 4, &V, sizeof(V));
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(Clone.stats().CowCopies, 0u);
  EXPECT_EQ(Clone.fingerprint(), BaseFp);
  EXPECT_EQ(Base.fingerprint(), BaseFp);
}

//===----------------------------------------------------------------------===//
// Corpus differential: COW-cloned vs deep-cloned execution.
//===----------------------------------------------------------------------===//

uint64_t hashCombine(uint64_t H, uint64_t V) {
  H ^= V + 0x9e3779b97f4a7c15ULL + (H << 6) + (H >> 2);
  return H;
}

struct MultiRun {
  bool Ok = true;
  uint64_t Fp = 0;
  uint64_t LiveOutHash = 0;
  uint64_t CowCopies = 0;
};

/// Mirror of core::runProgramMulti that executes against \p Img in place
/// (no internal clone), so the caller chooses the cloning strategy.
MultiRun runInvocationsOn(const LoopFunction &F,
                          const codegen::CompiledLoop &CL, mem::Memory &Img,
                          const std::vector<Bindings> &Invocations,
                          faults::FaultInjector *Inj = nullptr) {
  MultiRun Out;
  emu::Machine Mach(Img);
  if (Inj)
    Inj->arm(Img, &Mach.tx());
  for (const Bindings &B : Invocations) {
    Mach.resetRegisters();
    for (size_t S = 0; S < B.ScalarValues.size(); ++S)
      Mach.setScalar(codegen::scalarParamReg(static_cast<int>(S)).Index,
                     B.ScalarValues[S]);
    for (size_t A = 0; A < B.ArrayBases.size(); ++A)
      Mach.setScalar(codegen::arrayBaseReg(static_cast<int>(A)).Index,
                     static_cast<int64_t>(B.ArrayBases[A]));
    emu::ExecResult R = Mach.run(CL.Prog);
    if (R.Reason != emu::StopReason::Halted) {
      Out.Ok = false;
      break;
    }
    for (size_t S = 0; S < F.scalars().size(); ++S)
      if (F.scalar(S).IsLiveOut)
        Out.LiveOutHash = hashCombine(
            Out.LiveOutHash,
            static_cast<uint64_t>(Mach.getScalar(
                codegen::scalarParamReg(static_cast<int>(S)).Index)));
  }
  Out.Fp = Img.fingerprint();
  Out.CowCopies = Img.stats().CowCopies;
  return Out;
}

/// Parses a corpus loop, builds inputs by the corpus naming conventions
/// (same as FuzzDifferentialTest), and returns the prepared pieces.
struct CorpusCase {
  std::unique_ptr<LoopFunction> F;
  driver::CompileResult PR;
  mem::Memory Image;
  std::vector<Bindings> Invocations;
};

CorpusCase buildCorpusCase(const std::string &Name) {
  CorpusCase C;
  std::string Path =
      std::string(FLEXVEC_SOURCE_DIR) + "/tests/corpus/" + Name + ".fv";
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot read " << Path;
  std::ostringstream SS;
  SS << In.rdbuf();
  ir::ParseResult P = ir::parseLoop(SS.str());
  EXPECT_TRUE(P) << Path << ": " << P.Error;
  C.F = std::move(P.F);
  LoopFunction &F = *C.F;
  C.PR = driver::compileLoop(F, {.RtmTile = 64});

  Rng R(fnv1a64(Name));
  int64_t Len = 512;
  mem::BumpAllocator Alloc(C.Image);
  Bindings B = Bindings::forFunction(F);
  for (size_t A = 0; A < F.arrays().size(); ++A) {
    const ArrayParam &AP = F.arrays()[A];
    std::vector<int32_t> Data(static_cast<size_t>(Len));
    for (auto &V : Data) {
      if (AP.Name.rfind("idx", 0) == 0)
        V = static_cast<int32_t>(R.nextBelow(64));
      else
        V = static_cast<int32_t>(R.nextInRange(-100, 100));
    }
    B.ArrayBases[static_cast<int>(A)] = Alloc.allocArray(Data);
  }
  // Three invocations with varying trip counts; scalar state is re-seeded
  // per invocation, array mutations carry across (like repeated hot-loop
  // calls).
  for (int I = 0; I < 3; ++I) {
    Bindings Inv = B;
    int64_t Trip = 1 + static_cast<int64_t>(R.nextBelow(400));
    for (size_t S = 0; S < F.scalars().size(); ++S) {
      int Id = static_cast<int>(S);
      if (Id == F.tripCountScalar())
        Inv.setInt(Id, Trip);
      else if (F.scalar(S).Name == "best")
        Inv.setInt(Id, 1 << 20);
      else if (F.scalar(S).Name == "sentinel")
        Inv.setInt(Id, 7);
      else
        Inv.setInt(Id, static_cast<int32_t>(R.nextInRange(-20, 20)));
    }
    C.Invocations.push_back(std::move(Inv));
  }
  return C;
}

class CowCorpusDifferential : public ::testing::TestWithParam<const char *> {};

TEST_P(CowCorpusDifferential, CowAndDeepClonesAgree) {
  CorpusCase C = buildCorpusCase(GetParam());
  LoopFunction &F = *C.F;
  uint64_t BaseFp = C.Image.fingerprint();

  auto checkVariant = [&](const char *VName,
                          const codegen::CompiledLoop &CL) {
    mem::Memory Cow = C.Image.clone();
    mem::Memory Deep = C.Image.deepClone();
    MultiRun A = runInvocationsOn(F, CL, Cow, C.Invocations);
    MultiRun B = runInvocationsOn(F, CL, Deep, C.Invocations);
    EXPECT_EQ(A.Ok, B.Ok) << GetParam() << " " << VName;
    EXPECT_EQ(A.Fp, B.Fp)
        << GetParam() << " " << VName << ": COW image diverged from deep";
    EXPECT_EQ(A.LiveOutHash, B.LiveOutHash) << GetParam() << " " << VName;
    EXPECT_EQ(B.CowCopies, 0u)
        << "deepClone shares nothing, so it must never COW-copy";

    // The production entry point (which clones internally) agrees too.
    core::RunOutcome Out =
        core::runProgramMulti(F, CL, C.Image, C.Invocations);
    EXPECT_EQ(Out.MemFingerprint, A.Fp) << GetParam() << " " << VName;
    EXPECT_EQ(Out.LiveOutHash, A.LiveOutHash) << GetParam() << " " << VName;

    // The shared base image survives every run untouched.
    EXPECT_EQ(C.Image.fingerprint(), BaseFp)
        << GetParam() << " " << VName << ": run mutated the base image";
  };

  checkVariant("scalar", C.PR.Scalar);
  if (C.PR.Traditional)
    checkVariant("traditional", *C.PR.Traditional);
  if (C.PR.Speculative)
    checkVariant("speculative", *C.PR.Speculative);
  if (C.PR.FlexVec)
    checkVariant("flexvec", *C.PR.FlexVec);
  if (C.PR.Rtm)
    checkVariant("flexvec-rtm", *C.PR.Rtm);
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CowCorpusDifferential,
    ::testing::Values("argmin_key2", "find_sentinel", "histogram_weighted",
                      "exit_then_update", "masked_else", "update_conflict"));

// COW must actually trigger across the corpus (stores exist in several
// loops): otherwise the differential above proves nothing about the copy
// path.
TEST(CowCorpusDifferential, CorpusExercisesTheCopyPath) {
  uint64_t TotalCopies = 0;
  for (const char *Name :
       {"argmin_key2", "find_sentinel", "histogram_weighted",
        "exit_then_update", "masked_else", "update_conflict"}) {
    CorpusCase C = buildCorpusCase(Name);
    mem::Memory Cow = C.Image.clone();
    MultiRun A = runInvocationsOn(*C.F, C.PR.Scalar, Cow, C.Invocations);
    EXPECT_TRUE(A.Ok) << Name;
    TotalCopies += A.CowCopies;
  }
  EXPECT_GT(TotalCopies, 0u) << "no corpus run ever wrote a shared page";
}

//===----------------------------------------------------------------------===//
// Fault injection: faulting runs against a COW clone leave the shared
// base pristine, and behave identically to the same faults against a deep
// clone.
//===----------------------------------------------------------------------===//

TEST(CowFaultDifferential, InjectedFaultsNeverLeakIntoTheSharedBase) {
  for (const char *Name : {"histogram_weighted", "update_conflict"}) {
    CorpusCase C = buildCorpusCase(Name);
    uint64_t BaseFp = C.Image.fingerprint();
    // Persistent faults over the first page of every array, at a
    // probability high enough that some run faults and low enough that
    // some complete.
    for (uint64_t Seed : {11u, 22u, 33u}) {
      faults::MemFaultPlan Plan;
      Plan.Seed = Seed;
      for (uint64_t Base : C.Invocations[0].ArrayBases)
        Plan.Ranges.push_back({Base, Base + mem::PageSize, /*Prob=*/0.05,
                               faults::FaultDuration::Persistent});

      faults::FaultInjector InjCow(Plan);
      faults::FaultInjector InjDeep(Plan);
      mem::Memory Cow = C.Image.clone();
      mem::Memory Deep = C.Image.deepClone();
      MultiRun A =
          runInvocationsOn(*C.F, C.PR.Scalar, Cow, C.Invocations, &InjCow);
      MultiRun B =
          runInvocationsOn(*C.F, C.PR.Scalar, Deep, C.Invocations, &InjDeep);

      // Same fault schedule against the same access sequence: identical
      // outcome, whether pages were shared or eagerly copied.
      EXPECT_EQ(A.Ok, B.Ok) << Name << " seed " << Seed;
      EXPECT_EQ(A.Fp, B.Fp) << Name << " seed " << Seed;
      EXPECT_EQ(A.LiveOutHash, B.LiveOutHash) << Name << " seed " << Seed;
      EXPECT_EQ(InjCow.stats().MemFaultsInjected,
                InjDeep.stats().MemFaultsInjected)
          << Name << " seed " << Seed;

      // Whatever happened — completed, faulted mid-run, partial writes
      // before the fault — the shared base never changes.
      EXPECT_EQ(C.Image.fingerprint(), BaseFp)
          << Name << " seed " << Seed << ": faulting run mutated the base";
    }
  }
}

} // namespace
