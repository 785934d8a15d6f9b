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

#include <atomic>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

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
// The fingerprint contract: equal images give equal fingerprints whichever
// pages are shared and whichever were copied, and every in-place write
// shows, including on pages that other images shared earlier. Any future
// per-page hash cache must keep these.
//===----------------------------------------------------------------------===//

mem::Memory patternImage(uint64_t Pages) {
  mem::Memory M;
  M.map(0x10000, Pages * mem::PageSize);
  for (uint64_t P = 0; P < Pages; ++P)
    for (uint64_t W = 0; W < 8; ++W)
      M.set<uint64_t>(0x10000 + P * mem::PageSize + W * 512, P * 131 + W);
  return M;
}

/// The fingerprint of an image that shares no page with any other.
uint64_t freshFingerprint(const mem::Memory &M) {
  return M.deepClone().fingerprint();
}

TEST(Fingerprint, SharedAndCopiedPagesHashAlike) {
  mem::Memory Base = patternImage(4);
  const uint64_t Fp = freshFingerprint(Base);
  mem::Memory A = Base.clone();
  EXPECT_EQ(A.fingerprint(), Fp);
  EXPECT_EQ(Base.fingerprint(), Fp);

  // COW-copy a page, then put its original bytes back: equal contents, so
  // an equal fingerprint although one page is now private.
  mem::Memory B = Base.clone();
  const uint64_t Addr = 0x10000 + 2 * mem::PageSize;
  const uint64_t Old = B.get<uint64_t>(Addr);
  B.set<uint64_t>(Addr, Old + 1);
  EXPECT_EQ(B.stats().CowCopies, 1u);
  EXPECT_NE(B.fingerprint(), Fp);
  B.set<uint64_t>(Addr, Old);
  EXPECT_TRUE(B.contentsEqual(Base));
  EXPECT_EQ(B.fingerprint(), Fp);
  EXPECT_EQ(A.fingerprint(), Fp);
  EXPECT_EQ(Base.fingerprint(), Fp);
}

TEST(Fingerprint, FingerprintCoversIndicesPermissionsAndBytes) {
  mem::Memory A = patternImage(2);
  mem::Memory Moved;
  Moved.map(0x10000 + mem::PageSize, 2 * mem::PageSize);
  EXPECT_NE(A.fingerprint(), Moved.fingerprint());
  mem::Memory Zero;
  Zero.map(0x10000, 2 * mem::PageSize);
  EXPECT_NE(Zero.fingerprint(), Moved.fingerprint()) << "page indices";
  mem::Memory ReadOnly;
  ReadOnly.map(0x10000, 2 * mem::PageSize, mem::PermRead);
  EXPECT_NE(Zero.fingerprint(), ReadOnly.fingerprint()) << "permissions";
  // Swapping two words moves them between hash lanes and positions.
  mem::Memory Swapped = Zero.deepClone();
  Zero.set<uint64_t>(0x10000, 1);
  Zero.set<uint64_t>(0x10008, 2);
  Swapped.set<uint64_t>(0x10000, 2);
  Swapped.set<uint64_t>(0x10008, 1);
  EXPECT_NE(Zero.fingerprint(), Swapped.fingerprint()) << "word order";
  // Two sign flips of odd-indexed f32 elements flip bit 63 of two words.
  // A plain xor-multiply chain keeps the first flip in bit 63 alone, and
  // the second one cancels it.
  mem::Memory Flipped = Swapped.deepClone();
  Flipped.set<uint64_t>(0x10040, uint64_t(1) << 63);
  Flipped.set<uint64_t>(0x10080, uint64_t(1) << 63);
  EXPECT_NE(Flipped.fingerprint(), Swapped.fingerprint()) << "paired flips";
}

/// Fingerprints \p Base and a clone while they share every page, destroys
/// the clone so \p Base owns its pages alone again, applies \p Mutate in
/// place and checks that both \p Base and a later clone see the change.
template <typename Fn>
void expectInPlaceWriteSeen(const char *What, Fn &&Mutate) {
  mem::Memory Base = patternImage(3);
  const uint64_t Before = Base.fingerprint();
  {
    mem::Memory Clone = Base.clone();
    EXPECT_EQ(Clone.fingerprint(), Before) << What;
    EXPECT_EQ(Base.fingerprint(), Before) << What;
  }
  Mutate(Base);
  EXPECT_EQ(Base.stats().CowCopies, 0u) << What << ": must write in place";
  const uint64_t After = freshFingerprint(Base);
  EXPECT_NE(After, Before) << What;
  EXPECT_EQ(Base.fingerprint(), After) << What;
  mem::Memory Clone = Base.clone();
  EXPECT_EQ(Clone.fingerprint(), After) << What << ": stale fingerprint";
  EXPECT_EQ(Base.fingerprint(), After) << What;
}

TEST(Fingerprint, SoleOwnerInPlaceWritesInvalidate) {
  const uint64_t Addr = 0x10000 + mem::PageSize + 64;
  expectInPlaceWriteSeen("write", [&](mem::Memory &M) {
    uint32_t V = 0xdead;
    ASSERT_TRUE(M.write(Addr, &V, sizeof(V)).Ok);
  });
  expectInPlaceWriteSeen("poke", [&](mem::Memory &M) {
    uint32_t V = 0xbeef;
    ASSERT_TRUE(M.poke(Addr, &V, sizeof(V)).Ok);
  });
  expectInPlaceWriteSeen("straddling write", [&](mem::Memory &M) {
    uint64_t V = ~0ULL;
    ASSERT_TRUE(M.write(0x10000 + 2 * mem::PageSize - 4, &V, 8).Ok);
  });
  expectInPlaceWriteSeen("span", [&](mem::Memory &M) {
    uint8_t *P = M.spanForWrite(Addr, 16, 4);
    ASSERT_NE(P, nullptr);
    std::memset(P, 0x5a, 16);
  });
  expectInPlaceWriteSeen("map() permission change", [&](mem::Memory &M) {
    M.map(0x10000 + mem::PageSize, mem::PageSize, mem::PermRead);
  });
}

// Clones of one published base fingerprinted from four threads at once,
// each also copying and rewriting pages of its own. Under TSan this checks
// that fingerprinting shared pages is race-free.
TEST(Fingerprint, ConcurrentClonesOfOneBase) {
  constexpr int Threads = 4;
  constexpr int Rounds = 25;
  const mem::Memory Base = patternImage(16);
  uint64_t Want[Threads];
  for (int T = 0; T < Threads; ++T) {
    mem::Memory M = Base.deepClone();
    M.set<uint64_t>(0x10000 + T * mem::PageSize, 1000 + T);
    Want[T] = M.fingerprint();
  }
  const uint64_t BaseFp = freshFingerprint(Base);
  std::atomic<int> Mismatches{0};
  std::vector<std::thread> Pool;
  for (int T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (int R = 0; R < Rounds; ++R) {
        mem::Memory C = Base.clone();
        if (C.fingerprint() != BaseFp)
          ++Mismatches;
        C.set<uint64_t>(0x10000 + T * mem::PageSize, 1000 + T);
        if (C.fingerprint() != Want[T])
          ++Mismatches;
      }
    });
  for (std::thread &Th : Pool)
    Th.join();
  EXPECT_EQ(Mismatches.load(), 0);
  EXPECT_EQ(freshFingerprint(Base), BaseFp);
}

//===----------------------------------------------------------------------===//
// Page table and TLB semantics. mem.tlb.* and mem.cow.page_copies are
// payload metrics, so these scripted sequences pin the exact counts the
// 64-entry direct-mapped TLB books, whatever structure sits behind it.
//===----------------------------------------------------------------------===//

constexpr uint64_t pageAddr(uint64_t PageIdx) {
  return PageIdx * mem::PageSize;
}

void expectStats(const mem::Memory &M, uint64_t Hits, uint64_t Misses,
                 uint64_t Copies, const char *Where) {
  EXPECT_EQ(M.stats().TlbHits, Hits) << Where;
  EXPECT_EQ(M.stats().TlbMisses, Misses) << Where;
  EXPECT_EQ(M.stats().CowCopies, Copies) << Where;
}

bool readOk(const mem::Memory &M, uint64_t Addr) {
  int32_t V;
  return M.read(Addr, &V, sizeof(V)).Ok;
}

TEST(PageTable, DirectMappedConflictsEvict) {
  mem::Memory M;
  // Pages 16 and 80 share TLB set 16.
  M.map(pageAddr(16), mem::PageSize);
  M.map(pageAddr(80), mem::PageSize);
  EXPECT_TRUE(readOk(M, pageAddr(16)));      // miss, install 16
  EXPECT_TRUE(readOk(M, pageAddr(16) + 8));  // hit
  EXPECT_TRUE(readOk(M, pageAddr(80)));      // miss, evicts 16
  EXPECT_TRUE(readOk(M, pageAddr(16)));      // miss again
  EXPECT_TRUE(readOk(M, pageAddr(16) + 64)); // hit
  expectStats(M, 2, 3, 0, "conflicting pages");
}

TEST(PageTable, NegativeLookupsAreNotCached) {
  mem::Memory M;
  M.map(pageAddr(16), mem::PageSize);
  EXPECT_TRUE(readOk(M, pageAddr(16)));  // miss, install 16 in set 16
  EXPECT_FALSE(readOk(M, pageAddr(30))); // miss, unmapped
  EXPECT_FALSE(readOk(M, pageAddr(30))); // miss again: not cached
  EXPECT_FALSE(readOk(M, pageAddr(80))); // miss; set 16 keeps page 16
  EXPECT_TRUE(readOk(M, pageAddr(16)));  // hit
  expectStats(M, 1, 4, 0, "negative lookups");

  M.map(pageAddr(30), mem::PageSize);
  EXPECT_TRUE(readOk(M, pageAddr(30))); // miss, install
  EXPECT_TRUE(readOk(M, pageAddr(30))); // hit
  expectStats(M, 2, 5, 0, "after mapping the missing page");
}

TEST(PageTable, UnmapFlushesTheWholeTlb) {
  mem::Memory M;
  M.map(pageAddr(16), 2 * mem::PageSize);
  EXPECT_TRUE(readOk(M, pageAddr(16)));
  EXPECT_TRUE(readOk(M, pageAddr(17)));
  M.unmap(pageAddr(17), mem::PageSize);
  EXPECT_TRUE(readOk(M, pageAddr(16)));  // miss: the unmap flushed set 16
  EXPECT_FALSE(readOk(M, pageAddr(17))); // miss, now unmapped
  EXPECT_TRUE(readOk(M, pageAddr(16)));  // hit
  expectStats(M, 1, 4, 0, "unmap");
  EXPECT_EQ(M.numPages(), 1u);
}

TEST(PageTable, CloneStartsWithAColdTlbAndFreshStats) {
  mem::Memory Base;
  Base.map(pageAddr(16), mem::PageSize);
  Base.set<int32_t>(pageAddr(16), 5); // miss
  mem::Memory Clone = Base.clone();
  expectStats(Clone, 0, 0, 0, "fresh clone");
  EXPECT_TRUE(readOk(Clone, pageAddr(16))); // miss: cold TLB
  EXPECT_EQ(Clone.get<int32_t>(pageAddr(16)), 5); // hit
  Clone.set<int32_t>(pageAddr(16), 6);            // hit + COW copy
  Clone.set<int32_t>(pageAddr(16) + 4, 7);        // hit, already owned
  EXPECT_EQ(Clone.get<int32_t>(pageAddr(16)), 6); // hit on the copy
  expectStats(Clone, 4, 1, 1, "clone");
  EXPECT_EQ(Base.get<int32_t>(pageAddr(16)), 5); // base TLB still warm
  expectStats(Base, 1, 1, 0, "base");
}

TEST(PageTable, TlbEntriesSurviveAMove) {
  mem::Memory M;
  M.map(pageAddr(16), mem::PageSize);
  M.set<int32_t>(pageAddr(16), 9); // miss
  mem::Memory N(std::move(M));
  EXPECT_EQ(N.get<int32_t>(pageAddr(16)), 9); // hit: entry moved along
  expectStats(N, 1, 1, 0, "move-constructed");
  mem::Memory O;
  O = std::move(N);
  EXPECT_EQ(O.get<int32_t>(pageAddr(16)), 9); // hit
  expectStats(O, 2, 1, 0, "move-assigned");
  EXPECT_EQ(M.numPages(), 0u);
  EXPECT_EQ(N.numPages(), 0u);
  expectStats(N, 0, 0, 0, "moved-from");
}

TEST(PageTable, MapAfterAccessesKeepsCachedEntries) {
  mem::Memory M;
  M.map(pageAddr(16), mem::PageSize);
  M.map(pageAddr(40), mem::PageSize);
  M.set<int32_t>(pageAddr(16), 1); // miss
  M.set<int32_t>(pageAddr(40), 2); // miss
  // New pages below, between and above the cached ones: map() neither
  // flushes nor books anything, and the cached entries still see their
  // own pages' bytes.
  M.map(pageAddr(2), 3 * mem::PageSize);
  M.map(pageAddr(20), mem::PageSize);
  M.map(pageAddr(100), 8 * mem::PageSize);
  expectStats(M, 0, 2, 0, "map adds no lookups");
  EXPECT_EQ(M.get<int32_t>(pageAddr(16)), 1); // hit
  EXPECT_EQ(M.get<int32_t>(pageAddr(40)), 2); // hit
  EXPECT_EQ(M.get<int32_t>(pageAddr(20)), 0); // miss, zero-filled
  expectStats(M, 2, 3, 0, "after the new pages");
  EXPECT_EQ(M.numPages(), 14u);

  // Re-mapping an existing page only changes its permissions; the entry
  // stays cached, so the faulting write books a hit.
  M.map(pageAddr(16), mem::PageSize, mem::PermRead);
  int32_t V = 3;
  EXPECT_FALSE(M.write(pageAddr(16), &V, sizeof(V)).Ok); // hit, faults
  EXPECT_EQ(M.get<int32_t>(pageAddr(16)), 1);            // hit
  expectStats(M, 4, 3, 0, "permission change");
}

TEST(PageTable, PermissionChangeOnASharedPageCopiesIt) {
  mem::Memory Base;
  Base.map(pageAddr(16), mem::PageSize);
  Base.set<int32_t>(pageAddr(16), 7);
  mem::Memory Clone = Base.clone();
  EXPECT_TRUE(readOk(Clone, pageAddr(16)));              // miss
  Clone.map(pageAddr(16), mem::PageSize, mem::PermRead); // COW copy
  EXPECT_EQ(Clone.get<int32_t>(pageAddr(16)), 7);        // hit, the copy
  int32_t V = 3;
  EXPECT_FALSE(Clone.write(pageAddr(16), &V, sizeof(V)).Ok); // hit
  expectStats(Clone, 2, 1, 1, "clone");
  EXPECT_TRUE(Base.write(pageAddr(16), &V, sizeof(V)).Ok); // base keeps RW
  EXPECT_EQ(Base.stats().CowCopies, 0u) << "the clone copied, not the base";
}

TEST(PageTable, StraddlingAccessesValidateThenCopy) {
  mem::Memory M;
  M.map(pageAddr(16), 2 * mem::PageSize);
  int64_t V = 0x0102030405060708LL;
  // A straddling access looks up both pages to validate, then both again
  // to copy: miss, miss, hit, hit.
  EXPECT_TRUE(M.write(pageAddr(17) - 4, &V, sizeof(V)).Ok);
  expectStats(M, 2, 2, 0, "straddling write");
  int64_t Out = 0;
  EXPECT_TRUE(M.read(pageAddr(17) - 4, &Out, sizeof(Out)).Ok);
  EXPECT_EQ(Out, V);
  expectStats(M, 6, 2, 0, "straddling read");
  EXPECT_TRUE(M.isAccessible(pageAddr(16), 3 * mem::PageSize, mem::PermRead) ==
              false); // hit, hit, miss on page 18
  expectStats(M, 8, 3, 0, "isAccessible");
}

TEST(PageTable, FarPageBesideLowPages) {
  // The adaptive dispatch cell sits at 1<<40; its page shares TLB set 0
  // with page 64.
  const uint64_t Far = uint64_t(1) << 40;
  mem::Memory M;
  M.map(pageAddr(16), mem::PageSize);
  M.map(pageAddr(64), mem::PageSize);
  M.set<int32_t>(pageAddr(16), 1); // miss
  M.map(Far, 64);
  M.set<int64_t>(Far + 8, 42);     // miss
  EXPECT_EQ(M.get<int32_t>(pageAddr(16)), 1); // hit
  EXPECT_TRUE(readOk(M, pageAddr(64)));       // miss, evicts the far page
  EXPECT_EQ(M.get<int64_t>(Far + 8), 42);     // miss
  EXPECT_EQ(M.get<int64_t>(Far + 8), 42);     // hit
  expectStats(M, 2, 4, 0, "far page");
  EXPECT_EQ(M.numPages(), 3u);
  M.unmap(Far, 64);
  EXPECT_EQ(M.get<int32_t>(pageAddr(16)), 1); // miss: flushed
  EXPECT_FALSE(readOk(M, Far));               // miss, unmapped
  expectStats(M, 2, 6, 0, "after unmapping the far page");
  EXPECT_EQ(M.numPages(), 2u);
}

TEST(PageTable, SpansBookWhatTheirAccessesWould) {
  mem::Memory Base;
  Base.map(pageAddr(16), 2 * mem::PageSize);
  mem::Memory M = Base.clone();
  // Read span on a cold TLB: one miss plus Accesses-1 hits.
  EXPECT_NE(M.spanForRead(pageAddr(16), 64, 16), nullptr);
  expectStats(M, 15, 1, 0, "read span, miss");
  // Write span on the cached page: hits plus the COW copy.
  EXPECT_NE(M.spanForWrite(pageAddr(16), 64, 16), nullptr);
  expectStats(M, 31, 1, 1, "write span, hit");
  // Ineligible spans book nothing: a straddle, an unmapped page.
  EXPECT_EQ(M.spanForRead(pageAddr(17) - 4, 8, 2), nullptr);
  EXPECT_EQ(M.spanForWrite(pageAddr(40), 8, 2), nullptr);
  expectStats(M, 31, 1, 1, "ineligible spans");
  // Write span on a cold page: a miss, hits and a copy.
  EXPECT_NE(M.spanForWrite(pageAddr(17), 32, 8), nullptr);
  expectStats(M, 38, 2, 2, "write span, miss");
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
