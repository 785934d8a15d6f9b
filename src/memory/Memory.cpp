//===- memory/Memory.cpp --------------------------------------------------===//

#include "memory/Memory.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <algorithm>
#include <cassert>
#include <mutex>

// Pooled page blocks stay poisoned under AddressSanitizer, so a stale page
// pointer is still reported as a use after free.
#ifdef __SANITIZE_ADDRESS__
#include <sanitizer/asan_interface.h>
#else
#define ASAN_POISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#define ASAN_UNPOISON_MEMORY_REGION(Addr, Size) ((void)(Addr), (void)(Size))
#endif

using namespace flexvec;
using namespace flexvec::mem;

FaultHook::~FaultHook() = default;

namespace {

/// Allocator behind every page: single blocks freed by destroyed pages are
/// kept and handed to the next page instead of going back to malloc. A
/// clone's COW copies are freed together when the clone dies, and glibc
/// would return that stretch of heap to the OS, so the next clone's
/// copies would fault every page in afresh. Blocks in the pool plus blocks
/// in use never exceed the most pages ever live at once, so recycling does
/// not raise the peak; MaxPooled bounds what an idle process keeps.
template <typename T> class PageBlockAllocator {
public:
  using value_type = T;

  PageBlockAllocator() = default;
  template <typename U> PageBlockAllocator(const PageBlockAllocator<U> &) {}

  T *allocate(size_t N) {
    if (N == 1) {
      Pool &P = pool();
      std::lock_guard<std::mutex> L(P.Lock);
      if (!P.Blocks.empty()) {
        void *B = P.Blocks.back();
        P.Blocks.pop_back();
        ASAN_UNPOISON_MEMORY_REGION(B, sizeof(T));
        return static_cast<T *>(B);
      }
    }
    return std::allocator<T>().allocate(N);
  }

  void deallocate(T *B, size_t N) {
    if (N == 1) {
      Pool &P = pool();
      std::lock_guard<std::mutex> L(P.Lock);
      if (P.Blocks.size() < MaxPooled) {
        P.Blocks.push_back(B);
        ASAN_POISON_MEMORY_REGION(B, sizeof(T));
        return;
      }
    }
    std::allocator<T>().deallocate(B, N);
  }

  template <typename U> bool operator==(const PageBlockAllocator<U> &) const {
    return true;
  }

private:
  static constexpr size_t MaxPooled = 8192; // ~33 MB of 4 KB pages

  struct Pool {
    std::mutex Lock;
    std::vector<void *> Blocks;
  };
  /// Never destroyed: images in static storage may free pages during exit.
  static Pool &pool() {
    static Pool *P = new Pool;
    return *P;
  }
};

} // namespace

Memory::PageRef Memory::newPage(uint8_t Perms) {
  // Value-initialized: the bytes start zeroed.
  PageRef Ref = std::allocate_shared<Page>(PageBlockAllocator<Page>());
  Ref->Perms = Perms;
  return Ref;
}

Memory::PageRef Memory::copyPage(const Page &Src) {
  return std::allocate_shared<Page>(PageBlockAllocator<Page>(), Src);
}

Memory::Memory(Memory &&Other) noexcept
    : Pages(std::move(Other.Pages)), Hook(Other.Hook), Tlb(Other.Tlb),
      Stats(Other.Stats) {
  // A moved vector keeps its buffer, so the inherited TLB slots stay valid
  // here; the moved-from side must forget them.
  Other.Pages.clear();
  Other.flushTlb();
  Other.Hook = nullptr;
  Other.Stats = MemoryStats();
}

Memory &Memory::operator=(Memory &&Other) noexcept {
  if (this != &Other) {
    Pages = std::move(Other.Pages);
    Hook = Other.Hook;
    Tlb = Other.Tlb;
    Stats = Other.Stats;
    Other.Pages.clear();
    Other.flushTlb();
    Other.Hook = nullptr;
    Other.Stats = MemoryStats();
  }
  return *this;
}

void Memory::checkOk(const AccessResult &R) {
  // Only reachable through the debug accessors (get/set), which bypass
  // fault injection: a failure here is a genuinely unmapped address, i.e.
  // a harness programming error, not a runtime fault to recover from.
  if (!R.Ok)
    fatalError("unexpected memory fault at address " +
               std::to_string(R.FaultAddr));
}

void Memory::flushTlb() const {
  for (TlbEntry &E : Tlb)
    E = TlbEntry();
}

void Memory::retargetTlb() {
  for (TlbEntry &E : Tlb)
    if (E.Slot)
      E.Slot = findSlot(E.PageIdx);
}

std::vector<Memory::Slot>::iterator
Memory::slotsFrom(uint64_t PageIdx) const {
  // The table is the authoritative structure; the TLB caches slot pointers
  // into it, including from const lookups.
  auto &Table = const_cast<std::vector<Slot> &>(Pages);
  return std::lower_bound(
      Table.begin(), Table.end(), PageIdx,
      [](const Slot &S, uint64_t Idx) { return S.Idx < Idx; });
}

Memory::PageRef *Memory::findSlot(uint64_t PageIdx) const {
  auto It = slotsFrom(PageIdx);
  if (It == Pages.end() || It->Idx != PageIdx)
    return nullptr;
  return &It->Ref;
}

Memory::PageRef *Memory::lookup(uint64_t PageIdx) const {
  TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
  if (E.PageIdx == PageIdx) {
    ++Stats.TlbHits;
    return E.Slot;
  }
  ++Stats.TlbMisses;
  PageRef *S = findSlot(PageIdx);
  if (!S)
    return nullptr; // Negative results are not cached.
  E.PageIdx = PageIdx;
  E.Slot = S;
  return S;
}

const Memory::Page *Memory::findPage(uint64_t PageIdx) const {
  PageRef *S = lookup(PageIdx);
  return S ? S->get() : nullptr;
}

const uint8_t *Memory::spanForRead(uint64_t Addr, uint64_t Size,
                                   uint64_t Accesses) const {
  if (Hook || Size == 0)
    return nullptr;
  const uint64_t Off = Addr & PageMask;
  if (Off + Size > PageSize)
    return nullptr;
  const uint64_t PageIdx = Addr / PageSize;
  TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
  if (E.PageIdx == PageIdx) {
    const Page *Pg = E.Slot->get();
    if (!(Pg->Perms & PermRead))
      return nullptr; // fallback loop books the hit and faults
    Stats.TlbHits += Accesses;
    return Pg->Data.data() + Off;
  }
  // TLB miss: search the table without booking, so an ineligible span
  // leaves the counters for the fallback loop to produce.
  PageRef *S = findSlot(PageIdx);
  if (!S || !((*S)->Perms & PermRead))
    return nullptr;
  // Eligible: the reference loop's first access would miss and install,
  // the remaining Accesses-1 would hit.
  ++Stats.TlbMisses;
  Stats.TlbHits += Accesses - 1;
  E.PageIdx = PageIdx;
  E.Slot = S;
  return (*S)->Data.data() + Off;
}

uint8_t *Memory::spanForWrite(uint64_t Addr, uint64_t Size,
                              uint64_t Accesses, uint8_t Perms) {
  if (Hook || Size == 0)
    return nullptr;
  const uint64_t Off = Addr & PageMask;
  if (Off + Size > PageSize)
    return nullptr;
  const uint64_t PageIdx = Addr / PageSize;
  TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
  PageRef *S = nullptr;
  bool Missed = false;
  if (E.PageIdx == PageIdx) {
    S = E.Slot;
  } else {
    S = findSlot(PageIdx);
    if (!S)
      return nullptr;
    Missed = true;
  }
  // Perm check before any booking or COW, mirroring write(): a faulting
  // write never copies a page.
  if (((*S)->Perms & Perms) != Perms)
    return nullptr;
  if (Missed) {
    ++Stats.TlbMisses;
    Stats.TlbHits += Accesses - 1;
    E.PageIdx = PageIdx;
    E.Slot = S;
  } else {
    Stats.TlbHits += Accesses;
  }
  unshare(*S);
  return (*S)->Data.data() + Off;
}

Memory::Page *Memory::findPageForWrite(uint64_t PageIdx) {
  PageRef *S = lookup(PageIdx);
  if (!S)
    return nullptr;
  unshare(*S);
  return S->get();
}

void Memory::map(uint64_t Addr, uint64_t Size, uint8_t Perms) {
  assert(Size > 0 && "cannot map an empty range");
  const uint64_t First = Addr / PageSize;
  const uint64_t Last = (Addr + Size - 1) / PageSize;
  auto Begin = slotsFrom(First), End = slotsFrom(Last + 1);
  // Re-mapped pages keep their contents and change only permissions.
  for (auto It = Begin; It != End; ++It) {
    PageRef &Ref = It->Ref;
    if (Ref->Perms == Perms)
      continue;
    unshare(Ref); // A permission change is a write for COW purposes.
    Ref->Perms = Perms;
  }
  if (static_cast<uint64_t>(End - Begin) == Last - First + 1)
    return; // Every page was already mapped.
  // Rebuild the covered stretch as one sorted run of old and new slots,
  // then splice it in place.
  std::vector<Slot> Run;
  Run.reserve(Last - First + 1);
  auto Old = Begin;
  for (uint64_t P = First; P <= Last; ++P) {
    if (Old != End && Old->Idx == P) {
      Run.push_back(std::move(*Old++));
      continue;
    }
    Run.push_back({P, newPage(Perms)});
  }
  auto At = Pages.erase(Begin, End);
  Pages.insert(At, std::make_move_iterator(Run.begin()),
               std::make_move_iterator(Run.end()));
  // Insertion moved slots (and may have reallocated the table); cached
  // translations follow their pages, so the TLB behaves as if nothing moved.
  retargetTlb();
}

void Memory::unmap(uint64_t Addr, uint64_t Size) {
  assert(Size > 0 && "cannot unmap an empty range");
  const uint64_t First = Addr / PageSize;
  const uint64_t Last = (Addr + Size - 1) / PageSize;
  Pages.erase(slotsFrom(First), slotsFrom(Last + 1));
  // Erasure invalidates slot pointers; drop every cached translation.
  flushTlb();
}

bool Memory::isAccessible(uint64_t Addr, uint64_t Size, uint8_t Perms) const {
  if (Size == 0)
    return true;
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P) {
    const Page *Pg = findPage(P);
    if (!Pg || (Pg->Perms & Perms) != Perms)
      return false;
  }
  return true;
}

AccessResult Memory::readCold(uint64_t Addr, void *Out, uint64_t Size) const {
  if (Hook) {
    uint64_t FaultAddr = Addr;
    if (Hook->shouldFault(Addr, Size, /*IsWrite=*/false, FaultAddr))
      return AccessResult::fault(FaultAddr);
  }
  return doRead(Addr, Out, Size);
}

AccessResult Memory::writeCold(uint64_t Addr, const void *Data,
                               uint64_t Size) {
  if (Hook) {
    uint64_t FaultAddr = Addr;
    if (Hook->shouldFault(Addr, Size, /*IsWrite=*/true, FaultAddr))
      return AccessResult::fault(FaultAddr);
  }
  return doWrite(Addr, Data, Size);
}

AccessResult Memory::peek(uint64_t Addr, void *Out, uint64_t Size) const {
  return doRead(Addr, Out, Size);
}

AccessResult Memory::poke(uint64_t Addr, const void *Data, uint64_t Size) {
  return doWrite(Addr, Data, Size);
}

AccessResult Memory::doRead(uint64_t Addr, void *Out, uint64_t Size) const {
  // Fast path: the access stays inside one page (the overwhelmingly common
  // case), so one TLB-accelerated lookup both validates and services it.
  uint64_t Off = Addr & PageMask;
  if (Size != 0 && Off + Size <= PageSize) {
    const Page *Pg = findPage(Addr / PageSize);
    if (!Pg || !(Pg->Perms & PermRead))
      return AccessResult::fault(Addr);
    std::memcpy(Out, Pg->Data.data() + Off, Size);
    return AccessResult::success();
  }

  // Validate the whole range first so faulting reads have no partial effect.
  uint64_t First = Addr / PageSize;
  uint64_t Last = Size ? (Addr + Size - 1) / PageSize : First;
  for (uint64_t P = First; P <= Last; ++P) {
    const Page *Pg = findPage(P);
    if (!Pg || !(Pg->Perms & PermRead)) {
      uint64_t FaultAddr = P == First ? Addr : P * PageSize;
      return AccessResult::fault(FaultAddr);
    }
  }
  uint8_t *Dst = static_cast<uint8_t *>(Out);
  uint64_t Remaining = Size;
  uint64_t Cur = Addr;
  while (Remaining) {
    const Page *Pg = findPage(Cur / PageSize);
    uint64_t O = Cur & PageMask;
    uint64_t Chunk = std::min<uint64_t>(Remaining, PageSize - O);
    std::memcpy(Dst, Pg->Data.data() + O, Chunk);
    Dst += Chunk;
    Cur += Chunk;
    Remaining -= Chunk;
  }
  return AccessResult::success();
}

AccessResult Memory::doWrite(uint64_t Addr, const void *Data, uint64_t Size) {
  // Fast path: single-page write. Permission check happens before the COW
  // copy, so a faulting write never copies (and never modifies) anything.
  uint64_t Off = Addr & PageMask;
  if (Size != 0 && Off + Size <= PageSize) {
    PageRef *S = lookup(Addr / PageSize);
    if (!S || !((*S)->Perms & PermWrite))
      return AccessResult::fault(Addr);
    unshare(*S);
    std::memcpy((*S)->Data.data() + Off, Data, Size);
    return AccessResult::success();
  }

  // Validate before modifying: a faulting write has no partial effect, and
  // in particular performs no COW copies.
  uint64_t First = Addr / PageSize;
  uint64_t Last = Size ? (Addr + Size - 1) / PageSize : First;
  for (uint64_t P = First; P <= Last; ++P) {
    const Page *Pg = findPage(P);
    if (!Pg || !(Pg->Perms & PermWrite)) {
      uint64_t FaultAddr = P == First ? Addr : P * PageSize;
      return AccessResult::fault(FaultAddr);
    }
  }
  const uint8_t *Src = static_cast<const uint8_t *>(Data);
  uint64_t Remaining = Size;
  uint64_t Cur = Addr;
  while (Remaining) {
    Page *Pg = findPageForWrite(Cur / PageSize);
    uint64_t O = Cur & PageMask;
    uint64_t Chunk = std::min<uint64_t>(Remaining, PageSize - O);
    std::memcpy(Pg->Data.data() + O, Src, Chunk);
    Src += Chunk;
    Cur += Chunk;
    Remaining -= Chunk;
  }
  return AccessResult::success();
}

namespace {

inline uint64_t rotl(uint64_t V, int R) { return (V << R) | (V >> (64 - R)); }

/// Final avalanche (MurmurHash3 fmix64): every input bit reaches every
/// output bit.
inline uint64_t avalanche(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdULL;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ULL;
  H ^= H >> 33;
  return H;
}

constexpr uint64_t MixMul = 0x9e3779b97f4a7c15ULL;

inline uint64_t mixWord(uint64_t H, uint64_t W) {
  return rotl(H ^ W, 29) * MixMul;
}

} // namespace

// A page hashes as four interleaved lanes of 64-bit words (word I feeds
// lane I % 4), each a rotate-multiply chain: the lanes' multiplies overlap,
// so one page costs about a quarter of a single chain's latency. The lanes
// fold in a fixed order with the permissions.
static_assert(PageSize % 32 == 0, "pages hash in four-word strides");

uint64_t Memory::pageHash(const Page &Pg) {
  uint64_t L0 = 0x243f6a8885a308d3ULL, L1 = 0x13198a2e03707344ULL,
           L2 = 0xa4093822299f31d0ULL, L3 = 0x082efa98ec4e6c89ULL;
  const uint8_t *Bytes = Pg.Data.data();
  auto Word = [Bytes](size_t Off) {
    uint64_t W;
    std::memcpy(&W, Bytes + Off, 8);
    return W;
  };
  for (size_t I = 0; I < PageSize; I += 32) {
    L0 = mixWord(L0, Word(I));
    L1 = mixWord(L1, Word(I + 8));
    L2 = mixWord(L2, Word(I + 16));
    L3 = mixWord(L3, Word(I + 24));
  }
  return avalanche(
      mixWord(mixWord(mixWord(mixWord(Pg.Perms, L0), L1), L2), L3));
}

uint64_t Memory::fingerprint() const {
  // Per-page hashes folded in address order with the page indices. The
  // value is only ever compared against another fingerprint() from the
  // same build, so the mixing function is not a stable contract.
  uint64_t Hash = 0xcbf29ce484222325ULL;
  for (const Slot &S : Pages)
    Hash = mixWord(mixWord(Hash, S.Idx), pageHash(*S.Ref));
  return avalanche(Hash);
}

Memory Memory::clone() const {
  Memory Copy;
  // Share every page; either side copies a page on its first write to it.
  Copy.Pages = Pages;
  return Copy;
}

Memory Memory::deepClone() const {
  Memory Copy;
  Copy.Pages.reserve(Pages.size());
  for (const Slot &S : Pages)
    Copy.Pages.push_back({S.Idx, copyPage(*S.Ref)});
  return Copy;
}

bool Memory::contentsEqual(const Memory &Other) const {
  if (Pages.size() != Other.Pages.size())
    return false;
  for (size_t I = 0; I < Pages.size(); ++I) {
    const Slot &A = Pages[I], &B = Other.Pages[I];
    if (A.Idx != B.Idx)
      return false;
    if (A.Ref == B.Ref)
      continue; // Still COW-shared: trivially equal.
    if (A.Ref->Perms != B.Ref->Perms || A.Ref->Data != B.Ref->Data)
      return false;
  }
  return true;
}

uint64_t BumpAllocator::alloc(uint64_t Size, uint64_t Align) {
  assert(Align != 0 && (Align & (Align - 1)) == 0 &&
         "alignment must be a power of two");
  Next = (Next + Align - 1) & ~(Align - 1);
  uint64_t Addr = Next;
  if (Size == 0)
    Size = 1;
  M.map(Addr, Size, PermReadWrite);
  // Advance past the allocation and one unmapped guard page so speculative
  // vector loads that run off the end of an array genuinely fault.
  Next = ((Addr + Size + PageSize - 1) / PageSize + 1) * PageSize;
  return Addr;
}

// --- Metrics export ------------------------------------------------------===//

void mem::recordMetrics(const MemoryStats &S, obs::Registry &R) {
  R.counter("mem.tlb.hits").inc(S.TlbHits);
  R.counter("mem.tlb.misses").inc(S.TlbMisses);
  R.counter("mem.cow.page_copies").inc(S.CowCopies);
}
