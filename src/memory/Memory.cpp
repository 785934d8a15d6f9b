//===- memory/Memory.cpp --------------------------------------------------===//

#include "memory/Memory.h"

#include "obs/Metrics.h"
#include "support/Error.h"

#include <cassert>

using namespace flexvec;
using namespace flexvec::mem;

FaultHook::~FaultHook() = default;

Memory::Memory(Memory &&Other) noexcept
    : Pages(std::move(Other.Pages)), Hook(Other.Hook), Tlb(Other.Tlb),
      Stats(Other.Stats) {
  // Map nodes are address-stable across the move, so the inherited TLB
  // slots stay valid here; the moved-from side must forget them.
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

Memory::PageRef *Memory::lookup(uint64_t PageIdx) const {
  TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
  if (E.PageIdx == PageIdx) {
    ++Stats.TlbHits;
    return E.Slot;
  }
  ++Stats.TlbMisses;
  // The map is the authoritative structure; the TLB is a cache over it.
  auto &Map = const_cast<std::map<uint64_t, PageRef> &>(Pages);
  auto It = Map.find(PageIdx);
  if (It == Map.end())
    return nullptr; // Negative results are not cached.
  E.PageIdx = PageIdx;
  E.Slot = &It->second;
  return E.Slot;
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
  // TLB miss: probe the map without booking, so an ineligible span leaves
  // the counters for the fallback loop to produce.
  auto &Map = const_cast<std::map<uint64_t, PageRef> &>(Pages);
  auto It = Map.find(PageIdx);
  if (It == Map.end() || !(It->second->Perms & PermRead))
    return nullptr;
  // Eligible: the reference loop's first access would miss and install,
  // the remaining Accesses-1 would hit.
  ++Stats.TlbMisses;
  Stats.TlbHits += Accesses - 1;
  E.PageIdx = PageIdx;
  E.Slot = &It->second;
  return It->second->Data.data() + Off;
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
    auto It = Pages.find(PageIdx);
    if (It == Pages.end())
      return nullptr;
    S = &It->second;
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
  if (S->use_count() > 1) {
    *S = std::make_shared<Page>(**S);
    ++Stats.CowCopies;
  }
  return (*S)->Data.data() + Off;
}

Memory::Page *Memory::findPageForWrite(uint64_t PageIdx) {
  PageRef *S = lookup(PageIdx);
  if (!S)
    return nullptr;
  if (S->use_count() > 1) {
    // Shared with a COW clone: copy before the first write. The slot (and
    // any TLB entry pointing at it) survives; only the pointee changes.
    *S = std::make_shared<Page>(**S);
    ++Stats.CowCopies;
  }
  return S->get();
}

void Memory::map(uint64_t Addr, uint64_t Size, uint8_t Perms) {
  assert(Size > 0 && "cannot map an empty range");
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P) {
    auto It = Pages.find(P);
    if (It != Pages.end()) {
      PageRef &Ref = It->second;
      if (Ref->Perms != Perms) {
        // A permission change is a write for COW purposes.
        if (Ref.use_count() > 1) {
          Ref = std::make_shared<Page>(*Ref);
          ++Stats.CowCopies;
        }
        Ref->Perms = Perms;
      }
      continue;
    }
    auto NewPage = std::make_shared<Page>();
    NewPage->Data.fill(0);
    NewPage->Perms = Perms;
    Pages.emplace(P, std::move(NewPage));
  }
}

void Memory::unmap(uint64_t Addr, uint64_t Size) {
  assert(Size > 0 && "cannot unmap an empty range");
  uint64_t First = Addr / PageSize;
  uint64_t Last = (Addr + Size - 1) / PageSize;
  for (uint64_t P = First; P <= Last; ++P)
    Pages.erase(P);
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
    if (S->use_count() > 1) {
      *S = std::make_shared<Page>(**S);
      ++Stats.CowCopies;
    }
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

uint64_t Memory::fingerprint() const {
  // FNV-1a-style mix over (page index, permissions, contents) in address
  // order, one 64-bit word at a time (pages are word-multiples), with a
  // final avalanche so every input bit reaches every output bit. The
  // value is only ever compared against another fingerprint() from the
  // same build — the exact mixing function is not a stable contract — so
  // the word-at-a-time form trades nothing for an 8x shorter multiply
  // chain on the image-hashing path the evaluation sweep runs per cell.
  static_assert(PageSize % 8 == 0, "page contents hash word-at-a-time");
  uint64_t Hash = 0xcbf29ce484222325ULL;
  auto mixWord = [&Hash](uint64_t W) {
    Hash = (Hash ^ W) * 0x100000001b3ULL;
  };
  for (const auto &[Idx, Pg] : Pages) {
    mixWord(Idx);
    mixWord(static_cast<uint64_t>(Pg->Perms));
    const uint8_t *Bytes = Pg->Data.data();
    for (size_t I = 0; I < PageSize; I += 8) {
      uint64_t W;
      std::memcpy(&W, Bytes + I, 8);
      mixWord(W);
    }
  }
  Hash ^= Hash >> 33;
  Hash *= 0xff51afd7ed558ccdULL;
  Hash ^= Hash >> 33;
  return Hash;
}

Memory Memory::clone() const {
  Memory Copy;
  // Share every page; either side copies a page on its first write to it.
  Copy.Pages = Pages;
  return Copy;
}

Memory Memory::deepClone() const {
  Memory Copy;
  for (const auto &[Idx, Pg] : Pages)
    Copy.Pages.emplace(Idx, std::make_shared<Page>(*Pg));
  return Copy;
}

bool Memory::contentsEqual(const Memory &Other) const {
  if (Pages.size() != Other.Pages.size())
    return false;
  auto ItA = Pages.begin();
  auto ItB = Other.Pages.begin();
  for (; ItA != Pages.end(); ++ItA, ++ItB) {
    if (ItA->first != ItB->first)
      return false;
    if (ItA->second == ItB->second)
      continue; // Still COW-shared: trivially equal.
    if (ItA->second->Perms != ItB->second->Perms)
      return false;
    if (ItA->second->Data != ItB->second->Data)
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
