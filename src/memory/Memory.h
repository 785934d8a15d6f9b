//===- memory/Memory.h - Sparse paged address space -------------*- C++ -*-===//
//
// A sparse, 64-bit, paged memory model with per-page permissions. Accesses
// to unmapped or permission-violating addresses report faults rather than
// aborting, which is what the first-faulting FlexVec loads (Section 3.3.1)
// and the RTM abort path (Section 3.3.2) are built on.
//
// The mapped pages live in a flat page table: one address-ordered vector of
// (page index, page) slots, searched by binary search. Two mechanisms keep
// the model cheap without changing observable behaviour
// (docs/PERFORMANCE.md):
//
//   * A direct-mapped software TLB caches the last-N page lookups in front
//     of the page-table search, so same-page accesses (the common case for
//     loop workloads) skip the search entirely.
//   * clone() is copy-on-write: pages are shared between the clone and its
//     source via refcount and copied the first time either side writes
//     them, so per-run image clones cost one flat copy of the slot vector
//     instead of O(bytes).
//
// A Memory must only be read or written from one thread at a time. A
// published base image that is no longer read or written directly may be
// clone()d from several threads at once: clone() only copies the page table
// (shared_ptr copies, atomic refcounts), and because the base keeps a
// reference to every shared page, no clone ever sees use_count()==1 on a
// shared page — so clones copy pages before writing and never mutate
// shared bytes in place. The evaluation engine relies on this: the five
// variant cells of one workload row clone one shared input image.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_MEMORY_MEMORY_H
#define FLEXVEC_MEMORY_MEMORY_H

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

namespace flexvec {
namespace obs {
class Registry;
}
namespace mem {

inline constexpr uint64_t PageSize = 4096;
inline constexpr uint64_t PageMask = PageSize - 1;
/// Cache-line size: the granule of the timing model's caches, the RTM
/// read/write sets and the line-poisoning fault policy.
inline constexpr uint64_t LineBytes = 64;

/// Page permission bits.
enum PagePerms : uint8_t {
  PermNone = 0,
  PermRead = 1,
  PermWrite = 2,
  PermReadWrite = PermRead | PermWrite,
};

/// Outcome of a memory access. Faulting accesses perform no partial work.
struct AccessResult {
  bool Ok = true;
  uint64_t FaultAddr = 0;

  static AccessResult success() { return {}; }
  static AccessResult fault(uint64_t Addr) { return {false, Addr}; }
};

/// Hot-path event counts. Pure functions of the access sequence (which is
/// deterministic per cell), so they are safe to export into the
/// deterministic bench payload.
struct MemoryStats {
  uint64_t TlbHits = 0;   ///< Page lookups served by the software TLB.
  uint64_t TlbMisses = 0; ///< Lookups that searched the page table.
  uint64_t CowCopies = 0; ///< Shared pages copied on first write.

  void merge(const MemoryStats &O) {
    TlbHits += O.TlbHits;
    TlbMisses += O.TlbMisses;
    CowCopies += O.CowCopies;
  }
};

/// Policy interface consulted on every *architectural* access (read/write
/// and the typed helpers built on them). A hook can force an access to
/// fault even though the underlying pages are mapped, which is how the
/// fault-injection subsystem (faults/FaultInjector.h) models transient and
/// persistent memory errors. Debug accesses (peek/poke, get/set) bypass
/// the hook so harnesses can always inspect and rebuild state.
class FaultHook {
public:
  virtual ~FaultHook();

  /// Returns true to inject a fault into the access of [Addr, Addr+Size).
  /// On injection \p FaultAddr must be set to the reported fault address.
  virtual bool shouldFault(uint64_t Addr, uint64_t Size, bool IsWrite,
                           uint64_t &FaultAddr) = 0;
};

/// The sparse paged address space.
class Memory {
public:
  Memory() = default;
  Memory(const Memory &) = delete;
  Memory &operator=(const Memory &) = delete;
  Memory(Memory &&Other) noexcept;
  Memory &operator=(Memory &&Other) noexcept;

  /// Maps [Addr, Addr+Size) with \p Perms; Addr and Size need not be
  /// page-aligned (the covering pages are mapped). Newly mapped pages are
  /// zero-filled. Re-mapping updates permissions and preserves contents.
  void map(uint64_t Addr, uint64_t Size, uint8_t Perms = PermReadWrite);

  /// Unmaps all pages covering [Addr, Addr+Size).
  void unmap(uint64_t Addr, uint64_t Size);

  /// True if every byte of [Addr, Addr+Size) is mapped with \p Perms.
  bool isAccessible(uint64_t Addr, uint64_t Size, uint8_t Perms) const;

  /// Reads \p Size bytes into \p Out. On fault nothing is written.
  /// Defined inline below: the TLB-hit single-page case is resolved in the
  /// caller; everything else takes the out-of-line general path.
  AccessResult read(uint64_t Addr, void *Out, uint64_t Size) const;

  /// Writes \p Size bytes. On fault nothing is modified.
  AccessResult write(uint64_t Addr, const void *Data, uint64_t Size);

  /// Vector fast-path span resolution (src/emu/simd): a direct pointer to
  /// the page bytes backing [Addr, Addr+Size), or nullptr when the span is
  /// ineligible (hook armed, page straddle, zero size, unmapped, or
  /// permission-violating). On success it books exactly what \p Accesses
  /// same-page architectural accesses would have booked — TlbHits on a TLB
  /// hit, one TlbMiss plus Accesses-1 hits (and a TLB install) on a miss,
  /// plus CowCopies for the write flavour — so collapsing a per-lane loop
  /// into one block copy is invisible in MemoryStats. On failure it books
  /// nothing and caches nothing: the caller's fallback loop re-runs the
  /// reference access sequence, which produces the legacy counts and the
  /// legacy fault. The pointer is valid until the next map/unmap/clone.
  /// The write flavour requires the page to grant every bit of \p Perms
  /// (the RTM block path asks for PermReadWrite: its per-lane reference
  /// reads each element's undo bytes before writing it).
  const uint8_t *spanForRead(uint64_t Addr, uint64_t Size,
                             uint64_t Accesses) const;
  uint8_t *spanForWrite(uint64_t Addr, uint64_t Size, uint64_t Accesses,
                        uint8_t Perms = PermWrite);

  /// Debug accessors: identical to read()/write() except that they never
  /// consult the fault hook. Used by test harnesses, image construction,
  /// and the RTM undo-log rollback, all of which must keep working while
  /// fault injection is armed.
  AccessResult peek(uint64_t Addr, void *Out, uint64_t Size) const;
  AccessResult poke(uint64_t Addr, const void *Data, uint64_t Size);

  /// Installs (or clears, with nullptr) the fault-injection hook. The hook
  /// is not owned and must outlive the Memory; clone() does not copy it.
  void setFaultHook(FaultHook *H) { Hook = H; }
  FaultHook *faultHook() const { return Hook; }

  /// Typed helpers; fault behaviour as read()/write().
  template <typename T> AccessResult readValue(uint64_t Addr, T &Out) const {
    return read(Addr, &Out, sizeof(T));
  }
  template <typename T> AccessResult writeValue(uint64_t Addr, T Value) {
    return write(Addr, &Value, sizeof(T));
  }

  /// Convenience accessors for tests/workloads. They use the debug path
  /// (no fault-hook consultation), so an armed fault injector can never
  /// reach checkOk's process abort: the only way these fail is a genuinely
  /// unmapped or permission-violating address, which is a harness bug.
  template <typename T> T get(uint64_t Addr) const {
    T V{};
    AccessResult R = peek(Addr, &V, sizeof(T));
    checkOk(R);
    return V;
  }
  template <typename T> void set(uint64_t Addr, T Value) {
    checkOk(poke(Addr, &Value, sizeof(T)));
  }

  /// Number of mapped pages.
  size_t numPages() const { return Pages.size(); }

  /// Digest of the mapped contents (page indices, permissions, bytes), used
  /// to compare final memory images across scalar and vectorized
  /// executions. Equal images give equal fingerprints whichever of their
  /// pages are still shared and whichever were copied. The value is only
  /// comparable within one build.
  uint64_t fingerprint() const;

  /// Copy-on-write copy: pages are shared with the source and copied the
  /// first time either side writes them. Initial images are cloned per
  /// program under test. The clone starts with fresh stats and no hook.
  Memory clone() const;

  /// Eager byte-wise copy sharing nothing with the source. Used by tests
  /// as the reference against which clone()'s copy-on-write behaviour is
  /// verified.
  Memory deepClone() const;

  /// Byte-wise comparison of mapped contents (and the mapped-page sets).
  bool contentsEqual(const Memory &Other) const;

  /// Hot-path event counts since construction (clones start at zero).
  const MemoryStats &stats() const { return Stats; }

private:
  struct Page {
    std::array<uint8_t, PageSize> Data;
    uint8_t Perms;
  };
  /// Pages are shared between COW clones; use_count()==1 means this
  /// Memory is the sole owner and may write in place.
  using PageRef = std::shared_ptr<Page>;

  /// One page-table slot. The table is sorted by Idx.
  struct Slot {
    uint64_t Idx;
    PageRef Ref;
  };

  /// One direct-mapped TLB entry. Slot points at the PageRef inside the
  /// page table. A COW copy replaces the pointee, not the slot, and a move
  /// keeps the table's buffer, so an entry stays valid until its page is
  /// unmapped; map() re-points the entries when it inserts slots.
  struct TlbEntry {
    uint64_t PageIdx = ~0ULL;
    PageRef *Slot = nullptr;
  };
  static constexpr size_t TlbEntries = 64; // power of two (direct-mapped)

  static void checkOk(const AccessResult &R);
  /// Hash of one page's permissions and bytes.
  static uint64_t pageHash(const Page &Pg);

  /// The first slot at or above \p PageIdx (binary search).
  std::vector<Slot>::iterator slotsFrom(uint64_t PageIdx) const;
  /// Page-table search without TLB booking; null when unmapped.
  PageRef *findSlot(uint64_t PageIdx) const;

  /// TLB-accelerated slot lookup; null when the page is unmapped.
  PageRef *lookup(uint64_t PageIdx) const;

  const Page *findPage(uint64_t PageIdx) const;
  /// Lookup for mutation: copies a shared page first (copy-on-write).
  Page *findPageForWrite(uint64_t PageIdx);

  /// A zero-filled page, or a copy of \p Src; both draw on the recycled
  /// page blocks (Memory.cpp).
  static PageRef newPage(uint8_t Perms);
  static PageRef copyPage(const Page &Src);

  /// Copy-on-write: if \p Ref is shared with a clone, replaces it with a
  /// private copy before the first write. The slot (and any TLB entry
  /// pointing at it) survives; only the pointee changes.
  void unshare(PageRef &Ref) {
    if (Ref.use_count() > 1) {
      Ref = copyPage(*Ref);
      ++Stats.CowCopies;
    }
  }

  void flushTlb() const;
  /// Re-points every cached TLB entry at its page's current slot (after
  /// map() inserted slots and moved the others).
  void retargetTlb();

  AccessResult doRead(uint64_t Addr, void *Out, uint64_t Size) const;
  AccessResult doWrite(uint64_t Addr, const void *Data, uint64_t Size);

  /// General-case architectural access (hook armed, TLB miss, straddle,
  /// fault, zero size). Counts and behaves identically to the inline fast
  /// path where the two overlap.
  AccessResult readCold(uint64_t Addr, void *Out, uint64_t Size) const;
  AccessResult writeCold(uint64_t Addr, const void *Data, uint64_t Size);

  /// Address-ordered, so fingerprint and compare walk it deterministically.
  std::vector<Slot> Pages;
  FaultHook *Hook = nullptr;
  // The TLB is a cache warmed by const reads; stats are event counts on
  // const paths too. Both are logically non-observable state.
  mutable std::array<TlbEntry, TlbEntries> Tlb{};
  mutable MemoryStats Stats;
};

// The architectural accessors resolve the dominant case — no fault hook,
// single page, TLB hit — right in the caller (one table probe, one perm
// test, one memcpy). Every other case falls through to the out-of-line
// general path. Counter updates mirror the general path exactly: a TLB hit
// books TlbHits whether the access then succeeds or perm-faults, and a COW
// copy books CowCopies, so the fast path is invisible in the metrics.

inline AccessResult Memory::read(uint64_t Addr, void *Out,
                                 uint64_t Size) const {
  if (!Hook) {
    uint64_t Off = Addr & PageMask;
    uint64_t PageIdx = Addr / PageSize;
    const TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
    if (Size != 0 && Off + Size <= PageSize && E.PageIdx == PageIdx) {
      ++Stats.TlbHits;
      const Page *Pg = E.Slot->get();
      if (!(Pg->Perms & PermRead))
        return AccessResult::fault(Addr);
      std::memcpy(Out, Pg->Data.data() + Off, Size);
      return AccessResult::success();
    }
  }
  return readCold(Addr, Out, Size);
}

inline AccessResult Memory::write(uint64_t Addr, const void *Data,
                                  uint64_t Size) {
  if (!Hook) {
    uint64_t Off = Addr & PageMask;
    uint64_t PageIdx = Addr / PageSize;
    const TlbEntry &E = Tlb[PageIdx & (TlbEntries - 1)];
    if (Size != 0 && Off + Size <= PageSize && E.PageIdx == PageIdx) {
      ++Stats.TlbHits;
      PageRef *S = E.Slot;
      if (!((*S)->Perms & PermWrite))
        return AccessResult::fault(Addr);
      // The perm check above ran first, so a faulting write never copies.
      unshare(*S);
      std::memcpy((*S)->Data.data() + Off, Data, Size);
      return AccessResult::success();
    }
  }
  return writeCold(Addr, Data, Size);
}

/// Exports \p S into \p R under the `mem.` metric namespace; see
/// docs/OBSERVABILITY.md for the catalog.
void recordMetrics(const MemoryStats &S, obs::Registry &R);

/// Monotonic allocator handing out disjoint regions of a Memory, used to
/// lay out workload data images. Leaves an unmapped guard page between
/// allocations so out-of-bounds speculative accesses genuinely fault.
class BumpAllocator {
public:
  explicit BumpAllocator(Memory &M, uint64_t Base = 0x10000)
      : M(M), Next(Base) {}

  /// Allocates \p Size bytes aligned to \p Align; maps the pages ReadWrite.
  uint64_t alloc(uint64_t Size, uint64_t Align = 64);

  /// Allocates and copies \p Values into memory; returns the base address.
  /// Uses the debug write path so image construction is unaffected by an
  /// armed fault injector.
  template <typename T> uint64_t allocArray(const std::vector<T> &Values) {
    uint64_t Addr = alloc(Values.size() * sizeof(T), 64);
    if (!Values.empty())
      M.poke(Addr, Values.data(), Values.size() * sizeof(T));
    return Addr;
  }

  /// Allocates \p Count elements of \p T and stores Elem(I) at element I,
  /// calling Elem once per element in index order. The values go into the
  /// image one page-sized chunk at a time, so no copy of the whole array
  /// is ever staged. Debug write path, as allocArray.
  template <typename T, typename Fn>
  uint64_t allocGenerated(uint64_t Count, Fn &&Elem) {
    uint64_t Addr = alloc(Count * sizeof(T), 64);
    constexpr uint64_t PerChunk = PageSize / sizeof(T);
    std::array<T, PerChunk> Chunk{};
    for (uint64_t I = 0; I < Count;) {
      uint64_t N = std::min(PerChunk, Count - I);
      for (uint64_t K = 0; K < N; ++K)
        Chunk[K] = Elem(I + K);
      M.poke(Addr + I * sizeof(T), Chunk.data(), N * sizeof(T));
      I += N;
    }
    return Addr;
  }

  uint64_t nextFree() const { return Next; }

private:
  Memory &M;
  uint64_t Next;
};

} // namespace mem
} // namespace flexvec

#endif // FLEXVEC_MEMORY_MEMORY_H
