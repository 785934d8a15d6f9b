//===- sim/Cache.h - Cache hierarchy model ----------------------*- C++ -*-===//
//
// Set-associative LRU caches (L1D/L2/L3 + memory) with a per-PC stride
// prefetcher that does not cross page boundaries — the paper's Section 5
// notes that hardware prefetchers stopping at page boundaries hurt the
// gather-heavy vector code, so that behaviour is modeled explicitly.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SIM_CACHE_H
#define FLEXVEC_SIM_CACHE_H

#include "memory/Memory.h"
#include "sim/Config.h"

#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

namespace flexvec {
namespace obs {
class Registry;
}
namespace sim {

/// One set-associative LRU cache level.
class CacheLevel {
public:
  explicit CacheLevel(const CacheLevelConfig &Cfg);

  /// True if the line holding \p Addr is present; updates LRU on hit.
  bool access(uint64_t Addr);

  /// Installs the line holding \p Addr (LRU replacement).
  void install(uint64_t Addr);

  /// Books a hit without touching LRU state. Used by the hierarchy's
  /// same-line memo, which only fires when the line is already at MRU — so
  /// the LRU move this skips would have been a no-op.
  void countHit() { ++Hits; }

  unsigned latency() const { return Latency; }
  uint64_t hits() const { return Hits; }
  uint64_t misses() const { return Misses; }

private:
  unsigned Latency;
  uint64_t NumSets;
  unsigned Ways;
  /// Flat tag store, Ways slots per set, most recent first; empty slots
  /// hold ~0 (never a real tag — line indices are Addr / mem::LineBytes).
  /// Same LRU order and hit/miss sequence as a per-set list, without the
  /// per-set heap node or erase/insert traffic.
  std::vector<uint64_t> Lines;
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// Aggregated statistics for the hierarchy.
struct MemStats {
  uint64_t Accesses = 0;
  uint64_t L1Hits = 0, L2Hits = 0, L3Hits = 0, MemAccesses = 0;
  uint64_t PrefetchIssued = 0;
};

/// Exports \p S into \p R under the `sim.mem.` metric namespace: demand
/// access counters per level plus derived hit-rate gauges.
void recordMetrics(const MemStats &S, obs::Registry &R);

/// The full hierarchy. loadLatency() returns the load-to-use latency for
/// an access and performs all fills.
class MemoryHierarchy {
public:
  MemoryHierarchy();

  /// Hierarchy levels for bandwidth accounting.
  enum class Level : uint8_t { L1, L2, L3, Dram };

  /// Latency of a (demand) access at \p Addr issued by static instruction
  /// \p Pc. Stores use the same path (write-allocate). \p LevelOut, when
  /// non-null, receives the level that serviced the access.
  ///
  /// The same-line memo fast path lives here so the (dominant) repeat
  /// access folds into the caller; see accessLatencySlow in Cache.cpp for
  /// the exactness argument. The counter updates replicate a full-walk L1
  /// hit bit for bit.
  unsigned accessLatency(uint64_t Addr, uint32_t Pc,
                         Level *LevelOut = nullptr) {
    if (Addr / mem::LineBytes == MemoLine) {
      ++Stats.Accesses;
      ++Stats.L1Hits;
      L1.countHit();
      if (LevelOut)
        *LevelOut = Level::L1;
      return L1.latency();
    }
    return accessLatencySlow(Addr, Pc, LevelOut);
  }

  /// Arms the same-line memo for a fresh trace batch (defensive reset; the
  /// memo is exact across batch boundaries too, see Cache.cpp).
  void beginBatch() { MemoLine = ~0ULL; }

  const MemStats &stats() const { return Stats; }

private:
  /// The full walk (L1 -> L2 -> L3 -> DRAM) with fills and prefetcher
  /// training; entered only when the memo above missed.
  unsigned accessLatencySlow(uint64_t Addr, uint32_t Pc, Level *LevelOut);

  void prefetch(uint64_t Addr);
  void installAll(uint64_t Addr);

  CacheLevel L1, L2, L3;
  MemStats Stats;

  /// Line of the previous demand access. A repeat access to the same line
  /// is a guaranteed L1 hit and is serviced without walking the hierarchy
  /// (the ~0ULL sentinel can never equal Addr / mem::LineBytes).
  uint64_t MemoLine = ~0ULL;

  /// Per-page stream detector: direction-confirmed sequential access
  /// within a 4 KiB page triggers prefetch of the next lines of that page.
  /// Re-accessing the same line (VPL re-execution) neither trains nor
  /// untrains the stream.
  struct StreamEntry {
    uint64_t Page = ~0ULL;
    uint64_t LastLine = 0;
    int Dir = 0;
    int Confidence = 0;
  };
  static constexpr size_t NumStreams = 16;
  std::vector<StreamEntry> Streams;
  size_t StreamVictim = 0;
};

} // namespace sim
} // namespace flexvec

#endif // FLEXVEC_SIM_CACHE_H
