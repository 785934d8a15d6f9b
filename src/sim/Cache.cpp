//===- sim/Cache.cpp ------------------------------------------------------===//

#include "sim/Cache.h"

#include "obs/Metrics.h"

#include <algorithm>
#include <cassert>

using namespace flexvec;
using namespace flexvec::sim;

CacheLevel::CacheLevel(const CacheLevelConfig &Cfg)
    : Latency(Cfg.LatencyCycles), Ways(Cfg.Ways) {
  NumSets = Cfg.SizeBytes / (mem::LineBytes * Cfg.Ways);
  assert(NumSets > 0 && (NumSets & (NumSets - 1)) == 0 &&
         "sets must be a power of two");
  Lines.assign(NumSets * Ways, ~0ULL);
}

bool CacheLevel::access(uint64_t Addr) {
  uint64_t Line = Addr / mem::LineBytes;
  uint64_t *Set = &Lines[(Line & (NumSets - 1)) * Ways];
  for (unsigned I = 0; I < Ways; ++I) {
    if (Set[I] == Line) {
      // Move to MRU position (no-op shift for an MRU re-hit).
      for (unsigned J = I; J > 0; --J)
        Set[J] = Set[J - 1];
      Set[0] = Line;
      ++Hits;
      return true;
    }
  }
  ++Misses;
  return false;
}

void CacheLevel::install(uint64_t Addr) {
  uint64_t Line = Addr / mem::LineBytes;
  uint64_t *Set = &Lines[(Line & (NumSets - 1)) * Ways];
  // Shift down to the line's old slot if present, else over the LRU way.
  unsigned I = Ways - 1;
  for (unsigned K = 0; K < Ways; ++K) {
    if (Set[K] == Line) {
      I = K;
      break;
    }
  }
  for (unsigned J = I; J > 0; --J)
    Set[J] = Set[J - 1];
  Set[0] = Line;
}

MemoryHierarchy::MemoryHierarchy()
    : L1(sim::L1D), L2(sim::L2), L3(sim::L3), Streams(NumStreams) {}

void MemoryHierarchy::installAll(uint64_t Addr) {
  L1.install(Addr);
  L2.install(Addr);
  L3.install(Addr);
}

void MemoryHierarchy::prefetch(uint64_t Addr) {
  uint64_t Page = Addr / mem::PageSize;
  uint64_t Line = Addr / mem::LineBytes;

  StreamEntry *E = nullptr;
  for (StreamEntry &S : Streams)
    if (S.Page == Page)
      E = &S;
  if (!E) {
    E = &Streams[StreamVictim];
    StreamVictim = (StreamVictim + 1) % Streams.size();
    *E = StreamEntry{Page, Line, 0, 0};
    return;
  }
  if (Line == E->LastLine)
    return; // Re-touching a line (e.g. VPL re-execution) is neutral.
  int Dir = Line > E->LastLine ? 1 : -1;
  if (Dir == E->Dir) {
    if (E->Confidence < 4)
      ++E->Confidence;
  } else {
    E->Dir = Dir;
    E->Confidence = 1;
  }
  E->LastLine = Line;
  if (E->Confidence < 2)
    return;
  // Prefetch ahead, never crossing the page boundary (Section 5).
  for (unsigned D = 1; D <= PrefetchDegree; ++D) {
    uint64_t Target = Line + static_cast<uint64_t>(Dir) * D;
    uint64_t TargetAddr = Target * mem::LineBytes;
    if (TargetAddr / mem::PageSize != Page)
      break;
    installAll(TargetAddr);
    ++Stats.PrefetchIssued;
  }
}

unsigned MemoryHierarchy::accessLatencySlow(uint64_t Addr, uint32_t,
                                            Level *LevelOut) {
  // Same-line memo (the inline fast path in Cache.h): a repeat access to
  // the line the previous access touched is exactly an L1 hit — the
  // previous access left the line at MRU of its L1 set (hits move to MRU,
  // misses install at MRU, and the prefetcher only installs *other*
  // lines, whose adjacent line indices map to different sets), so the LRU
  // move is a no-op and the stride prefetcher's re-touch of the same line
  // is neutral by construction (prefetch() returns early when
  // Line == LastLine, and the stream entry from the previous access is
  // still resident because no other access has run). Replicating the
  // hit's counter updates keeps every statistic identical to the full
  // walk. This slow path only runs when the memo missed.
  uint64_t Line = Addr / mem::LineBytes;
  MemoLine = Line;

  ++Stats.Accesses;
  if (LevelOut)
    *LevelOut = Level::L1;
  if (L1.access(Addr)) {
    ++Stats.L1Hits;
    prefetch(Addr);
    return L1.latency();
  }
  if (L2.access(Addr)) {
    ++Stats.L2Hits;
    L1.install(Addr);
    prefetch(Addr);
    if (LevelOut)
      *LevelOut = Level::L2;
    return L2.latency();
  }
  if (L3.access(Addr)) {
    ++Stats.L3Hits;
    L1.install(Addr);
    L2.install(Addr);
    prefetch(Addr);
    if (LevelOut)
      *LevelOut = Level::L3;
    return L3.latency();
  }
  ++Stats.MemAccesses;
  installAll(Addr);
  prefetch(Addr);
  if (LevelOut)
    *LevelOut = Level::Dram;
  return MemoryLatency;
}

// --- Metrics export ------------------------------------------------------===//

void sim::recordMetrics(const MemStats &S, obs::Registry &R) {
  R.counter("sim.mem.accesses").inc(S.Accesses);
  R.counter("sim.mem.l1_hits").inc(S.L1Hits);
  R.counter("sim.mem.l2_hits").inc(S.L2Hits);
  R.counter("sim.mem.l3_hits").inc(S.L3Hits);
  R.counter("sim.mem.dram_accesses").inc(S.MemAccesses);
  R.counter("sim.mem.prefetches").inc(S.PrefetchIssued);
  if (S.Accesses) {
    double N = static_cast<double>(S.Accesses);
    R.gauge("sim.mem.l1_hit_rate").set(static_cast<double>(S.L1Hits) / N);
    R.gauge("sim.mem.l2_hit_rate").set(static_cast<double>(S.L2Hits) / N);
    R.gauge("sim.mem.l3_hit_rate").set(static_cast<double>(S.L3Hits) / N);
  }
}
