//===- sim/OooCore.cpp ----------------------------------------------------===//

#include "sim/OooCore.h"

#include "obs/Metrics.h"

#include <algorithm>

using namespace flexvec;
using namespace flexvec::sim;
using namespace flexvec::isa;

OooCore::OooCore()
    : RobRing(RobEntries, 0), RsRing(RsEntries, 0), LqRing(LoadQueueEntries, 0),
      SqRing(StoreQueueEntries, 0), AluRing(AluUnits), MulRing(MulUnits),
      VecRing(VecUnits), LoadRing(LoadPorts), StoreRing(StorePorts),
      L3BwRing(1), DramBwRing(1) {
  StoreBuf.resize(StoreQueueEntries, PendingStore{~0ULL, 0});
}

template <bool IsLoadU, bool IsStoreU>
uint64_t OooCore::issueUop(const UopDesc &U, uint64_t SrcReady, uint32_t Pc) {
  ++Stats.Uops;
  uint64_t Fetch = fetchSlot() + FrontEndDepth;
  uint64_t Window = std::max(RobRing[RobHead], RsRing[RsHead]);
  if constexpr (IsLoadU)
    Window = std::max(Window, LqRing[LqHead]);
  if constexpr (IsStoreU)
    Window = std::max(Window, SqRing[SqHead]);
  uint64_t Dispatch = std::max(Fetch, Window);

  uint64_t DepReady = std::max(SrcReady, U.ReadyExtra);
  uint64_t Ready = std::max(Dispatch, DepReady);
  uint64_t Issue = reservePort(U.Port, Ready);

  // Attribute this uop's issue time to the binding constraint.
  if (Issue > Ready)
    ++Stats.BoundByPorts;
  else if (DepReady >= Dispatch)
    ++Stats.BoundByDeps;
  else if (Window > Fetch)
    ++Stats.BoundByWindow;
  else
    ++Stats.BoundByFrontEnd;

  uint64_t Complete = Issue + U.Latency;
  if constexpr (IsLoadU) {
    // Store-to-load forwarding against in-flight stores. The counting
    // filter proves most loads have no matching granule anywhere in the
    // buffer, so the scan only runs when a forward (or a filter-bucket
    // collision) is actually possible.
    uint64_t Granule = U.Addr >> 3;
    bool Forwarded = false;
    if (StoreGranFilter[Granule & 255] != 0) {
      for (size_t I = 0; I < StoreBuf.size(); ++I) {
        const PendingStore &PS = StoreBuf[I];
        if (PS.Granule == Granule) {
          Complete = std::max(Issue, PS.Ready) + ForwardLatency;
          Forwarded = true;
          break;
        }
      }
    }
    if (!Forwarded) {
      MemoryHierarchy::Level Lv;
      unsigned Lat = Mem.accessLatency(U.Addr, Pc, &Lv);
      uint64_t Fill = Issue;
      if (Lv == MemoryHierarchy::Level::L3)
        Fill = L3BwRing.reserve(Issue);
      else if (Lv == MemoryHierarchy::Level::Dram)
        Fill = DramBwRing.reserve(Issue >> 1) << 1;
      Complete = Fill + U.Latency + Lat;
    }
  }
  if constexpr (IsStoreU) {
    // Writes retire into the hierarchy; model the tag access for stats and
    // prefetcher training, but keep it off the completion critical path.
    Mem.accessLatency(U.Addr, Pc);
    PendingStore &Slot = StoreBuf[StoreBufHead];
    if (Slot.Granule != ~0ULL)
      --StoreGranFilter[Slot.Granule & 255];
    Slot = PendingStore{U.Addr >> 3, Complete};
    ++StoreGranFilter[Slot.Granule & 255];
    if (++StoreBufHead == StoreBuf.size())
      StoreBufHead = 0;
  }

  // In-order retirement.
  uint64_t Retire = commitSlot(std::max(Complete + 1, LastRetire));
  LastRetire = Retire;

  RobRing[RobHead] = Retire;
  if (++RobHead == RobRing.size())
    RobHead = 0;
  RsRing[RsHead] = Issue;
  if (++RsHead == RsRing.size())
    RsHead = 0;
  if constexpr (IsLoadU) {
    LqRing[LqHead] = Retire;
    if (++LqHead == LqRing.size())
      LqHead = 0;
  }
  if constexpr (IsStoreU) {
    SqRing[SqHead] = Retire;
    if (++SqHead == SqRing.size())
      SqHead = 0;
  }
  if (Retire > Stats.Cycles)
    Stats.Cycles = Retire;
  return Complete;
}

void OooCore::onBatch(const emu::DynInstr *Batch, size_t N) {
  Mem.beginBatch();
  for (size_t I = 0; I < N; ++I)
    step(Batch[I]);
}

void OooCore::step(const emu::DynInstr &DI) {
  ++Stats.Instructions;
  const DecodedInstr &D = *DI.Row;

  if (D.Flags & dflag::Untimed)
    return; // halt / nop

  // Source readiness over the row's scoreboard ids. Transaction boundaries
  // drain the pipeline: XBEGIN/XEND cannot execute until every older uop
  // has retired (store-buffer drain), though the front end keeps fetching.
  uint64_t SrcReady = (D.Flags & opflag::Ser) ? LastRetire : 0;
  for (unsigned W = 0; W < D.NumWaits; ++W)
    SrcReady = std::max(SrcReady, RegReady[D.WaitIds[W]]);

  uint64_t Complete = 0;

  if (D.LanesPerMemUop > 0) {
    // Gather/scatter: an AGU uop followed by one memory uop per active
    // lane over the two load ports (or the store port). The load/store
    // split is hoisted out of the lane loop so each iteration runs the
    // fully specialized uop path.
    UopDesc Agu{PortKind::Vec, 1};
    uint64_t AguDone = issueUop<false, false>(Agu, SrcReady, DI.InstrIdx);
    Complete = AguDone;
    if (D.Flags & opflag::Ld) {
      for (uint32_t A = 0; A < DI.NumMemAddrs; ++A) {
        UopDesc MemU{PortKind::Load, D.Latency, DI.MemAddrs[A], AguDone};
        uint64_t Done = issueUop<true, false>(MemU, SrcReady, DI.InstrIdx);
        Complete = std::max(Complete, Done);
      }
    } else {
      for (uint32_t A = 0; A < DI.NumMemAddrs; ++A) {
        UopDesc MemU{PortKind::Store, D.Latency, DI.MemAddrs[A], AguDone};
        uint64_t Done = issueUop<false, true>(MemU, SrcReady, DI.InstrIdx);
        Complete = std::max(Complete, Done);
      }
    }
  } else if (D.Flags & (opflag::Ld | opflag::St)) {
    // Scalar or contiguous vector access: one memory uop; a 512-bit access
    // can straddle two lines — charge the slower line.
    uint64_t First = 0, Last = 0;
    if (DI.NumMemAddrs) {
      First = DI.MemAddrs[0];
      Last = DI.MemAddrs[DI.NumMemAddrs - 1];
    }
    if (D.Flags & opflag::Ld) {
      UopDesc MemU{PortKind::Load, D.Latency, First, 0};
      Complete = issueUop<true, false>(MemU, SrcReady, DI.InstrIdx);
      uint64_t FirstLine = First / mem::LineBytes;
      uint64_t LastLine = Last / mem::LineBytes;
      if (LastLine != FirstLine) {
        // The access spans multiple lines (a straddling access, or a wide
        // VL whose contiguous block covers several): the result waits for
        // the slowest of the extra lines. A two-line access touches only
        // the trailing address, exactly the historical straddle charge.
        unsigned Extra = 0;
        for (uint64_t Line = FirstLine + 1; Line < LastLine; ++Line)
          Extra = std::max(Extra, Mem.accessLatency(Line * mem::LineBytes,
                                                    DI.InstrIdx));
        Extra = std::max(Extra, Mem.accessLatency(Last, DI.InstrIdx));
        if (Extra > L1D.LatencyCycles)
          Complete += Extra - L1D.LatencyCycles;
      }
    } else {
      UopDesc MemU{PortKind::Store, D.Latency, First, 0};
      Complete = issueUop<false, true>(MemU, SrcReady, DI.InstrIdx);
    }
  } else {
    // Non-memory: the row's micro-ops on the unit; the result is ready
    // Latency cycles after the first issues. Vector ALU ops wider than the
    // 512-bit datapath carry one slice-uop group per native slice.
    uint64_t FirstDone = 0;
    for (unsigned U = 0; U < D.Uops; ++U) {
      UopDesc Desc{D.Port, U == 0 ? D.Latency : 1u};
      uint64_t Done = issueUop<false, false>(Desc, SrcReady, DI.InstrIdx);
      if (U == 0)
        FirstDone = Done;
      Complete = std::max(Complete, std::max(Done, FirstDone));
    }
  }

  // Destination scoreboard updates.
  if (D.DstId != NoFlatReg)
    RegReady[D.DstId] = Complete;
  if (D.FFMaskId != NoFlatReg)
    RegReady[D.FFMaskId] = Complete; // Mask is also written.

  // Control flow.
  if (D.Flags & opflag::CBr) {
    ++Stats.Branches;
    bool Correct = Bp.predictAndUpdate(DI.InstrIdx, DI.Taken);
    if (!Correct) {
      ++Stats.Mispredicts;
      uint64_t Redirect =
          Complete + (MispredictPenalty > FrontEndDepth
                          ? MispredictPenalty - FrontEndDepth
                          : 1);
      if (Redirect > FetchCycle) {
        FetchCycle = Redirect;
        FetchedThisCycle = 0;
      }
    }
  }

  // Transaction aborts flush the pipeline; XBEGIN/XEND are expensive but
  // non-serializing on real RTM hardware (the tile-size study depends on
  // inter-tile overlap surviving commits).
  if (D.Op == Opcode::XAbort) {
    if (Complete > FetchCycle) {
      FetchCycle = Complete;
      FetchedThisCycle = 0;
    }
  }
}

SimStats OooCore::stats() const {
  SimStats S = Stats;
  S.Mem = Mem.stats();
  S.Mispredicts = Bp.mispredicts();
  return S;
}

// --- Metrics export ------------------------------------------------------===//

void sim::recordMetrics(const SimStats &S, obs::Registry &R) {
  R.counter("sim.cycles").inc(S.Cycles);
  R.counter("sim.instructions").inc(S.Instructions);
  R.counter("sim.uops").inc(S.Uops);
  R.counter("sim.branches").inc(S.Branches);
  R.counter("sim.mispredicts").inc(S.Mispredicts);
  R.counter("sim.bound.front_end").inc(S.BoundByFrontEnd);
  R.counter("sim.bound.window").inc(S.BoundByWindow);
  R.counter("sim.bound.deps").inc(S.BoundByDeps);
  R.counter("sim.bound.ports").inc(S.BoundByPorts);
  R.gauge("sim.ipc").set(S.ipc());
  R.gauge("sim.upc").set(S.upc());
  recordMetrics(S.Mem, R);
}
