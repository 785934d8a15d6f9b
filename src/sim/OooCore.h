//===- sim/OooCore.h - Out-of-order core timing model -----------*- C++ -*-===//
//
// Trace-driven timing model of the aggressive OOO core in Table 1. The
// functional emulator streams retired instructions (with resolved branch
// outcomes and memory addresses), each pointing at its program's decoded
// row (isa/DecodedInstr.h: scoreboard ids, latency, port, uop count); the
// model expands them into micro-ops and plays a one-pass scoreboard over:
//
//   * front end: 5-wide fetch, gshare direction prediction, redirect
//     penalty on mispredicts, serializing RTM boundaries,
//   * dispatch: stalls on ROB (224) / RS (97) / LQ (80) / SQ (56), with
//     no width limit of its own (EXPERIMENTS.md, "Known deviations"),
//   * issue: over typed units (4 ALU, 1 mul, 2 vector, 2 load ports,
//     1 store port); an opcode's throughput is its uop count on its port,
//   * execute: per-opcode latencies (Table 1 bottom for the FlexVec
//     instructions), cache hierarchy latencies for memory, store-to-load
//     forwarding,
//   * commit: 5-wide in order.
//
// Gathers and scatters expand to one memory micro-op per active lane with
// two load ports, matching the paper's "1-cycle AGU latency, 2 loads per
// cycle" for VPGATHERFF.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SIM_OOOCORE_H
#define FLEXVEC_SIM_OOOCORE_H

#include "emu/Machine.h"
#include "sim/BranchPredictor.h"
#include "sim/Cache.h"
#include "sim/Config.h"

#include <array>
#include <cstdint>
#include <vector>

namespace flexvec {
namespace sim {

/// Results of one simulated execution.
struct SimStats {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t Uops = 0;
  uint64_t Mispredicts = 0;
  uint64_t Branches = 0;
  MemStats Mem;

  /// Issue-constraint attribution: for each uop, which term decided its
  /// issue cycle (useful for explaining where time goes).
  uint64_t BoundByFrontEnd = 0; ///< Fetch/dispatch (incl. redirects).
  uint64_t BoundByWindow = 0;   ///< ROB/RS/LQ/SQ occupancy.
  uint64_t BoundByDeps = 0;     ///< Waiting on source operands.
  uint64_t BoundByPorts = 0;    ///< Structural (execution unit busy).
  double ipc() const {
    return Cycles ? static_cast<double>(Instructions) /
                        static_cast<double>(Cycles)
                  : 0.0;
  }
  double upc() const {
    return Cycles ? static_cast<double>(Uops) / static_cast<double>(Cycles)
                  : 0.0;
  }
};

/// The timing model; attach as the emulator's trace sink.
class OooCore : public emu::TraceSink {
public:
  OooCore();

  /// Batched delivery from the emulator; processes the records in order
  /// with the hierarchy's same-line memo armed (see Cache.h).
  void onBatch(const emu::DynInstr *Batch, size_t N) override;

  /// Final statistics (cycle count is the last retirement).
  SimStats stats() const;

private:
  /// Plays one retired instruction through the scoreboard.
  void step(const emu::DynInstr &DI);

  struct UopDesc {
    isa::PortKind Port;
    unsigned Latency;
    uint64_t Addr = 0;
    uint64_t ReadyExtra = 0; ///< Extra readiness constraint (chained uops).
  };

  /// Runs one micro-op through the scoreboard; returns its completion
  /// cycle. Load/store-ness is a template parameter so each of the three
  /// shapes (ALU, load, store) specializes with its queue checks and
  /// memory path resolved at compile time — step() picks the
  /// instantiation once per instruction, outside the per-lane uop loops.
  template <bool IsLoadU, bool IsStoreU>
  uint64_t issueUop(const UopDesc &U, uint64_t SrcReady, uint32_t Pc);

  /// Out-of-order issue: finds the earliest cycle >= Earliest with a free
  /// unit of \p Port and reserves it (per-cycle occupancy rings, so a late
  /// dependent uop does not block younger independent ones).
  uint64_t reservePort(isa::PortKind Port, uint64_t Earliest) {
    switch (Port) {
    case isa::PortKind::ALU:
    case isa::PortKind::Branch:
      return AluRing.reserve(Earliest);
    case isa::PortKind::Mul:
      return MulRing.reserve(Earliest);
    case isa::PortKind::FP:
    case isa::PortKind::Vec:
      return VecRing.reserve(Earliest);
    case isa::PortKind::Load:
      return LoadRing.reserve(Earliest);
    case isa::PortKind::Store:
      return StoreRing.reserve(Earliest);
    case isa::PortKind::None:
      return Earliest;
    }
    return Earliest; // Unreachable; keeps the inline body noexcept-simple.
  }

  /// Consumes one fetch slot; returns the fetch cycle.
  uint64_t fetchSlot() {
    if (FetchedThisCycle >= FetchWidth) {
      ++FetchCycle;
      FetchedThisCycle = 0;
    }
    ++FetchedThisCycle;
    return FetchCycle;
  }

  /// Consumes one commit slot at or after \p Earliest; returns the cycle.
  uint64_t commitSlot(uint64_t Earliest) {
    if (Earliest > CommitCycle) {
      CommitCycle = Earliest;
      CommittedThisCycle = 0;
    }
    if (CommittedThisCycle >= CommitWidth) {
      ++CommitCycle;
      CommittedThisCycle = 0;
    }
    ++CommittedThisCycle;
    return CommitCycle;
  }

  MemoryHierarchy Mem;
  BranchPredictor Bp;

  /// Architectural register scoreboard, indexed by Reg::flatId.
  std::array<uint64_t, isa::NumFlatRegs> RegReady{};

  // Front end.
  uint64_t FetchCycle = 0;
  unsigned FetchedThisCycle = 0;
  static constexpr unsigned FrontEndDepth = 5;

  // Commit.
  uint64_t CommitCycle = 0;
  unsigned CommittedThisCycle = 0;
  uint64_t LastRetire = 0;

  // Resource rings: cycle at which the slot N-entries-ago frees.
  std::vector<uint64_t> RobRing, RsRing, LqRing, SqRing;
  size_t RobHead = 0, RsHead = 0, LqHead = 0, SqHead = 0;

  // Execution units: per-cycle occupancy rings per port kind. The window
  // only needs to span the spread of cycles that can be live at once —
  // bounded by the ROB depth times the worst per-uop latency (DRAM ~200
  // cycles plus bandwidth queueing), far below 4096 — while staying small
  // enough that all seven rings sit in L2 instead of streaming through
  // megabytes of tags.
  struct PortRing {
    static constexpr size_t RingSize = 1u << 10;
    explicit PortRing(unsigned Units = 1)
        : Units(Units), CycleTag(RingSize, ~0ULL), Count(RingSize, 0) {}
    /// Earliest cycle >= Earliest with spare capacity; reserves it.
    uint64_t reserve(uint64_t Earliest) {
      // Cycles below the watermark are known full; starting there is
      // exactly where the plain walk would have arrived.
      uint64_t C = Earliest > FullBelow ? Earliest : FullBelow;
      while (true) {
        size_t Slot = C & (RingSize - 1);
        if (CycleTag[Slot] != C) {
          CycleTag[Slot] = C;
          Count[Slot] = 0;
        }
        if (Count[Slot] < Units) {
          ++Count[Slot];
          if (C == FullBelow && Count[Slot] == Units)
            FullBelow = C + 1;
          return C;
        }
        if (C == FullBelow)
          FullBelow = C + 1;
        ++C;
      }
    }
    unsigned Units;
    /// Every cycle below this is at capacity. Occupancy is monotone —
    /// reservations only add — so the watermark lets a probe on a
    /// saturated port start at the frontier instead of walking the full
    /// prefix cycle by cycle; it only advances over cycles proven full
    /// contiguously from the previous watermark, so the reserved cycle is
    /// identical to the walked answer.
    uint64_t FullBelow = 0;
    std::vector<uint64_t> CycleTag;
    std::vector<uint8_t> Count;
  };
  PortRing AluRing, MulRing, VecRing, LoadRing, StoreRing;
  /// Shared-resource bandwidth: one L3 access per cycle, one DRAM fill per
  /// two cycles (the ring is keyed at half-cycle granularity).
  PortRing L3BwRing, DramBwRing;

  // Store buffer for forwarding: (8-byte granule, data-ready cycle).
  struct PendingStore {
    uint64_t Granule;
    uint64_t Ready;
  };
  std::vector<PendingStore> StoreBuf;
  size_t StoreBufHead = 0;
  /// Counting filter over the granules currently in StoreBuf (hashed into
  /// 256 buckets): a load whose bucket count is zero cannot forward and
  /// skips the buffer scan. Maintained exactly on every insert/evict, so
  /// the scan outcome is unchanged — only the no-match common case gets
  /// cheaper.
  std::array<uint16_t, 256> StoreGranFilter{};

  SimStats Stats;
};

/// Exports \p S into \p R under the `sim.` metric namespace — cycle/
/// instruction/uop counters, issue-bound attribution, branch mispredicts,
/// the IPC/UPC gauges — and delegates the hierarchy counters to the
/// MemStats overload.
void recordMetrics(const SimStats &S, obs::Registry &R);

} // namespace sim
} // namespace flexvec

#endif // FLEXVEC_SIM_OOOCORE_H
