//===- sim/Config.h - Simulated machine configuration ----------*- C++ -*-===//
//
// Table 1 of the paper: an aggressive out-of-order core. The model
// simulates this one machine, so its parameters are constants:
//
//   Fetch/Commit                  5/5 wide
//   RS 97, ROB 224, LQ/SQ 80/56
//   L1I 32K/4w (1 cycle), L1D 32K/8w (4-cycle load-to-use),
//   L2 256K/8w (12), L3 8M/32w (25), memory 200 cycles
//   2 load ports, 1 store port
//
// Table 1's dispatch and issue widths (5 and 8) are not modelled: dispatch
// has no width limit of its own, and issue is bounded only by the
// execution units below. Lines are mem::LineBytes (64) everywhere.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_SIM_CONFIG_H
#define FLEXVEC_SIM_CONFIG_H

#include <cstdint>

namespace flexvec {
namespace sim {

struct CacheLevelConfig {
  uint64_t SizeBytes;
  unsigned Ways;
  unsigned LatencyCycles;
};

inline constexpr unsigned FetchWidth = 5;
inline constexpr unsigned CommitWidth = 5;

inline constexpr unsigned RsEntries = 97;
inline constexpr unsigned RobEntries = 224;
inline constexpr unsigned LoadQueueEntries = 80;
inline constexpr unsigned StoreQueueEntries = 56;

inline constexpr unsigned AluUnits = 4; ///< Scalar integer (also branches).
inline constexpr unsigned MulUnits = 1;
inline constexpr unsigned VecUnits = 2; ///< Vector/FP/mask execution.
inline constexpr unsigned LoadPorts = 2;
inline constexpr unsigned StorePorts = 1;

/// Redirect + front-end refill after a mispredicted branch.
inline constexpr unsigned MispredictPenalty = 14;

inline constexpr CacheLevelConfig L1D{32 * 1024, 8, 4};
inline constexpr CacheLevelConfig L2{256 * 1024, 8, 12};
inline constexpr CacheLevelConfig L3{8 * 1024 * 1024, 32, 25};
inline constexpr unsigned MemoryLatency = 200;

/// Store-to-load forwarding latency when a load hits an in-flight store.
inline constexpr unsigned ForwardLatency = 5;

/// Stream prefetcher: lines fetched ahead; never crosses a 4 KiB page (the
/// behaviour the paper calls out in Section 5).
inline constexpr unsigned PrefetchDegree = 2;

/// Gshare branch predictor: 2^14 two-bit counters, 12 bits of history.
inline constexpr unsigned BpTableBits = 14;
inline constexpr unsigned BpHistoryBits = 12;

} // namespace sim
} // namespace flexvec

#endif // FLEXVEC_SIM_CONFIG_H
