//===- sim/Config.h - Simulated machine configuration ----------*- C++ -*-===//
//
// Table 1 of the paper: an aggressive out-of-order core. Defaults
// reproduce the published configuration:
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

struct CoreConfig {
  unsigned FetchWidth = 5;
  unsigned CommitWidth = 5;

  unsigned RsEntries = 97;
  unsigned RobEntries = 224;
  unsigned LoadQueueEntries = 80;
  unsigned StoreQueueEntries = 56;

  unsigned AluUnits = 4;  ///< Scalar integer (also resolves branches).
  unsigned MulUnits = 1;
  unsigned VecUnits = 2;  ///< Vector/FP/mask execution.
  unsigned LoadPorts = 2; ///< Table 1.
  unsigned StorePorts = 1;

  unsigned MispredictPenalty = 14; ///< Redirect + front-end refill.

  CacheLevelConfig L1D{32 * 1024, 8, 4};
  CacheLevelConfig L2{256 * 1024, 8, 12};
  CacheLevelConfig L3{8 * 1024 * 1024, 32, 25};
  unsigned MemoryLatency = 200;

  /// Store-to-load forwarding latency when a load hits an in-flight store.
  unsigned ForwardLatency = 5;

  /// Stride prefetcher: degree of lines fetched ahead; never crosses a
  /// 4 KiB page (the behaviour the paper calls out in Section 5).
  unsigned PrefetchDegree = 2;
  bool EnablePrefetcher = true;
};

} // namespace sim
} // namespace flexvec

#endif // FLEXVEC_SIM_CONFIG_H
