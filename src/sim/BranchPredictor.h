//===- sim/BranchPredictor.h - Gshare direction predictor ------*- C++ -*-===//

#ifndef FLEXVEC_SIM_BRANCHPREDICTOR_H
#define FLEXVEC_SIM_BRANCHPREDICTOR_H

#include "sim/Config.h"

#include <cstdint>
#include <vector>

namespace flexvec {
namespace sim {

/// Gshare: global-history-xor-PC indexed table of 2-bit counters.
class BranchPredictor {
public:
  BranchPredictor() : Table(1u << BpTableBits, 2 /*weakly taken*/) {}

  /// Predicts the direction for static instruction \p Pc, then updates the
  /// predictor with the real \p Taken outcome. Returns true when the
  /// prediction was correct.
  bool predictAndUpdate(uint32_t Pc, bool Taken) {
    uint32_t Idx = (Pc ^ History) & IndexMask;
    uint8_t &Ctr = Table[Idx];
    bool Predicted = Ctr >= 2;
    if (Taken && Ctr < 3)
      ++Ctr;
    if (!Taken && Ctr > 0)
      --Ctr;
    History = ((History << 1) | (Taken ? 1u : 0u)) & HistoryMask;
    if (Predicted == Taken)
      ++Correct;
    else
      ++Wrong;
    return Predicted == Taken;
  }

  uint64_t correct() const { return Correct; }
  uint64_t mispredicts() const { return Wrong; }

private:
  static constexpr uint32_t IndexMask = (1u << BpTableBits) - 1;
  static constexpr uint32_t HistoryMask = (1u << BpHistoryBits) - 1;

  std::vector<uint8_t> Table;
  uint32_t History = 0;
  uint64_t Correct = 0;
  uint64_t Wrong = 0;
};

} // namespace sim
} // namespace flexvec

#endif // FLEXVEC_SIM_BRANCHPREDICTOR_H
