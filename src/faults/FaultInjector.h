//===- faults/FaultInjector.h - Deterministic fault injection ---*- C++ -*-===//
//
// Seeded, deterministic fault-injection policies for the memory and RTM
// layers. The FlexVec correctness story rests on graceful fault handling —
// first-faulting loads clip the write mask instead of trapping (paper
// Section 3.3.1) and RTM regions abort, roll back, and reach a fallback
// path (Section 3.3.2) — so those paths must be first-class, *injectable*
// architectural events, not accidents of input data.
//
// One FaultInjector implements both hook interfaces:
//
//  * mem::FaultHook — fail-the-Nth-architectural-access schedules and
//    per-address-range probabilistic faults (transient or persistent).
//    Range decisions are derived from hash(seed, cache line), NOT from a
//    sequential PRNG draw, so the same addresses are faulty no matter how
//    many or in what order accesses happen. That address-determinism is
//    what lets the differential harness run a scalar and a vectorized
//    program under the *same* fault schedule and expect the same
//    architectural outcome.
//
//  * rtm::TxFaultHook — abort the Nth transactional operation and/or
//    abort each operation with a fixed probability, with a configurable
//    abort reason (Conflict, Capacity, Spurious).
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_FAULTS_FAULTINJECTOR_H
#define FLEXVEC_FAULTS_FAULTINJECTOR_H

#include "memory/Memory.h"
#include "rtm/Transaction.h"

#include <string>
#include <unordered_set>
#include <vector>

namespace flexvec {
namespace faults {

/// Whether an injected memory fault clears once it has fired.
enum class FaultDuration : uint8_t {
  Transient,  ///< Faults on the first touch of a line, then heals.
  Persistent, ///< Faults on every touch.
};

/// A probabilistic per-address-range fault. A cache line within
/// [Lo, Hi) is faulty iff hash(Seed, line) < Prob — deterministic in the
/// address, independent of access order and count.
struct RangeFault {
  uint64_t Lo = 0;
  uint64_t Hi = 0;
  double Prob = 1.0;
  FaultDuration Duration = FaultDuration::Persistent;
};

/// Memory-side injection plan.
struct MemFaultPlan {
  uint64_t Seed = 1;
  /// 1-based index of the architectural access to fail (0 = disabled).
  uint64_t FailNthAccess = 0;
  std::vector<RangeFault> Ranges;

  bool enabled() const { return FailNthAccess != 0 || !Ranges.empty(); }
};

/// RTM-side injection plan.
struct TxFaultPlan {
  uint64_t Seed = 1;
  /// 1-based index of the transactional operation to abort (0 = disabled).
  uint64_t AbortNthOp = 0;
  /// Per-operation abort probability (0 = disabled).
  double AbortProb = 0.0;
  /// Reason reported for injected aborts.
  rtm::AbortReason Reason = rtm::AbortReason::Conflict;
  /// Injection stops after this many aborts (models a transient storm).
  uint64_t MaxInjected = UINT64_MAX;

  bool enabled() const { return AbortNthOp != 0 || AbortProb > 0.0; }
};

/// Injection counters, for assertions and reports. Each side counts only
/// while its hook is armed: MemAccessesSeen stays 0 under a plan whose
/// MemFaultPlan is disabled, TxOpsSeen under a disabled TxFaultPlan.
struct InjectorStats {
  uint64_t MemAccessesSeen = 0;
  uint64_t MemFaultsInjected = 0;
  uint64_t TxOpsSeen = 0;
  uint64_t TxAbortsInjected = 0;
};

/// The concrete injector; attach with arm()/disarm() or install the hook
/// interfaces manually.
class FaultInjector : public mem::FaultHook, public rtm::TxFaultHook {
public:
  FaultInjector() = default;
  explicit FaultInjector(MemFaultPlan Mem, TxFaultPlan Tx = TxFaultPlan())
      : Mem(std::move(Mem)), Tx(Tx) {}

  /// Installs this injector into \p M if the memory plan is enabled, and
  /// into \p T (if given) if the transaction plan is enabled. The injector
  /// must outlive the armed objects or be disarmed first; disarm() clears
  /// only what arm() installed.
  void arm(mem::Memory &M, rtm::TransactionManager *T = nullptr);
  void disarm();

  const InjectorStats &stats() const { return Stats; }
  const MemFaultPlan &memPlan() const { return Mem; }
  const TxFaultPlan &txPlan() const { return Tx; }

  /// Human-readable one-line summary of the armed policies.
  std::string describe() const;

  // mem::FaultHook
  bool shouldFault(uint64_t Addr, uint64_t Size, bool IsWrite,
                   uint64_t &FaultAddr) override;

  // rtm::TxFaultHook
  rtm::AbortReason injectAbort(bool AtCommit) override;

private:
  bool lineIsFaulty(const RangeFault &R, uint64_t Line) const;

  MemFaultPlan Mem;
  TxFaultPlan Tx;
  InjectorStats Stats;
  std::unordered_set<uint64_t> HealedLines; ///< Transient lines that fired.
  mem::Memory *ArmedMem = nullptr;
  rtm::TransactionManager *ArmedTx = nullptr;
};

/// Parses "LO:HI:PROB[:transient|persistent]" (addresses in decimal or
/// 0x-hex) into \p Out; returns false with \p Error set on malformed input.
bool parseRangeFault(const std::string &Spec, RangeFault &Out,
                     std::string &Error);

} // namespace faults
} // namespace flexvec

#endif // FLEXVEC_FAULTS_FAULTINJECTOR_H
