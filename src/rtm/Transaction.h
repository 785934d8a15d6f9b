//===- rtm/Transaction.h - Rollback-only transactional memory --*- C++ -*-===//
//
// Restricted transactional memory in the style of Intel RTM / POWER8
// rollback-only transactions (paper Section 3.3.2). The transaction buffers
// an undo log for memory writes and tracks read/write-set footprints in
// cache-line granules; exceeding the capacity, touching a faulting address,
// or an explicit XABORT rolls all tentative memory changes back.
//
// Register rollback is the executing machine's responsibility (it snapshots
// the register file at XBEGIN); this class owns only the memory side.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_RTM_TRANSACTION_H
#define FLEXVEC_RTM_TRANSACTION_H

#include "memory/Memory.h"

#include <cstdint>
#include <unordered_set>
#include <vector>

namespace flexvec {
namespace obs {
class Registry;
}
namespace rtm {

/// Why a transaction aborted.
enum class AbortReason : uint8_t {
  None,     ///< No abort (still running or committed).
  Explicit, ///< XABORT executed.
  Fault,    ///< A memory access inside the transaction faulted.
  Capacity, ///< Read- or write-set exceeded the hardware buffers.
  Conflict, ///< Another core touched the read/write set (injected).
  Spurious, ///< Interrupt/TLB-shootdown style abort (injected).
  Nested,   ///< XBEGIN executed while a transaction was already active.
};

const char *abortReasonName(AbortReason R);

/// True for abort causes that can succeed on re-execution (the bounded
/// retry policy in emu::Machine only retries these). Faults and capacity
/// overflows are deterministic, explicit aborts are intentional, and a
/// nested XBEGIN is a structural bug in the generated code.
inline bool isRetryableAbort(AbortReason R) {
  return R == AbortReason::Conflict || R == AbortReason::Spurious;
}

/// Policy interface for injecting transaction aborts (conflict, capacity,
/// spurious) at deterministic points: before each transactional access and
/// at commit. Returning AbortReason::None injects nothing.
class TxFaultHook {
public:
  virtual ~TxFaultHook();

  /// \p AtCommit is true when consulted from commit(), false when
  /// consulted before a transactional read or write.
  virtual AbortReason injectAbort(bool AtCommit) = 0;
};

/// Hardware capacity limits, approximating Haswell RTM: the write set is
/// bounded by the L1D (512 * 64 B = 32 KiB) and the read set by the L2
/// footprint available for tracking (4096 * 64 B = 256 KiB).
inline constexpr unsigned MaxWriteSetLines = 512;
inline constexpr unsigned MaxReadSetLines = 4096;

/// Aggregate statistics across a TransactionManager's lifetime.
struct TxStats {
  uint64_t Begins = 0;
  uint64_t Commits = 0;
  uint64_t Aborts = 0;
  uint64_t AbortsByFault = 0;
  uint64_t AbortsByCapacity = 0;
  uint64_t AbortsExplicit = 0;
  uint64_t AbortsByConflict = 0;
  uint64_t AbortsSpurious = 0;
  uint64_t AbortsNested = 0;
  uint64_t InjectedAborts = 0;
  uint64_t BytesLogged = 0;
};

/// Manages (non-nested) transactions over one Memory instance.
class TransactionManager {
public:
  explicit TransactionManager(mem::Memory &M) : M(M) {}

  bool isActive() const { return Active; }
  const TxStats &stats() const { return Stats; }

  /// Reason of the most recent abort (sticky until the next abort).
  AbortReason lastAbortReason() const { return LastAbort; }

  /// Installs (or clears) the abort-injection hook; not owned.
  void setFaultHook(TxFaultHook *H) { Hook = H; }

  /// Starts a transaction. Nesting is an architectural abort, not an
  /// error: a begin() while active aborts the running transaction with
  /// AbortReason::Nested and returns false, leaving the caller to branch
  /// to the abort handler. Returns true when a transaction started.
  bool begin();

  /// Commits: tentative writes become permanent, the undo log is
  /// discarded. An injected commit-time abort rolls back instead and
  /// returns false (reason via lastAbortReason()).
  bool commit();

  /// Aborts: tentative writes are undone in reverse order.
  void abort(AbortReason Reason);

  /// Transactional read. Outside a transaction this is a plain read.
  /// Returns false (and aborts the transaction) on fault or capacity
  /// overflow; the caller must then redirect control to the abort handler.
  bool read(uint64_t Addr, void *Out, uint64_t Size, AbortReason &Reason);

  /// Transactional write; undo data is logged first. Same failure contract
  /// as read().
  bool write(uint64_t Addr, const void *Data, uint64_t Size,
             AbortReason &Reason);

private:
  struct UndoRecord {
    uint64_t Addr;
    std::vector<uint8_t> OldBytes;
  };

  bool trackFootprint(uint64_t Addr, uint64_t Size, bool IsWrite);

  mem::Memory &M;
  bool Active = false;
  std::vector<UndoRecord> UndoLog;
  std::unordered_set<uint64_t> ReadSetLines;
  std::unordered_set<uint64_t> WriteSetLines;
  TxStats Stats;
  TxFaultHook *Hook = nullptr;
  AbortReason LastAbort = AbortReason::None;
};

/// Exports \p S into \p R under the `rtm.` metric namespace: begin/commit/
/// abort counters, aborts split by AbortReason, bytes logged, and the
/// derived commit-rate gauge (see docs/OBSERVABILITY.md).
void recordMetrics(const TxStats &S, obs::Registry &R);

} // namespace rtm
} // namespace flexvec

#endif // FLEXVEC_RTM_TRANSACTION_H
