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
// The hot path is flat and allocation-free once warm (docs/PERFORMANCE.md):
// the footprint is one open-addressed line table whose slots are tagged
// with a transaction epoch, so begin/commit/abort empty it in O(1), and the
// undo log is one byte arena plus (addr, offset, size) records.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_RTM_TRANSACTION_H
#define FLEXVEC_RTM_TRANSACTION_H

#include "memory/Memory.h"

#include <cstdint>
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
  TxFaultHook *faultHook() const { return Hook; }

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

  /// Transactional read; only valid while a transaction is active. Draws
  /// the abort hook, reads, then adds the bytes' lines to the read set.
  /// Returns false (and aborts the transaction) on an injected abort, a
  /// fault or capacity overflow, with the cause in lastAbortReason(); the
  /// caller must then redirect control to the abort handler.
  bool read(uint64_t Addr, void *Out, uint64_t Size);

  /// Transactional write; undo data is logged first. Same contract as
  /// read().
  bool write(uint64_t Addr, const void *Data, uint64_t Size);

  /// Block fast path for a contiguous access of \p Size bytes standing for
  /// Size / \p ElemBytes same-sized element accesses (a full-mask vector
  /// load or store inside an active transaction). Returns the page bytes
  /// backing [Addr, Addr+Size) with everything the per-element read()s or
  /// write()s would have done already booked: the footprint lines, and for
  /// the write flavour one undo record of the current bytes plus
  /// bytes_logged. The write flavour's caller then copies the new bytes in.
  ///
  /// Returns nullptr, booking nothing, unless the block is provably
  /// equivalent to the per-element sequence: no abort hook is armed (it
  /// draws once per access), Memory::spanForRead/spanForWrite accept the
  /// span, and the span's lines cannot push the read (write) set past its
  /// capacity even if all of them are new (so no element could have
  /// aborted partway). The caller then runs the per-element path.
  const uint8_t *spanForRead(uint64_t Addr, uint64_t Size, uint64_t ElemBytes);
  uint8_t *spanForWrite(uint64_t Addr, uint64_t Size, uint64_t ElemBytes);

private:
  /// Old bytes of [Addr, Addr+Size) live at UndoBytes[Offset, Offset+Size).
  /// Rollback pokes them back in Grain-byte pieces, last piece first, so a
  /// block record replays exactly like the per-element records it stands
  /// for (same order, same TLB bookings).
  struct UndoRecord {
    uint64_t Addr;
    uint64_t Offset;
    uint32_t Size;
    uint32_t Grain;
  };

  /// One slot of the footprint table; live only while Epoch matches the
  /// manager's. Epoch 0 never matches, so zeroed slots are free.
  struct LineSlot {
    uint64_t Line = 0;
    uint32_t Epoch = 0;
    uint8_t Sets = 0; ///< InReadSet | InWriteSet.
  };
  static constexpr uint8_t InReadSet = 1;
  static constexpr uint8_t InWriteSet = 2;

  /// Empties the footprint in O(1) by moving to the next epoch.
  void clearFootprint();
  /// Adds [Addr, Addr+Size)'s lines to the read or write set; false when
  /// either set now exceeds its capacity.
  bool trackFootprint(uint64_t Addr, uint64_t Size, bool IsWrite);
  void addLine(uint64_t Line, uint8_t Set);
  /// Doubles the line table (first call: allocates it) and rehashes the
  /// live slots.
  void growLineTable();
  /// True when the span's lines fit the read (write) set even if all new.
  bool blockFits(uint64_t Addr, uint64_t Size, bool IsWrite) const;

  mem::Memory &M;
  bool Active = false;
  std::vector<UndoRecord> UndoLog;
  std::vector<uint8_t> UndoBytes;
  /// Open-addressed (linear probing) line table, a power of two in size,
  /// kept at most half full. Empty until the first tracked access.
  std::vector<LineSlot> LineTable;
  unsigned LineShift = 64; ///< 64 - log2(LineTable.size()).
  uint32_t Epoch = 1;
  unsigned LinesUsed = 0;
  unsigned ReadSetLines = 0;
  unsigned WriteSetLines = 0;
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
