//===- emu/Machine.h - Functional ISA emulator ------------------*- C++ -*-===//
//
// Architectural-state emulator for the FlexVec target: 32 scalar registers,
// 32 512-bit vector registers, 8 mask registers, a paged memory, and a
// rollback-only transaction unit. Executes finalized Programs and
// optionally streams a dynamic-instruction trace to a sink; the
// out-of-order timing model (src/sim) is such a sink, mirroring the
// trace-driven (LIT checkpoint) methodology of the paper's evaluation.
//
// FlexVec instruction semantics follow the worked examples in Section 3 of
// the paper lane for lane; those examples are encoded as unit tests.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_EMU_MACHINE_H
#define FLEXVEC_EMU_MACHINE_H

#include "isa/Program.h"
#include "memory/Memory.h"
#include "rtm/Transaction.h"

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace flexvec {
namespace obs {
class Registry;
}
namespace emu {
namespace simd {
struct KernelTable;
}

/// One vector register with typed lane accessors. Storage is sized for the
/// widest supported configuration (2048-bit); a run at a narrower vector
/// width simply leaves the upper bytes untouched.
struct VecReg {
  alignas(64) std::array<uint8_t, isa::MaxVectorBytes> Bytes{};

  int64_t laneInt(isa::ElemType Ty, unsigned Lane) const;
  void setLaneInt(isa::ElemType Ty, unsigned Lane, int64_t Value);
  double laneFloat(isa::ElemType Ty, unsigned Lane) const;
  void setLaneFloat(isa::ElemType Ty, unsigned Lane, double Value);

  bool operator==(const VecReg &O) const { return Bytes == O.Bytes; }
};

/// One dynamic instruction, streamed to a TraceSink as it retires from the
/// functional model.
struct DynInstr {
  const isa::Instruction *Instr = nullptr;
  uint32_t InstrIdx = 0;   ///< Static index within the program.
  uint32_t NextIdx = 0;    ///< Dynamic successor (branch-resolved).
  bool Taken = false;      ///< For branches: taken?
  uint64_t ActiveMask = 0; ///< Resolved write mask (vector ops).
  unsigned AccessSize = 0; ///< Bytes per memory access (memory ops).
  /// Vector-register width (bytes) of the producing run; timing models
  /// scale vector-op micro-op counts by it.
  uint16_t VecBytes = isa::VectorBytes;
  /// Effective addresses of the memory accesses this instruction performed
  /// (one per active lane for gathers/scatters). Points into the machine's
  /// batch address pool: valid only for the duration of the sink call that
  /// delivered this record; nullptr when NumMemAddrs is 0.
  const uint64_t *MemAddrs = nullptr;
  uint32_t NumMemAddrs = 0;
};

/// Consumer of the dynamic instruction stream. Delivery is chunked: the
/// machine stages retired instructions in a fixed-size ring and hands the
/// sink whole batches, which replaces one virtual call per retired
/// instruction with one per batch (docs/PERFORMANCE.md). Sinks that only
/// implement onInstr keep working through the default onBatch shim.
class TraceSink {
public:
  virtual ~TraceSink();
  /// Per-instruction delivery (legacy interface); the default onBatch
  /// funnels every batched record through this.
  virtual void onInstr(const DynInstr &DI) = 0;
  /// Batched delivery: \p N retired instructions in program order. The
  /// array and the MemAddrs ranges it references are owned by the machine
  /// and valid only for the duration of the call.
  virtual void onBatch(const DynInstr *Batch, size_t N);
};

/// Why execution stopped.
enum class StopReason : uint8_t {
  Halted,         ///< Halt executed (normal completion).
  Fault,          ///< Unhandled (non-speculative) memory fault.
  BudgetExceeded, ///< Instruction-budget watchdog fired (runaway loop).
};

const char *stopReasonName(StopReason R);

/// Dynamic execution statistics. Everything here is a pure event count —
/// a function of (program, inputs) only — which is what lets the bench
/// export these as byte-stable metrics under --deterministic.
struct ExecStats {
  uint64_t Instructions = 0;
  uint64_t Branches = 0;
  uint64_t TakenBranches = 0;
  uint64_t MemoryAccesses = 0;
  uint64_t VectorOps = 0;     ///< Instructions with isVector() semantics.
  uint64_t RtmRetries = 0;   ///< Aborted transactions re-executed in place.
  uint64_t RtmFallbacks = 0; ///< Aborts dispatched to the abort handler.
  /// Fallbacks caused specifically by a *retryable* abort running out of
  /// retry budget (the demotion-relevant subset of RtmFallbacks).
  uint64_t RtmBudgetExhausted = 0;
  uint64_t BackoffCycles = 0; ///< Simulated stall cycles between retries.
  uint64_t TraceBatches = 0; ///< onBatch deliveries (0 without a sink).

  // Vector Partitioning Loop behaviour (paper Section 3.4): every
  // KFTM.EXC/INC is one VPL step; a step whose safe mask came out smaller
  // than the enabled mask cut the vector short and forces a re-execution
  // partition.
  uint64_t VplSteps = 0;
  uint64_t VplPartitions = 0;

  // First-faulting loads (Section 3.3.1): clip events where a speculative
  // lane faulted and the write mask was truncated, plus how many enabled
  // lanes each clip suppressed.
  uint64_t FFClips = 0;
  uint64_t FFSuppressedLanes = 0;

  // Conflict detection (Section 3.6): VCONFLICTM executions and the total
  // number of lanes they flagged as conflicting.
  uint64_t ConflictChecks = 0;
  uint64_t ConflictHits = 0;

  // Vector-memory fast paths (src/emu/simd): unit-stride full-mask
  // loads/stores that collapsed to one block copy, and vector ops skipped
  // outright because their write mask was all-zeros. Both are decided by
  // (program, inputs, memory layout) only — never by the host backend —
  // so they are deterministic-payload safe.
  uint64_t SimdUnitStrideHits = 0;
  uint64_t SimdMaskShortcircuits = 0;

  /// Write-mask density of vector ops: bucket N counts vector instructions
  /// that executed with exactly N active lanes (0..16 for 512-bit / 32-bit
  /// elements). The paper's partial-vector efficiency argument is read
  /// straight off this distribution. Storage spans the widest supported
  /// configuration (2048-bit / 32-bit elements = 64 lanes); the run stamps
  /// how many buckets its vector width can populate so metric rendering
  /// stays unchanged at the 512-bit default.
  static constexpr unsigned MaskDensityBuckets = 17;
  static constexpr unsigned MaskDensityMaxBuckets =
      isa::MaxVectorBytes / 4 + 1;
  std::array<uint64_t, MaskDensityMaxBuckets> MaskDensity{};
  /// Buckets the producing run's vector width can populate (lanes of the
  /// narrowest element type + 1); 17 for the 512-bit default.
  unsigned MaskDensityUsed = MaskDensityBuckets;

  /// Retry depth of successful transactions: bucket N counts commits that
  /// needed N in-place retries first (last bucket saturates).
  static constexpr unsigned RtmRetryDepthBuckets = 8;
  std::array<uint64_t, RtmRetryDepthBuckets> RtmRetryDepth{};

  std::array<uint64_t, isa::NumOpcodes> OpcodeCounts{};

  uint64_t countOf(isa::Opcode Op) const {
    return OpcodeCounts[static_cast<unsigned>(Op)];
  }

  /// Element-wise accumulation of another run's counts.
  void merge(const ExecStats &O);
};

/// Result of Machine::run. Beyond the stop reason, carries enough
/// diagnostic context to make a fault report actionable: the faulting (or
/// watchdog-interrupted) PC and opcode, the last fault address observed,
/// and the history of transaction aborts seen during the run.
struct ExecResult {
  StopReason Reason = StopReason::Halted;
  uint64_t FaultAddr = 0;  ///< Faulting address (Fault), or the last fault
                           ///< address observed (BudgetExceeded; 0 if none).
  uint32_t FaultPC = 0;    ///< PC of the faulting/interrupted instruction.
  isa::Opcode FaultOp = isa::Opcode::Nop; ///< Its opcode.
  /// Abort reasons in occurrence order (capped at MaxAbortHistory).
  std::vector<rtm::AbortReason> AbortHistory;
  static constexpr size_t MaxAbortHistory = 64;
  ExecStats Stats;

  /// Human-readable diagnostic line, e.g. for harness output.
  std::string describe() const;
};

/// Host-SIMD lane-kernel backend for the hot vector handler bodies
/// (src/emu/simd). Every backend is observably identical to Scalar —
/// ExecStats field for field, trace streams, memory effects, deterministic
/// payloads (SimdEquivalenceTest holds the contract) — so the choice is
/// purely a speed knob.
enum class SimdBackend : uint8_t {
  /// Resolve via the FLEXVEC_SIMD environment variable
  /// ("scalar" | "avx2" | "avx512" | "native"); Native when unset.
  Auto,
  /// Reference lane loops (always available).
  Scalar,
  /// AVX2 kernel table (2x256-bit), if compiled in and supported.
  Avx2,
  /// AVX-512 kernel table (1x512-bit), if compiled in and supported.
  Avx512,
  /// Best table the host CPU supports.
  Native,
};

/// The process-default SIMD backend (resolves SimdBackend::Auto).
SimdBackend defaultSimdBackend();

/// Lower-case name ("scalar", "avx2", ...) for logs and metrics.
const char *simdBackendName(SimdBackend B);

/// Clamps a request to what this build and host can actually execute;
/// the result is always one of Scalar/Avx2/Avx512. Unsupported requests
/// degrade (Avx512 -> Avx2 -> Scalar) rather than fail.
SimdBackend resolveSimdBackend(SimdBackend Requested);

namespace simd {
/// The kernel table implementing \p B (resolved first); emu/simd/Kernels.h.
const KernelTable &kernelsFor(SimdBackend B);
} // namespace simd

/// Execution budget and resilience policy.
struct RunLimits {
  /// Instruction-budget watchdog: stops runaway loops (a Vector
  /// Partitioning Loop that fails to make forward progress) with
  /// StopReason::BudgetExceeded plus diagnostics.
  uint64_t MaxInstructions = 1ULL << 32;
  /// Bounded RTM retry: a transaction aborted for a transient reason
  /// (conflict/spurious) is re-executed from XBEGIN up to this many times
  /// with exponential backoff before control dispatches to the abort
  /// target (the compiled scalar fallback). Deterministic aborts (fault,
  /// capacity, explicit, nested) dispatch immediately.
  unsigned MaxRtmRetries = 4;
  /// Cap on the exponential-backoff shift: retry k stalls 2^min(k, cap)
  /// simulated cycles.
  unsigned MaxRtmBackoffShift = 16;
  /// Lane-kernel backend; Auto defers to FLEXVEC_SIMD.
  SimdBackend Simd = SimdBackend::Auto;
};

/// The architectural machine.
class Machine {
public:
  explicit Machine(mem::Memory &M) : M(M), Tx(M) {}

  /// Scalar register access (FP values live in scalar registers as bit
  /// patterns; see the typed helpers).
  int64_t getScalar(unsigned I) const { return R[I]; }
  void setScalar(unsigned I, int64_t V) { R[I] = V; }
  double getScalarF64(unsigned I) const;
  void setScalarF64(unsigned I, double V);
  float getScalarF32(unsigned I) const;
  void setScalarF32(unsigned I, float V);

  const VecReg &getVector(unsigned I) const { return V[I]; }
  VecReg &vectorReg(unsigned I) { return V[I]; }

  uint64_t getMask(unsigned I) const { return K[I]; }
  void setMask(unsigned I, uint64_t Value) { K[I] = Value; }

  mem::Memory &memory() { return M; }
  const rtm::TxStats &txStats() const { return Tx.stats(); }

  /// The transaction unit, exposed so fault injectors can hook it.
  rtm::TransactionManager &tx() { return Tx; }

  /// Resets registers (memory is untouched).
  void resetRegisters();

  /// Runs \p P from instruction 0 until Halt, fault, or the limit.
  ExecResult run(const isa::Program &P, RunLimits Limits = RunLimits(),
                 TraceSink *Sink = nullptr);

private:
  struct RegSnapshot {
    std::array<int64_t, isa::NumScalarRegs> R;
    std::array<VecReg, isa::NumVectorRegs> V;
    std::array<uint64_t, isa::NumMaskRegs> K;
  };

  /// One pre-decoded instruction: everything the dispatch loop needs,
  /// resolved once per run() instead of per dynamic execution. A dense POD
  /// (isa::Instruction carries a std::string comment and symbolic register
  /// records, so re-deriving element sizes, lane counts, and mask validity
  /// per retired instruction was a measurable cost; see
  /// docs/PERFORMANCE.md).
  struct DecodedInstr {
    isa::Opcode Op;
    isa::ElemType Type;
    isa::CmpKind Cond;
    uint8_t ES;    ///< Element size in bytes.
    uint8_t Lanes; ///< Lanes at this element size and the run's width.
    uint8_t Dst, Src1, Src2, Src3;
    uint8_t EffMask; ///< Write-mask register; NoEffMask = all lanes.
    uint8_t Scale;
    uint8_t Flags;    ///< FlagBranch | FlagVector | FlagSrc2Valid | FlagMemory.
    uint64_t AllMask; ///< lowBitMask(Lanes).
    int64_t Imm;
    int64_t Disp;
    int32_t Target;
  };
  static constexpr uint8_t NoEffMask = 0xff;
  static constexpr uint8_t FlagBranch = 1;
  static constexpr uint8_t FlagVector = 2;
  static constexpr uint8_t FlagSrc2Valid = 4;
  static constexpr uint8_t FlagMemory = 8;

  /// Fills Plan from \p P. Runs once per run() call — the plan must not
  /// outlive the Program it was decoded from, and keying a cache on the
  /// Program's address would misfire when a freed program's storage is
  /// reused.
  void predecode(const isa::Program &P);

  /// The dispatch loop (emu/Interp.inc) over the predecoded plan.
  ExecResult interpret(const isa::Program &P, RunLimits Limits,
                       TraceSink *Sink);

  /// Delivers the staged batch (if any) to \p Sink and resets it.
  void flushBatch(TraceSink *Sink, ExecStats &Stats);

  /// Memory access routed through the transaction unit when one is active.
  /// Returns false on a fault outside a transaction (sets FaultAddr); when
  /// a transaction is active, faults abort it and set TxAborted.
  bool memRead(uint64_t Addr, void *Out, uint64_t Size);
  bool memWrite(uint64_t Addr, const void *Data, uint64_t Size);

  mem::Memory &M;
  rtm::TransactionManager Tx;
  std::array<int64_t, isa::NumScalarRegs> R{};
  std::array<VecReg, isa::NumVectorRegs> V{};
  std::array<uint64_t, isa::NumMaskRegs> K{};

  /// Vector width (bytes) of the program being executed; predecode() reads
  /// it off the Program and bakes lane counts / all-lanes masks into the
  /// plan.
  unsigned VecBytes = isa::VectorBytes;

  // Transaction control state.
  bool TxAborted = false;
  int32_t TxAbortTarget = 0;
  RegSnapshot TxSnapshot;

  // Fault bookkeeping for the current step.
  bool Faulted = false;
  uint64_t FaultAddr = 0;

  /// Lane-kernel table for the current run(), bound from the resolved
  /// RunLimits::Simd before dispatch starts.
  const simd::KernelTable *SimdKern = nullptr;

  // Pre-decoded dispatch plan and trace-batching state, reused across
  // run() calls so the hot loop performs no per-instruction allocation.
  static constexpr size_t TraceBatchSize = 64;
  std::vector<DecodedInstr> Plan;
  /// Flat pool of effective addresses for the staged batch; DynInstr
  /// records reference ranges of it (fixed up at flush, since the pool may
  /// reallocate while the batch fills).
  std::vector<uint64_t> AddrPool;
  std::array<DynInstr, TraceBatchSize> Batch;
  std::array<uint32_t, TraceBatchSize> BatchAddrOff;
  size_t BatchLen = 0;
};

/// Exports \p S into \p R under the `emu.` metric namespace (counters plus
/// the mask-density and RTM-retry-depth histograms); see
/// docs/OBSERVABILITY.md for the catalog.
void recordMetrics(const ExecStats &S, obs::Registry &R);

} // namespace emu
} // namespace flexvec

#endif // FLEXVEC_EMU_MACHINE_H
