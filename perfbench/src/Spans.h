//===- perfbench/src/Spans.h - In-memory span recorder ----------*- C++ -*-===//
//
// The traced pass's instrument. Every call the benchmark makes into a
// layer's public function is wrapped in a span (layer, task id, parent,
// start, end); spans stay in memory until the pass ends and are written out
// once at exit. A layer's self time is its spans' durations minus the parts
// their child spans cover. The timing model is the one exception: it runs
// ~10^5 batches per pass, so a forwarding trace sink charges each
// OooCore::onBatch call to the enclosing emulate span (ModelNs + Batches)
// instead of opening a span per batch.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_PERFBENCH_SPANS_H
#define FLEXVEC_PERFBENCH_SPANS_H

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The span kinds of a traced pass. Pass and Task are the benchmark's own
/// frames (their self time is core.self_ms); the rest each wrap one public
/// entry point of a repository module.
enum class Layer : uint8_t {
  Pass,            ///< One traced pass over the workload.
  Task,            ///< One matrix cell / one generated loop's check.
  WorkloadsInputs, ///< core::SweepWorkload::Gen.
  GenGenerate,     ///< gen::generateLoop.
  GenInputs,       ///< gen::buildConventionInputs.
  IrRoundtrip,     ///< ir::printLoopDsl + ir::parseLoop + re-print.
  IrInterp,        ///< core::runReferenceMulti.
  DriverCompile,   ///< driver::compileLoop / CompileCache::getOrCompile.
  CoreCheck,       ///< core::outcomesMatch.
  EmuSinkless,     ///< runProgramMulti without a sink / ...WithFaults.
  EmuTraced,       ///< runProgramMulti with the timing sink attached.
};
inline constexpr size_t NumLayers = 11;

/// Metric-style name of a layer ("emu.traced", ...).
const char *layerName(Layer L);

struct Span {
  Layer L = Layer::Pass;
  uint32_t Task = 0;
  int32_t Parent = -1; ///< Index into the recorder, -1 for the root.
  int64_t StartNs = 0;
  int64_t EndNs = -1;  ///< -1 while open.
  int64_t ModelNs = 0; ///< Time inside the timing model (EmuTraced only).
  uint64_t Batches = 0;
};

class SpanRecorder {
public:
  /// Opens a span as a child of the innermost open span.
  size_t open(Layer L, uint32_t Task);
  void close(size_t Id);
  /// Charges one timing-model batch to the innermost open span.
  void addModelBatch(int64_t Ns) {
    Span &S = Spans[Open.back()];
    S.ModelNs += Ns;
    ++S.Batches;
  }
  const std::vector<Span> &spans() const { return Spans; }
  void clear() {
    Spans.clear();
    Open.clear();
  }

private:
  std::vector<Span> Spans;
  std::vector<size_t> Open;
};

/// RAII span.
class Scoped {
public:
  Scoped(SpanRecorder &R, Layer L, uint32_t Task) : R(R), Id(R.open(L, Task)) {}
  ~Scoped() { R.close(Id); }
  Scoped(const Scoped &) = delete;
  Scoped &operator=(const Scoped &) = delete;

private:
  SpanRecorder &R;
  size_t Id;
};

/// Self time of every layer in one pass, plus the model time carved out of
/// the emulate spans. By construction sum(SelfNs) + ModelNs == RootNs.
struct SelfTimes {
  std::array<int64_t, NumLayers> SelfNs{};
  int64_t ModelNs = 0;
  uint64_t ModelBatches = 0;
  int64_t RootNs = 0;
};

/// Checks that the spans form one well-nested tree (a single closed root,
/// every child inside its parent, siblings in order, model time only on
/// emulate spans and never above their self time) and fills \p Out.
/// Returns an empty string on success, else what is wrong.
std::string computeSelfTimes(const std::vector<Span> &Spans, SelfTimes &Out);

/// Writes \p Spans as CSV (one span per line). Returns false on IO error.
bool writeSpansCsv(const std::vector<Span> &Spans, const std::string &Path);

} // namespace perfbench

#endif // FLEXVEC_PERFBENCH_SPANS_H
