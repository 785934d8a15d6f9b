//===- core/CompileCache.h - Compiled-loop content cache --------*- C++ -*-===//
//
// Caches driver::compileLoop() results keyed by a content hash of the IR
// loop and the pipeline configuration (RTM tile size + a pipeline version
// stamp), so repeated sweeps and multi-trip runs skip recompilation. The key
// deliberately ignores the loop's *name*: the 18 Table 2 workloads are
// instantiated from five templates, and two benchmarks whose loops differ
// only by name share one compilation.
//
// Thread-safe: concurrent getOrCompile calls for the same key block on a
// shared future while the first caller compiles, so each key is compiled
// exactly once. That makes the hit/miss counters deterministic functions
// of the request multiset, independent of the worker count — which the
// determinism tests rely on when they compare BENCH JSON payloads across
// --jobs values.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_CORE_COMPILECACHE_H
#define FLEXVEC_CORE_COMPILECACHE_H

// Only perfbench/src/{Table2,Fuzz}.cpp still use the alias it declares.
#include "core/Pipeline.h"

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace flexvec {
namespace core {

class CompileCache {
public:
  /// Content hash of (loop structure, RtmTile, vector width, predication
  /// mode, pipeline version). Stable across platforms and runs; ignores
  /// the loop name. Width and predication participate so compilations for
  /// different VLs never alias.
  static uint64_t keyFor(const ir::LoopFunction &F, unsigned RtmTile,
                         isa::VectorConfig Vec = isa::VectorConfig(),
                         bool Predicated = false);

  /// Returns the cached pipeline result for \p F, compiling it on the
  /// first request. \p WasHit (optional) reports whether this call was
  /// served from cache (a call that waits on an in-flight compile counts
  /// as a hit).
  std::shared_ptr<const driver::CompileResult>
  getOrCompile(const ir::LoopFunction &F,
               unsigned RtmTile = codegen::DefaultRtmTile,
               bool *WasHit = nullptr,
               isa::VectorConfig Vec = isa::VectorConfig(),
               bool Predicated = false);

  uint64_t hits() const { return Hits.load(std::memory_order_relaxed); }
  uint64_t misses() const { return Misses.load(std::memory_order_relaxed); }
  /// Hits that found the compile still in flight and blocked on the shared
  /// future. Schedule-dependent (more workers → more overlap), so the
  /// bench reports it as a non-deterministic run metric only.
  uint64_t waits() const { return Waits.load(std::memory_order_relaxed); }
  size_t size() const;

  /// Drops every cached program (counters are kept).
  void clear();

private:
  using Entry =
      std::shared_future<std::shared_ptr<const driver::CompileResult>>;

  mutable std::mutex Mu;
  std::map<uint64_t, Entry> Map;
  std::atomic<uint64_t> Hits{0}, Misses{0}, Waits{0};
};

} // namespace core
} // namespace flexvec

#endif // FLEXVEC_CORE_COMPILECACHE_H
