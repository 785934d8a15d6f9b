//===- core/CompileCache.cpp ----------------------------------------------===//

#include "core/CompileCache.h"

#include "support/Hash.h"

#include <chrono>

using namespace flexvec;
using namespace flexvec::core;

/// Bump when a pipeline change should invalidate previously hashed keys
/// (persisted keys may outlive one process in the future).
static constexpr uint64_t PipelineVersion =
    5; // width-generic pipeline: VL + predication join the key

uint64_t CompileCache::keyFor(const ir::LoopFunction &F, unsigned RtmTile,
                              isa::VectorConfig Vec, bool Predicated) {
  // F.print() renders the full structure — parameters with types and
  // attributes, statements in lexical order — prefixed by the loop name on
  // its first line. Strip the name so structurally identical loops share a
  // key: the name occurs exactly once, between "loop " and " (".
  std::string Text = F.print();
  size_t Open = Text.find(" (");
  if (Text.rfind("loop ", 0) == 0 && Open != std::string::npos)
    Text.erase(5, Open - 5);
  uint64_t H = fnv1a64(Text);
  H = hashCombine(H, RtmTile);
  H = hashCombine(H, Vec.Bytes);
  H = hashCombine(H, Predicated ? 1u : 0u);
  H = hashCombine(H, PipelineVersion);
  return H;
}

std::shared_ptr<const driver::CompileResult>
CompileCache::getOrCompile(const ir::LoopFunction &F, unsigned RtmTile,
                           bool *WasHit, isa::VectorConfig Vec,
                           bool Predicated) {
  uint64_t Key = keyFor(F, RtmTile, Vec, Predicated);

  std::promise<std::shared_ptr<const driver::CompileResult>> Promise;
  Entry Fut;
  bool Compile = false;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      Fut = It->second;
    } else {
      Fut = Promise.get_future().share();
      Map.emplace(Key, Fut);
      Compile = true;
    }
  }

  if (Compile) {
    Misses.fetch_add(1, std::memory_order_relaxed);
    if (WasHit)
      *WasHit = false;
    try {
      driver::DriverOptions Opts;
      Opts.RtmTile = RtmTile;
      Opts.Vec = Vec;
      Opts.Predicated = Predicated;
      auto R = std::make_shared<const driver::CompileResult>(
          driver::compileLoop(F, Opts));
      Promise.set_value(R);
      return R;
    } catch (...) {
      // Unblock any waiters, drop the poisoned entry, and rethrow.
      Promise.set_exception(std::current_exception());
      std::lock_guard<std::mutex> Lock(Mu);
      Map.erase(Key);
      throw;
    }
  }
  Hits.fetch_add(1, std::memory_order_relaxed);
  if (WasHit)
    *WasHit = true;
  if (Fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready)
    Waits.fetch_add(1, std::memory_order_relaxed);
  return Fut.get();
}

size_t CompileCache::size() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Map.size();
}

void CompileCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
}
