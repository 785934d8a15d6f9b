//===- obs/Metrics.h - Structured metrics registry --------------*- C++ -*-===//
//
// The observability substrate behind the per-cell `metrics` objects in
// BENCH_figure8.json (schema v2) and docs/OBSERVABILITY.md: named
// counters, gauges, and fixed-bucket histograms collected in an
// insertion-ordered Registry that renders to the deterministic JSON writer
// (support/Json.h).
//
// Design rules:
//
//   * Hot paths never touch a Registry. The emulator, transaction
//     manager, and timing model keep their plain always-on stats structs
//     (ExecStats, TxStats, SimStats) — single-increment counters with no
//     indirection — and each layer exports them into a Registry *after*
//     the run via its recordMetrics() hook. The disabled path therefore
//     costs exactly nothing on the hot loop.
//   * Determinism: counters, gauges, and histograms derive from event
//     counts and are byte-stable across worker counts and machines.
//     Wall-clock time never enters a Registry; ScopedTimer accumulates
//     into a plain `double` (the sweep's StageTimes), which only the
//     non-deterministic `run` section reports.
//   * Merging sums counters and histograms in the target's insertion
//     order (new names append in source order). Gauges are per-scope
//     derived values (e.g. IPC) and are skipped by merge(); recompute
//     them for aggregates.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_OBS_METRICS_H
#define FLEXVEC_OBS_METRICS_H

#include "support/Json.h"

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

namespace flexvec {
namespace obs {

/// Monotonic event counter.
class Counter {
public:
  void inc(uint64_t N = 1) { N_ += N; }
  uint64_t value() const { return N_; }

private:
  uint64_t N_ = 0;
};

/// Point-in-time derived value (a rate, a ratio). Not merged across
/// scopes — recompute for aggregates.
class Gauge {
public:
  void set(double V) { V_ = V; }
  double value() const { return V_; }

private:
  double V_ = 0.0;
};

/// Fixed-bucket histogram over small non-negative integers; observations
/// >= the bucket count land in the last bucket.
class Histogram {
public:
  explicit Histogram(unsigned NumBuckets = 1) : Buckets(NumBuckets, 0) {}

  void observe(uint64_t Value) {
    unsigned B = Value < Buckets.size() ? static_cast<unsigned>(Value)
                                        : static_cast<unsigned>(Buckets.size()) - 1;
    ++Buckets[B];
    ++Total_;
  }
  /// Bulk add into one bucket (used when harvesting plain stats arrays).
  void addToBucket(unsigned Bucket, uint64_t Count) {
    unsigned B = Bucket < Buckets.size()
                     ? Bucket
                     : static_cast<unsigned>(Buckets.size()) - 1;
    Buckets[B] += Count;
    Total_ += Count;
  }

  uint64_t bucket(unsigned Idx) const { return Buckets[Idx]; }
  unsigned numBuckets() const { return static_cast<unsigned>(Buckets.size()); }
  uint64_t total() const { return Total_; }

private:
  friend class Registry;
  std::vector<uint64_t> Buckets;
  uint64_t Total_ = 0;
};

/// Insertion-ordered collection of named metrics. Rendering walks the
/// entries in first-registration order, so two registries populated by the
/// same code path render byte-identically.
class Registry {
public:
  Registry() = default;
  Registry(const Registry &O) { copyFrom(O); }
  Registry &operator=(const Registry &O) {
    if (this != &O) {
      Entries.clear();
      Index.clear();
      copyFrom(O);
    }
    return *this;
  }
  Registry(Registry &&) = default;
  Registry &operator=(Registry &&) = default;

  /// Returns the named metric, creating it on first use. A name maps to
  /// exactly one metric kind; re-requesting an existing name with a
  /// different kind is a programming error (asserted).
  Counter &counter(const std::string &Name);
  Gauge &gauge(const std::string &Name);
  Histogram &histogram(const std::string &Name, unsigned NumBuckets);

  /// Lookup without creation; null when \p Name is absent or of a
  /// different kind.
  const Counter *findCounter(const std::string &Name) const;
  const Histogram *findHistogram(const std::string &Name) const;

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }

  /// Sums \p O's counters and histograms into this registry (creating
  /// entries as needed, in \p O's order). Gauges are derived per-scope
  /// values and are skipped.
  void merge(const Registry &O);

  /// Renders an object mapping metric name -> value: counters as
  /// integers, gauges as doubles, histograms as arrays of bucket counts.
  Json toJson() const;

private:
  struct Entry {
    enum class Kind : uint8_t { Counter, Gauge, Histogram } K;
    std::string Name;
    Counter C;
    Gauge G;
    Histogram H{1};
  };

  Entry &entry(const std::string &Name, Entry::Kind K);
  const Entry *find(const std::string &Name, Entry::Kind K) const;
  void copyFrom(const Registry &O);

  /// unique_ptr entries keep returned references stable across growth.
  std::vector<std::unique_ptr<Entry>> Entries;
  std::unordered_map<std::string, size_t> Index;
};

/// RAII wall-clock timer: adds the scope's duration, in milliseconds, to
/// a plain `double` accumulator.
class ScopedTimer {
public:
  explicit ScopedTimer(double &SinkMs)
      : Sink(SinkMs), Start(std::chrono::steady_clock::now()) {}
  ScopedTimer(const ScopedTimer &) = delete;
  ScopedTimer &operator=(const ScopedTimer &) = delete;
  ~ScopedTimer() {
    Sink += std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - Start)
                .count();
  }

private:
  double &Sink;
  std::chrono::steady_clock::time_point Start;
};

} // namespace obs
} // namespace flexvec

#endif // FLEXVEC_OBS_METRICS_H
