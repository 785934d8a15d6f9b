//===- driver/Remarks.h - Structured vectorization remarks ------*- C++ -*-===//
//
// LLVM-style optimization remarks for the FlexVec compiler: every pass
// reports what it recognized, what it transformed, and — crucially — why it
// declined, as structured records instead of ad-hoc strings or silent
// nullopts. The stream is part of the compile result, so it is cached with
// the programs, rendered into the bench payload's per-cell JSON, and
// exposed through `flexvec-cli --remarks[=json]`.
//
// Determinism contract: a remark stream is a pure function of the loop
// *structure* (remarks never embed the loop's name — structurally identical
// loops share one cached compile, so any name-dependent byte would make the
// bench payload depend on which workload compiled first). Messages may
// reference scalar/array parameter names and statement ids, which are part
// of the structural cache key.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_DRIVER_REMARKS_H
#define FLEXVEC_DRIVER_REMARKS_H

#include "support/Json.h"

#include <cstdint>
#include <string>
#include <vector>

namespace flexvec {
namespace driver {

/// What a remark reports.
enum class RemarkKind : uint8_t {
  Analysis, ///< A fact established about the loop (patterns, shape).
  Applied,  ///< A transformation that fired (a variant was generated).
  Missed,   ///< A transformation that was declined, with the reason.
  Note,     ///< Supporting detail (scalar codegen notes).
};

const char *remarkKindName(RemarkKind K);

/// One structured remark.
struct Remark {
  RemarkKind Kind = RemarkKind::Note;
  std::string Pass;    ///< Emitting pass ("pattern-analysis", "lower", ...).
  std::string Id;      ///< Stable machine-readable slug ("early-exit",
                       ///< "decline.reductions-with-speculative-loads", ...).
  std::string Variant; ///< codegen::variantName; empty for analysis passes.
  int Node = 0;        ///< Statement id (S1..Sn); 0 means the whole loop.
  std::string Message; ///< Human-readable explanation.

  /// Deterministic JSON object (insertion-ordered keys; optional fields
  /// omitted rather than nulled so payloads stay compact and stable).
  Json toJson() const;

  /// One-line text rendering for `flexvec-cli --remarks`.
  std::string str() const;
};

/// Insertion-ordered remark collector, owned by the compile result.
class RemarkStream {
public:
  /// Emits a remark and returns it for field fixups (Node, Variant).
  Remark &emit(RemarkKind K, std::string Pass, std::string Id,
               std::string Message);

  Remark &analysis(std::string Pass, std::string Id, std::string Message) {
    return emit(RemarkKind::Analysis, std::move(Pass), std::move(Id),
                std::move(Message));
  }
  Remark &applied(std::string Pass, std::string Id, std::string Message) {
    return emit(RemarkKind::Applied, std::move(Pass), std::move(Id),
                std::move(Message));
  }
  Remark &missed(std::string Pass, std::string Id, std::string Message) {
    return emit(RemarkKind::Missed, std::move(Pass), std::move(Id),
                std::move(Message));
  }
  Remark &note(std::string Pass, std::string Id, std::string Message) {
    return emit(RemarkKind::Note, std::move(Pass), std::move(Id),
                std::move(Message));
  }

  const std::vector<Remark> &remarks() const { return All; }
  bool empty() const { return All.empty(); }
  size_t size() const { return All.size(); }

  /// How many remarks of kind \p K the stream holds (bench counters).
  size_t count(RemarkKind K) const {
    size_t N = 0;
    for (const Remark &R : All)
      N += R.Kind == K;
    return N;
  }

  /// The most recent Missed remark tagged \p Variant (why that variant was
  /// declined), or nullptr when there is none.
  const Remark *lastMissed(const std::string &Variant) const;

  /// The whole stream as a deterministic JSON array.
  Json toJson() const;

  /// The stream filtered for one variant column: remarks with no variant
  /// (analysis facts) plus remarks tagged \p Variant.
  Json toJsonFor(const std::string &Variant) const;

  /// Text listing, one remark per line.
  std::string render() const;

private:
  std::vector<Remark> All;
};

} // namespace driver
} // namespace flexvec

#endif // FLEXVEC_DRIVER_REMARKS_H
