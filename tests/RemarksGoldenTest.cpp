//===- tests/RemarksGoldenTest.cpp - Golden-file remark regression ---------===//
//
// Pins the structured vectorization-remark stream (driver/Remarks.h) for a
// representative set of loops against checked-in golden JSON files in
// tests/golden/remarks/. The set is chosen so every remark id the pipeline
// can emit appears in at least one golden: pattern recognition (reductions,
// early exits, conditional updates, memory conflicts), the speculative-load
// analysis, every lowering strategy's applied remark, and — crucially — each
// decline reason, including FlexVec's reductions-with-speculative-loads
// refusal and the speculative baseline's legality walk.
//
// To regenerate after an intentional change:
//
//   FLEXVEC_UPDATE_GOLDEN=1 ./build/tests/remarks_golden_test
//
// then review the diff of tests/golden/remarks/*.json like any other code
// change.
//
//===----------------------------------------------------------------------===//

#include "driver/AdaptiveStrategy.h"
#include "driver/CompilerDriver.h"
#include "driver/Remarks.h"
#include "ir/Parser.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

using namespace flexvec;

namespace {

std::string readFile(const std::string &Path, bool *Ok = nullptr) {
  std::ifstream In(Path);
  if (Ok)
    *Ok = In.good();
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

/// One golden case: either a checked-in loop file (relative to the source
/// tree) or an inline DSL source for shapes the corpus does not cover.
struct RemarkCase {
  const char *Name;   ///< Golden file stem under tests/golden/remarks/.
  const char *Path;   ///< Loop file relative to the repo root, or nullptr.
  const char *Source; ///< Inline DSL source when Path is nullptr.
};

const RemarkCase Cases[] = {
    // The three flagship loops: conditional update, early exit with
    // speculative loads, and a runtime memory conflict.
    {"argmin", "examples/loops/argmin.fv", nullptr},
    {"find_first", "examples/loops/find_first.fv", nullptr},
    {"histogram", "examples/loops/histogram.fv", nullptr},
    // Early exit behind a masked indirect gather (string_match shape).
    {"find_sentinel", "tests/corpus/find_sentinel.fv", nullptr},
    // Plain add reduction: vectorizable by every strategy, exercises the
    // unguarded reduction analysis remark and traditional's applied path.
    {"sum_reduction", nullptr,
     "loop sum_reduction(i64 n trip, i32 acc liveout, i32 a[] readonly) {\n"
     "  acc = (acc + a[i]);\n"
     "}\n"},
    // Reduction behind an early exit: the loads run speculatively past the
    // exit, so FlexVec must refuse (reductions cannot be rolled back when a
    // first-faulting load truncates the chunk) while RTM still fires.
    {"sum_until_sentinel", nullptr,
     "loop sum_until_sentinel(i64 n trip, i32 acc liveout, i32 sentinel,\n"
     "                        i32 c, i32 a[] readonly) {\n"
     "  c = a[i];\n"
     "  if (c == sentinel) {\n"
     "    break;\n"
     "  }\n"
     "  acc = (acc + c);\n"
     "}\n"},
};

std::string goldenPath(const RemarkCase &C) {
  return std::string(FLEXVEC_SOURCE_DIR) + "/tests/golden/remarks/" +
         C.Name + ".json";
}

/// Points at the first differing line so CI logs read like a diff hunk.
void expectGoldenEq(const std::string &Golden, const std::string &Actual,
                    const std::string &GoldenPath) {
  if (Golden == Actual)
    return;
  std::istringstream G(Golden), A(Actual);
  std::string GLine, ALine;
  int Line = 1;
  while (true) {
    bool HasG = static_cast<bool>(std::getline(G, GLine));
    bool HasA = static_cast<bool>(std::getline(A, ALine));
    if (!HasG && !HasA)
      break;
    if (!HasG || !HasA || GLine != ALine) {
      FAIL() << GoldenPath << ":" << Line << ": first difference\n"
             << "  golden: " << (HasG ? GLine : "<eof>") << "\n"
             << "  actual: " << (HasA ? ALine : "<eof>") << "\n"
             << "regenerate with FLEXVEC_UPDATE_GOLDEN=1 if intentional";
      return;
    }
    ++Line;
  }
  FAIL() << GoldenPath << ": contents differ (line-by-line scan found no "
            "difference; check trailing whitespace)";
}

class RemarksGolden : public ::testing::TestWithParam<RemarkCase> {};

TEST_P(RemarksGolden, MatchesCheckedInFile) {
  const RemarkCase &C = GetParam();
  std::string Source;
  if (C.Path) {
    bool Ok = false;
    Source = readFile(std::string(FLEXVEC_SOURCE_DIR) + "/" + C.Path, &Ok);
    ASSERT_TRUE(Ok) << "cannot read " << C.Path;
  } else {
    Source = C.Source;
  }
  ir::ParseResult P = ir::parseLoop(Source);
  ASSERT_TRUE(P) << C.Name << ": " << P.Error;

  // RtmTile=64 to match the codegen goldens (the RTM applied remark quotes
  // the tile size in its message).
  driver::CompileResult PR = driver::compileLoop(*P.F, {.RtmTile = 64});
  std::string Actual = PR.Remarks.toJson().dump();

  std::string Path = goldenPath(C);
  if (std::getenv("FLEXVEC_UPDATE_GOLDEN")) {
    std::ofstream Out(Path);
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    Out << Actual;
    GTEST_SKIP() << "regenerated " << Path;
  }

  bool Ok = false;
  std::string Golden = readFile(Path, &Ok);
  ASSERT_TRUE(Ok) << "missing golden file " << Path
                  << " (generate with FLEXVEC_UPDATE_GOLDEN=1)";
  expectGoldenEq(Golden, Actual, Path);
}

// No silent declines: independent of the golden bytes, every variant the
// pipeline did not produce must carry a machine-readable missed remark from
// the lowering pass, and every produced one an applied remark.
TEST_P(RemarksGolden, EveryDeclineIsObservable) {
  const RemarkCase &C = GetParam();
  std::string Source =
      C.Path ? readFile(std::string(FLEXVEC_SOURCE_DIR) + "/" + C.Path)
             : std::string(C.Source);
  ir::ParseResult P = ir::parseLoop(Source);
  ASSERT_TRUE(P) << C.Name << ": " << P.Error;
  driver::CompileResult PR = driver::compileLoop(*P.F, {.RtmTile = 64});

  struct Column {
    const char *Variant;
    bool Generated;
  } Columns[] = {
      {"traditional", PR.Traditional.has_value()},
      {"speculative", PR.Speculative.has_value()},
      {"flexvec", PR.FlexVec.has_value()},
      {"flexvec-rtm", PR.Rtm.has_value()},
      {"flexvec-adaptive", PR.Adaptive.has_value()},
  };
  for (const Column &Col : Columns) {
    bool Applied = false, Missed = false;
    for (const driver::Remark &R : PR.Remarks.remarks()) {
      if (R.Pass != "lower" || R.Variant != Col.Variant)
        continue;
      Applied |= R.Kind == driver::RemarkKind::Applied;
      Missed |= R.Kind == driver::RemarkKind::Missed;
    }
    if (Col.Generated)
      EXPECT_TRUE(Applied) << C.Name << ": " << Col.Variant
                           << " generated without an applied remark";
    else
      EXPECT_TRUE(Missed) << C.Name << ": " << Col.Variant
                          << " declined silently (no missed remark)";
  }
}

INSTANTIATE_TEST_SUITE_P(RepresentativeLoops, RemarksGolden,
                         ::testing::ValuesIn(Cases),
                         [](const ::testing::TestParamInfo<RemarkCase> &I) {
                           return std::string(I.param.Name);
                         });

// The FlexVec refusal the paper calls out (Section 4.3): a reduction whose
// inputs load speculatively past an early exit cannot use first-faulting
// loads, because a truncated chunk would have already folded poisoned lanes
// into the accumulator. The decline must be a structured remark with the
// stable id, not a silent nullopt.
TEST(Remarks, ReductionWithSpeculativeLoadsRefusal) {
  const RemarkCase *C = nullptr;
  for (const RemarkCase &RC : Cases)
    if (std::string(RC.Name) == "sum_until_sentinel")
      C = &RC;
  ASSERT_NE(C, nullptr);
  ir::ParseResult P = ir::parseLoop(C->Source);
  ASSERT_TRUE(P) << P.Error;
  driver::CompileResult PR = driver::compileLoop(*P.F, {.RtmTile = 64});

  ASSERT_TRUE(PR.Plan.Vectorizable);
  EXPECT_FALSE(PR.Plan.Reductions.empty());
  EXPECT_FALSE(PR.Plan.SpeculativeLoadNodes.empty());
  EXPECT_FALSE(PR.FlexVec) << "FlexVec must refuse reductions with "
                              "speculative loads";
  EXPECT_TRUE(PR.Rtm) << "RTM handles the same loop via rollback";

  // flexvec-cli prints its "note: flexvec: <why>" line from this remark.
  const driver::Remark *Decline = PR.Remarks.lastMissed("flexvec");
  ASSERT_NE(Decline, nullptr);
  EXPECT_EQ(Decline->Id, "decline.reductions-with-speculative-loads");
  EXPECT_EQ(Decline->Pass, "lower");
}

// The three runtime dispatch remark ids are API: obs dashboards and the
// bench payload key on them, so their ids, pass, and variant tags are
// pinned here — and the synthesis never goes silent (every adaptive
// execution yields exactly one demoted-or-stayed verdict).
TEST(Remarks, DispatchRemarkIdsArePinned) {
  driver::DispatchCounts C;
  C.GuardFail = 2;
  C.Invocations = 8;
  C.AbortedInvocations = 8;
  C.Demotions = 1;
  C.State = 1;
  std::vector<driver::Remark> Rs = driver::dispatchRemarks(C);
  ASSERT_EQ(Rs.size(), 2u);
  EXPECT_EQ(Rs[0].Id, "dispatch.guard-failed");
  EXPECT_EQ(Rs[0].Pass, "dispatch");
  EXPECT_EQ(Rs[0].Kind, driver::RemarkKind::Analysis);
  EXPECT_EQ(Rs[0].Variant, "flexvec-adaptive");
  EXPECT_EQ(Rs[1].Id, "dispatch.demoted");
  EXPECT_EQ(Rs[1].Pass, "dispatch");
  EXPECT_EQ(Rs[1].Kind, driver::RemarkKind::Applied);
  EXPECT_EQ(Rs[1].Variant, "flexvec-adaptive");

  // Exhaustive verdict coverage: any counter state produces exactly one of
  // dispatch.demoted / dispatch.promoted-stay — never neither.
  for (uint64_t State : {0u, 1u}) {
    driver::DispatchCounts Any;
    Any.State = State;
    Any.Demotions = State;
    std::vector<driver::Remark> Out = driver::dispatchRemarks(Any);
    ASSERT_EQ(Out.size(), 1u);
    EXPECT_EQ(Out[0].Id,
              State ? "dispatch.demoted" : "dispatch.promoted-stay");
  }
}

} // namespace
