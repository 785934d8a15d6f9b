//===- tests/ParserTest.cpp - Loop DSL parser tests ------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "ir/Parser.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace flexvec;
using namespace flexvec::ir;

namespace {

const char *H264Text = R"(
// The paper's Section 1.1 motion-search loop.
loop h264_motion_search(i64 max_pos trip, i32 min_mcost liveout,
                        i32 best_pos liveout, i32 mcost, i32 cand,
                        i32 block_sad[] readonly, i32 spiral[] readonly,
                        i32 mv[] readonly) {
  if (block_sad[i] < min_mcost) {
    mcost = block_sad[i];
    cand = spiral[i];
    mcost = mcost + mv[cand];
    if (mcost < min_mcost) {
      min_mcost = mcost;
      best_pos = i;
    }
  }
}
)";

} // namespace

TEST(Parser, ParsesTheH264Loop) {
  ParseResult R = parseLoop(H264Text);
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.F->name(), "h264_motion_search");
  EXPECT_EQ(R.F->scalars().size(), 5u);
  EXPECT_EQ(R.F->arrays().size(), 3u);
  EXPECT_EQ(R.F->tripCountScalar(), 0);
  EXPECT_TRUE(R.F->scalar(1).IsLiveOut);
  EXPECT_TRUE(R.F->array(0).ReadOnly);
  EXPECT_EQ(R.F->numStmts(), 7);
}

TEST(Parser, ParsedLoopMatchesBuilderLoopBehaviour) {
  ParseResult R = parseLoop(H264Text);
  ASSERT_TRUE(R) << R.Error;
  auto Builder = workloads::buildH264Loop();

  driver::CompileResult PP = driver::compileLoop(*R.F);
  driver::CompileResult PB = driver::compileLoop(*Builder);
  ASSERT_TRUE(PP.Plan.Vectorizable) << PP.Plan.Reason;
  EXPECT_EQ(PP.Plan.needsFlexVec(), PB.Plan.needsFlexVec());
  EXPECT_EQ(PP.Plan.CondUpdateVpls.size(), PB.Plan.CondUpdateVpls.size());
  EXPECT_EQ(PP.Plan.SpeculativeLoadNodes, PB.Plan.SpeculativeLoadNodes);

  // Same bindings layout (parameter order matches) → identical results.
  Rng Rand(5);
  workloads::LoopInputs In = workloads::genH264Inputs(*Builder, Rand, 3000,
                                                      0.05);
  core::RunOutcome RefBuilder =
      core::runReferenceMulti(*Builder, In.Image, {In.B});
  core::RunOutcome RefParsed =
      core::runReferenceMulti(*R.F, In.Image, {In.B});
  EXPECT_EQ(RefBuilder.MemFingerprint, RefParsed.MemFingerprint);
  EXPECT_EQ(RefBuilder.LiveOuts, RefParsed.LiveOuts);

  core::RunOutcome Flex =
      core::runProgramMulti(*R.F, *PP.FlexVec, In.Image, {In.B});
  EXPECT_TRUE(core::outcomesMatch(*R.F, RefParsed, Flex));
}

TEST(Parser, FloatLiteralsCoerceToContext) {
  ParseResult R = parseLoop(R"(
loop fsum(i64 n trip, f32 acc liveout, f32 w[] readonly) {
  acc = acc + w[i] * 3;
})");
  ASSERT_TRUE(R) << R.Error;
  // `3` must have become an f32 constant.
  const Stmt *S = R.F->body()[0];
  ASSERT_EQ(S->Kind, StmtKind::AssignScalar);
  EXPECT_TRUE(isa::isFloatType(S->Value->Type));

  // And the loop should compile as a float add-reduction.
  driver::CompileResult PR = driver::compileLoop(*R.F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.Reductions.size(), 1u);
}

TEST(Parser, FloatConstantsRoundTripExactlyThroughDsl) {
  // The unparser output is pasted back in as a reproducer when a
  // differential test fails, so every finite double must survive
  // print -> parse bit-for-bit (%g's 6 significant digits did not).
  const double Awkward[] = {0.30000000000000004, 1.0 / 3.0, 1e-7,
                            6.02214076e23, 1.0000000000000002};
  for (double V : Awkward) {
    char Src[160];
    std::snprintf(Src, sizeof(Src),
                  "loop fc(i64 n trip, f64 acc liveout) { acc = %.17g; }", V);
    ParseResult R = parseLoop(Src);
    ASSERT_TRUE(R) << R.Error;
    std::string Dsl = printLoopDsl(*R.F);
    ParseResult R2 = parseLoop(Dsl);
    ASSERT_TRUE(R2) << R2.Error << "\n" << Dsl;
    const Stmt *S = R2.F->body()[0];
    ASSERT_EQ(S->Value->Kind, ExprKind::ConstFloat) << Dsl;
    EXPECT_EQ(S->Value->FloatValue, V) << Dsl;
  }
}

TEST(Parser, OperatorPrecedenceAndParens) {
  ParseResult R = parseLoop(R"(
loop prec(i64 n trip, i32 s, i32 a[] readonly) {
  s = a[i] + a[i] * 2;
  s = (a[i] + a[i]) * 2;
  s = min(a[i], 7) - max(a[i], 3);
})");
  ASSERT_TRUE(R) << R.Error;
  const Stmt *S1 = R.F->body()[0];
  EXPECT_EQ(S1->Value->Op, BinOp::Add); // Mul binds tighter.
  const Stmt *S2 = R.F->body()[1];
  EXPECT_EQ(S2->Value->Op, BinOp::Mul); // Parens override.
  const Stmt *S3 = R.F->body()[2];
  EXPECT_EQ(S3->Value->Op, BinOp::Sub);
  EXPECT_EQ(S3->Value->Lhs->Op, BinOp::Min);
  EXPECT_EQ(S3->Value->Rhs->Op, BinOp::Max);
}

TEST(Parser, BreakAndElseRegions) {
  ParseResult R = parseLoop(R"(
loop scan(i64 n trip, i32 pos liveout, i32 t, i32 a[] readonly) {
  t = a[i];
  if (t == 9) {
    pos = i;
    break;
  } else {
    t = t + 1;
  }
})");
  ASSERT_TRUE(R) << R.Error;
  driver::CompileResult PR = driver::compileLoop(*R.F);
  ASSERT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
  ASSERT_EQ(PR.Plan.EarlyExits.size(), 1u);
  EXPECT_FALSE(PR.Plan.EarlyExits[0].BreakInElse);
}

TEST(Parser, StatementIdsFollowSourceOrder) {
  ParseResult R = parseLoop(H264Text);
  ASSERT_TRUE(R) << R.Error;
  // The outer if is S1; its first child S2; the inner if S5.
  const Stmt *Outer = R.F->body()[0];
  EXPECT_EQ(Outer->Id, 1);
  EXPECT_EQ(Outer->Then[0]->Id, 2);
  EXPECT_EQ(Outer->Then[3]->Id, 5);
  EXPECT_EQ(Outer->Then[3]->Then[0]->Id, 6);
}

TEST(Parser, DiagnosticsCarryLineNumbers) {
  ParseResult R = parseLoop("loop x(i64 n trip) {\n  y = 1;\n}");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("line 2"), std::string::npos) << R.Error;
  EXPECT_NE(R.Error.find("unknown scalar 'y'"), std::string::npos) << R.Error;
}

TEST(Parser, RejectsMalformedInput) {
  EXPECT_FALSE(parseLoop(""));
  EXPECT_FALSE(parseLoop("loop (i64 n trip) {}"));
  EXPECT_FALSE(parseLoop("loop x(i64 n) {}")); // No trip.
  EXPECT_FALSE(parseLoop("loop x(i64 n trip, q32 a) {}")); // Bad type.
  EXPECT_FALSE(parseLoop("loop x(i64 n trip) { if (1) {} }")); // Non-bool.
  EXPECT_FALSE(parseLoop("loop x(i64 n trip, i32 a[] liveout) {}"));
  EXPECT_FALSE(
      parseLoop("loop x(i64 n trip, i32 a[] readonly) { a[i] = 1; }"));
  EXPECT_FALSE(parseLoop("loop x(i64 i trip) {}")); // Reserved name.
  EXPECT_FALSE(parseLoop("loop x(i64 n trip) {} extra"));
}

TEST(Parser, CommentsAreIgnored) {
  ParseResult R = parseLoop(R"(
// header comment
loop c(i64 n trip, i32 s, i32 a[] readonly) {
  s = a[i]; // trailing comment
  // full-line comment
})");
  ASSERT_TRUE(R) << R.Error;
  EXPECT_EQ(R.F->numStmts(), 1);
}

TEST(Parser, ExampleLoopFilesCompile) {
  // The .fv files shipped under examples/loops must parse and vectorize.
  const char *Argmin = R"(
loop argmin(i64 n trip, i32 min_val liveout, i32 min_idx liveout,
            i32 key[] readonly) {
  if (key[i] < min_val) {
    min_val = key[i];
    min_idx = i;
  }
})";
  const char *Histogram = R"(
loop histogram(i64 n trip, i32 b, i32 bucket[] readonly, i32 hist[]) {
  b = bucket[i];
  hist[b] = hist[b] + 1;
})";
  for (const char *Text : {Argmin, Histogram}) {
    ParseResult R = parseLoop(Text);
    ASSERT_TRUE(R) << R.Error;
    driver::CompileResult PR = driver::compileLoop(*R.F);
    EXPECT_TRUE(PR.Plan.Vectorizable) << PR.Plan.Reason;
    EXPECT_TRUE(PR.Plan.needsFlexVec());
  }
}
