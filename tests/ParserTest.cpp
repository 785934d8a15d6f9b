//===- tests/ParserTest.cpp - Loop DSL parser tests ------------------------===//

#include "core/Evaluator.h"
#include "driver/CompilerDriver.h"
#include "ir/Parser.h"
#include "workloads/PaperLoops.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

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

// The walk every pass shares: statements in lexical pre-order, a
// statement's subscript before its value before its condition, each
// expression before its operands, Lhs before Rhs.
TEST(Parser, IrWalkVisitsInPreOrder) {
  ParseResult R = parseLoop(R"(
loop w(i64 n trip, f64 s, f64 a[], f64 b[] readonly, i64 c[] readonly) {
  if (s < b[i]) {
    a[(i + 1)] = (b[c[i]] + 2.5);
  } else {
    s = b[i];
  }
  s = (s + 1.0);
}
)");
  ASSERT_TRUE(R) << R.Error;
  auto ExprName = [](const Expr *E) {
    switch (E->Kind) {
    case ExprKind::ConstInt:
      return "int";
    case ExprKind::ConstFloat:
      return "float";
    case ExprKind::ScalarRef:
      return "scalar";
    case ExprKind::IndexRef:
      return "i";
    case ExprKind::ArrayRef:
      return "load";
    case ExprKind::Binary:
      return "binary";
    case ExprKind::Compare:
      return "compare";
    case ExprKind::LogicalAnd:
      return "and";
    }
    return "?";
  };
  std::vector<std::string> Seen;
  forEachStmt(*R.F, [&](const Stmt *S) {
    // Not "S" + ...: GCC 12 reports a false -Wrestrict on that form.
    Seen.push_back(std::string("S") + std::to_string(S->Id));
    forEachExpr(*S, [&](const Expr *E) { Seen.push_back(ExprName(E)); });
  });
  const std::vector<std::string> Expected = {
      "S1", "compare", "scalar", "load", "i",                 // if (s < b[i])
      "S2", "binary", "i", "int",                             // a[(i + 1)] =
      "binary", "load", "load", "i", "float",                 // (b[c[i]] + 2.5)
      "S3", "load", "i",                                      // s = b[i]
      "S4", "binary", "scalar", "float"};                     // s = (s + 1.0)
  EXPECT_EQ(Seen, Expected);
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

// Loops past the register conventions, or with a break that is not inside
// an if, are parse errors rather than aborts further down the pipeline.
namespace {
std::string loopWithParams(unsigned Scalars, unsigned Arrays) {
  std::string Src = "loop t(i64 n trip";
  for (unsigned S = 1; S < Scalars; ++S)
    Src += ", i64 s" + std::to_string(S);
  for (unsigned A = 0; A < Arrays; ++A)
    Src += ", i32 x" + std::to_string(A) + "[] readonly";
  return Src + ") { }";
}
} // namespace

TEST(Parser, RejectsMoreScalarsThanTheRegisterConventionsAllow) {
  EXPECT_TRUE(parseLoop(loopWithParams(MaxScalarParams, 1)));
  ParseResult R = parseLoop(loopWithParams(MaxScalarParams + 1, 1));
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("scalar parameters"), std::string::npos) << R.Error;
}

TEST(Parser, RejectsMoreArraysThanTheRegisterConventionsAllow) {
  EXPECT_TRUE(parseLoop(loopWithParams(2, MaxArrayParams)));
  ParseResult R = parseLoop(loopWithParams(2, MaxArrayParams + 1));
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("array parameters"), std::string::npos) << R.Error;
}

TEST(Parser, RejectsBreakOutsideAnIf) {
  ParseResult R = parseLoop("loop t(i64 n trip, i64 a liveout, "
                            "i32 x[] readonly) { a = x[i]; break; }");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("'break' must be inside an 'if'"), std::string::npos)
      << R.Error;
}

// Deep nesting ends in an error: deep parentheses would exhaust the
// parser's stack, a long operator chain the stack of the recursive passes
// downstream, and a third `if` level the vector code generators' mask
// registers.
namespace {
std::string loopWithParens(unsigned Depth) {
  return "loop t(i64 n trip, i32 a liveout) { a = " +
         std::string(Depth, '(') + "a" + std::string(Depth, ')') + "; }";
}
std::string loopWithChain(unsigned Operators) {
  std::string Src = "loop t(i64 n trip, i32 a liveout) { a = a";
  for (unsigned O = 0; O < Operators; ++O)
    Src += " + a";
  return Src + "; }";
}
std::string loopWithNestedIfs(unsigned Depth) {
  std::string Src = "loop t(i64 n trip, i32 a liveout, i32 x[] readonly) { ";
  for (unsigned D = 0; D < Depth; ++D)
    Src += "if (x[i] > " + std::to_string(D) + ") { ";
  Src += "a = x[i]; ";
  for (unsigned D = 0; D < Depth; ++D)
    Src += "} ";
  return Src + "}";
}
} // namespace

TEST(Parser, RejectsExpressionsNestedTooDeep) {
  // The statement's expression plus 255 parentheses, and a tree 256 nodes
  // high, are the deepest legal.
  EXPECT_TRUE(parseLoop(loopWithParens(255)));
  EXPECT_TRUE(parseLoop(loopWithChain(255)));
  for (const std::string &Src :
       {loopWithParens(256), loopWithParens(10000), loopWithChain(256),
        loopWithChain(50000)}) {
    ParseResult R = parseLoop(Src);
    ASSERT_FALSE(R) << Src.size();
    EXPECT_NE(R.Error.find("expression nested deeper than 256"),
              std::string::npos)
        << R.Error;
  }
}

TEST(Parser, RejectsIfsNestedDeeperThanTheMaskStack) {
  EXPECT_TRUE(parseLoop(loopWithNestedIfs(MaxIfNesting)));
  for (unsigned Depth : {MaxIfNesting + 1, 30000u}) {
    ParseResult R = parseLoop(loopWithNestedIfs(Depth));
    ASSERT_FALSE(R) << Depth;
    EXPECT_NE(R.Error.find("'if' nested deeper than 2"), std::string::npos)
        << R.Error;
  }
}

namespace {

/// `a = a + (x[i] + (x[i] + ... (x[i] + x[i])...))`, \p Depth parentheses
/// deep: the scalar code generator holds Depth + 1 scratch registers.
std::string loopWithRightNestedSum(unsigned Depth) {
  std::string Src = "loop t(i64 n trip, i32 a liveout, i32 x[] readonly) "
                    "{ a = a + ";
  for (unsigned D = 0; D < Depth; ++D)
    Src += "(x[i] + ";
  Src += "x[i]";
  return Src + std::string(Depth, ')') + "; }";
}

} // namespace

TEST(Parser, RejectsStatementsNeedingMoreScalarScratchRegisters) {
  EXPECT_TRUE(parseLoop(loopWithRightNestedSum(MaxScalarScratchRegs - 1)));
  ParseResult R = parseLoop(loopWithRightNestedSum(MaxScalarScratchRegs));
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("needs more than 7 scalar scratch registers"),
            std::string::npos)
      << R.Error;
  // A store holds its subscript while the value is evaluated; an array
  // load reuses its subscript's register.
  R = parseLoop("loop t(i64 n trip, i32 x[] readonly, i32 y[]) { "
                "y[x[x[x[x[x[x[x[x[i]]]]]]]]] = "
                "x[i] + (x[i] + (x[i] + (x[i] + (x[i] + (x[i] + x[i]))))); }");
  ASSERT_FALSE(R);
  EXPECT_NE(R.Error.find("scratch registers"), std::string::npos) << R.Error;
}

TEST(Parser, RejectsOperandsNoCodeGeneratorComputes) {
  struct Case {
    const char *Src;
    const char *Error;
  } Cases[] = {
      {"loop t(i64 n trip, f32 a liveout, f32 x[] readonly) "
       "{ a = a + (x[i] & x[i]); }",
       "bitwise '&' on float operands"},
      {"loop t(i64 n trip, f64 a liveout, f32 x[] readonly) "
       "{ a = a + x[i]; }",
       "operands of types f64 and f32 do not mix"},
      {"loop t(i64 n trip, f32 a liveout, i32 x[] readonly) "
       "{ a = a + (x[i] * 2.5); }",
       "operands of types i32 and f32 do not mix"},
      {"loop t(i64 n trip, f64 a liveout, f32 x[] readonly) "
       "{ a = x[i]; }",
       "operands of types f64 and f32 do not mix"},
      {"loop t(i64 n trip, i32 a liveout, f32 w[] readonly, "
       "i32 x[] readonly) { a = a + x[w[i]]; }",
       "array subscript is not an integer"},
  };
  for (const Case &C : Cases) {
    ParseResult R = parseLoop(C.Src);
    ASSERT_FALSE(R) << C.Src;
    EXPECT_NE(R.Error.find(C.Error), std::string::npos) << R.Error;
  }
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
