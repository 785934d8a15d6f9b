//===- tests/SupportTest.cpp - Support library unit tests ------------------===//

#include "support/ArgParse.h"
#include "support/Bits.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"

#include <gtest/gtest.h>

using namespace flexvec;

TEST(ArgParse, DoubleRejectsNonFiniteValues) {
  double D = 7;
  EXPECT_TRUE(parseDouble("0.25", D));
  EXPECT_EQ(D, 0.25);
  for (const char *S : {"nan", "NaN", "-nan", "inf", "-inf", "infinity",
                        "1e999", "", "1.5x"}) {
    D = 7;
    EXPECT_FALSE(parseDouble(S, D)) << S;
    EXPECT_EQ(D, 7) << S << ": a rejected value must not be stored";
  }
}

TEST(ArgParse, UnsignedRejectsValuesAboveUintMax) {
  unsigned N = 7;
  EXPECT_TRUE(parseUnsigned("4294967295", N));
  EXPECT_EQ(N, 4294967295u);
  for (const char *S : {"4294967296", "4294967808", "-1", "", "12x"}) {
    N = 7;
    EXPECT_FALSE(parseUnsigned(S, N)) << S;
    EXPECT_EQ(N, 7u) << S;
  }
}

TEST(Bits, LowBitMask) {
  EXPECT_EQ(lowBitMask(0), 0u);
  EXPECT_EQ(lowBitMask(1), 1u);
  EXPECT_EQ(lowBitMask(16), 0xFFFFu);
  EXPECT_EQ(lowBitMask(64), ~0ULL);
}

TEST(Bits, TestAndAssign) {
  uint64_t M = 0;
  M = assignBit(M, 5, true);
  EXPECT_TRUE(testBit(M, 5));
  EXPECT_FALSE(testBit(M, 4));
  M = assignBit(M, 5, false);
  EXPECT_EQ(M, 0u);
  EXPECT_EQ(countTrailingZeros(0x20), 5u);
  EXPECT_EQ(countTrailingZeros(0), 64u);
  EXPECT_EQ(popcount(0xF0F0), 8u);
}

TEST(Random, Deterministic) {
  Rng A(42), B(42), C(43);
  EXPECT_EQ(A.next(), B.next());
  EXPECT_NE(A.next(), C.next());
}

TEST(Random, NextBelowStaysInRange) {
  Rng R(1);
  for (int I = 0; I < 10000; ++I)
    ASSERT_LT(R.nextBelow(7), 7u);
  for (int I = 0; I < 1000; ++I) {
    int64_t V = R.nextInRange(-3, 3);
    ASSERT_GE(V, -3);
    ASSERT_LE(V, 3);
  }
}

TEST(Random, BoolProbabilityRoughlyHolds) {
  Rng R(2);
  int Hits = 0;
  for (int I = 0; I < 100000; ++I)
    Hits += R.nextBool(0.25) ? 1 : 0;
  EXPECT_NEAR(Hits / 100000.0, 0.25, 0.01);
}

TEST(Statistics, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(geomean({}), 0.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_NEAR(geomean({1.09, 1.09, 1.09}), 1.09, 1e-12);
}

TEST(Statistics, RunningStats) {
  RunningStats S;
  for (double X : {3.0, 1.0, 2.0})
    S.add(X);
  EXPECT_EQ(S.count(), 3u);
  EXPECT_DOUBLE_EQ(S.mean(), 2.0);
  EXPECT_DOUBLE_EQ(S.min(), 1.0);
  EXPECT_DOUBLE_EQ(S.max(), 3.0);
}

TEST(Statistics, HistogramClampsToLastBucket) {
  Histogram H(4);
  H.add(0);
  H.add(1);
  H.add(3);
  H.add(100);
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(3), 2u);
  EXPECT_EQ(H.total(), 4u);
}

TEST(Table, RendersAlignedColumns) {
  TextTable T({"name", "value"});
  T.addRow({"alpha", "1"});
  T.addRow({"b", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name"), std::string::npos);
  EXPECT_NE(Out.find("alpha"), std::string::npos);
  // Column alignment: "1" and "22" start at the same offset.
  size_t Line1 = Out.find("alpha");
  size_t Line2 = Out.find("  b");
  ASSERT_NE(Line1, std::string::npos);
  ASSERT_NE(Line2, std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(TextTable::fmt(1.234, 2), "1.23");
  EXPECT_EQ(TextTable::fmtInt(1234567), "1,234,567");
  EXPECT_EQ(TextTable::fmtInt(-42), "-42");
  EXPECT_EQ(TextTable::fmtPercent(0.095), "9.5%");
}

TEST(Table, ShortRowsArePadded) {
  TextTable T({"a", "b", "c"});
  T.addRow({"only"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("only"), std::string::npos);
}
