//===- tests/ObsTest.cpp - Metrics registry and JSON parser tests ----------===//
//
// The observability substrate's contract (src/obs/Metrics.h):
//
//   * Registry renders in first-registration order, so two registries
//     populated by the same code path dump byte-identically — the property
//     the per-cell bench metrics rely on.
//   * Histograms clamp to the last bucket from both observe() and
//     addToBucket(), and merge() sums counters/histograms while skipping
//     gauges (per-scope derived values).
//   * ScopedTimer accumulates wall time into a plain double.
//
// Plus the strict Json::parse() reader that flexvec-benchdiff depends on:
// round-trips of dump() output and rejection of malformed documents with a
// byte offset in the error.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "support/Json.h"

#include <gtest/gtest.h>

using namespace flexvec;

namespace {

//===----------------------------------------------------------------------===//
// Counters, gauges, histograms
//===----------------------------------------------------------------------===//

TEST(Obs, CounterAccumulates) {
  obs::Counter C;
  EXPECT_EQ(C.value(), 0u);
  C.inc();
  C.inc(41);
  EXPECT_EQ(C.value(), 42u);
}

TEST(Obs, GaugeKeepsLastValue) {
  obs::Gauge G;
  G.set(1.5);
  G.set(0.25);
  EXPECT_EQ(G.value(), 0.25);
}

TEST(Obs, HistogramClampsToLastBucket) {
  obs::Histogram H(4);
  H.observe(0);
  H.observe(3);
  H.observe(4);   // Clamped into bucket 3.
  H.observe(999); // Likewise.
  EXPECT_EQ(H.bucket(0), 1u);
  EXPECT_EQ(H.bucket(1), 0u);
  EXPECT_EQ(H.bucket(2), 0u);
  EXPECT_EQ(H.bucket(3), 3u);
  EXPECT_EQ(H.total(), 4u);
}

TEST(Obs, HistogramBulkAddClampsToo) {
  obs::Histogram H(3);
  H.addToBucket(1, 10);
  H.addToBucket(7, 5); // Clamped into bucket 2.
  EXPECT_EQ(H.bucket(1), 10u);
  EXPECT_EQ(H.bucket(2), 5u);
  EXPECT_EQ(H.total(), 15u);
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(Obs, RegistryCreatesOnFirstUseAndReturnsSameMetric) {
  obs::Registry R;
  EXPECT_TRUE(R.empty());
  R.counter("a").inc();
  R.counter("a").inc();
  EXPECT_EQ(R.size(), 1u);
  ASSERT_NE(R.findCounter("a"), nullptr);
  EXPECT_EQ(R.findCounter("a")->value(), 2u);
  EXPECT_EQ(R.findCounter("missing"), nullptr);
  EXPECT_EQ(R.findHistogram("a"), nullptr) << "kind-mismatched lookup";
}

TEST(Obs, RegistryRendersInRegistrationOrder) {
  obs::Registry A, B;
  // Same population path -> byte-identical dumps.
  for (obs::Registry *R : {&A, &B}) {
    R->counter("z.last").inc(3);
    R->gauge("rate").set(0.5);
    R->histogram("depth", 3).observe(1);
    R->counter("a.first").inc(7);
  }
  std::string DumpA = A.toJson().dump();
  EXPECT_EQ(DumpA, B.toJson().dump());
  // Insertion order, not alphabetical: z.last renders before a.first.
  EXPECT_LT(DumpA.find("z.last"), DumpA.find("a.first"));
}

TEST(Obs, RegistryCopyIsDeep) {
  obs::Registry A;
  A.counter("n").inc(5);
  obs::Registry B = A;
  B.counter("n").inc();
  EXPECT_EQ(A.findCounter("n")->value(), 5u);
  EXPECT_EQ(B.findCounter("n")->value(), 6u);
}

TEST(Obs, MergeSumsCountersAndHistogramsSkipsGauges) {
  obs::Registry A;
  A.counter("ops").inc(10);
  A.histogram("mask", 4).observe(2);
  A.gauge("ipc").set(1.5);

  obs::Registry B;
  B.counter("ops").inc(32);
  B.counter("new_in_b").inc(1);
  B.histogram("mask", 4).observe(2);
  B.histogram("mask", 4).observe(3);
  B.gauge("ipc").set(9.9);

  A.merge(B);
  EXPECT_EQ(A.findCounter("ops")->value(), 42u);
  EXPECT_EQ(A.findCounter("new_in_b")->value(), 1u) << "new names append";
  EXPECT_EQ(A.findHistogram("mask")->bucket(2), 2u);
  EXPECT_EQ(A.findHistogram("mask")->bucket(3), 1u);
  EXPECT_EQ(A.findHistogram("mask")->total(), 3u);
  // Gauges are per-scope derived values: merge must not sum them.
  std::string Dump = A.toJson().dump();
  EXPECT_NE(Dump.find("\"ipc\": 1.5"), std::string::npos) << Dump;
}

TEST(Obs, MergeIsDeterministicAcrossMergeOrderOfDisjointTails) {
  // Shared prefix metrics keep the target's order; two sources whose
  // unique names differ append in source order — the bench aggregate
  // relies on merging cells in matrix order, which this pins down.
  obs::Registry X, Y;
  X.counter("shared").inc(1);
  X.counter("only_x").inc(1);
  Y.counter("shared").inc(1);
  Y.counter("only_y").inc(1);

  obs::Registry T1;
  T1.merge(X);
  T1.merge(Y);
  std::string D = T1.toJson().dump();
  EXPECT_LT(D.find("shared"), D.find("only_x"));
  EXPECT_LT(D.find("only_x"), D.find("only_y"));
}

TEST(Obs, ToJsonRendersKinds) {
  obs::Registry R;
  R.counter("count").inc(7);
  R.gauge("ratio").set(0.5);
  R.histogram("hist", 2).observe(0);

  std::string D = R.toJson().dump();
  EXPECT_NE(D.find("\"count\": 7"), std::string::npos) << D;
  EXPECT_NE(D.find("\"ratio\": 0.5"), std::string::npos) << D;
  EXPECT_NE(D.find("\"hist\""), std::string::npos) << D;
}

//===----------------------------------------------------------------------===//
// ScopedTimer
//===----------------------------------------------------------------------===//

TEST(Obs, ScopedTimerAccumulatesIntoDoubleSink) {
  double Ms = 0;
  {
    obs::ScopedTimer T(Ms);
  }
  {
    obs::ScopedTimer T(Ms);
  }
  EXPECT_GE(Ms, 0.0);
}

//===----------------------------------------------------------------------===//
// Json::parse — the reader behind flexvec-benchdiff
//===----------------------------------------------------------------------===//

TEST(JsonParse, RoundTripsDumpOutput) {
  Json Doc = Json::object();
  Doc.set("schema", "flexvec-bench-figure8/v2");
  Doc.set("seed", uint64_t(1));
  Doc.set("scale", 0.1);
  Doc.set("ok", true);
  Doc.set("nothing", Json());
  Json Arr = Json::array();
  Arr.push(uint64_t(1));
  Arr.push(int64_t(-2));
  Arr.push(3.5);
  Arr.push("s \"quoted\" \\ and\nnewline");
  Doc.set("mixed", std::move(Arr));

  std::string Text = Doc.dump();
  Json Back;
  std::string Err;
  ASSERT_TRUE(Json::parse(Text, Back, Err)) << Err;
  EXPECT_EQ(Back.dump(), Text) << "parse(dump(x)).dump() must be identity";
}

TEST(JsonParse, NumberClassification) {
  Json V;
  std::string Err;
  ASSERT_TRUE(Json::parse("[18446744073709551615, -3, 2.5, 1e3]", V, Err))
      << Err;
  ASSERT_EQ(V.size(), 4u);
  EXPECT_EQ(V.elems()[0].kind(), Json::Kind::UInt);
  EXPECT_EQ(V.elems()[0].asUInt(), 18446744073709551615ull);
  EXPECT_EQ(V.elems()[1].kind(), Json::Kind::Int);
  EXPECT_EQ(V.elems()[1].asInt(), -3);
  EXPECT_EQ(V.elems()[2].kind(), Json::Kind::Double);
  EXPECT_EQ(V.elems()[3].asDouble(), 1000.0);
}

TEST(JsonParse, FindAndAccessorsOnParsedDocument) {
  Json V;
  std::string Err;
  ASSERT_TRUE(Json::parse(R"({"a": {"b": [1, 2]}, "s": "x"})", V, Err)) << Err;
  const Json *A = V.find("a");
  ASSERT_NE(A, nullptr);
  const Json *B = A->find("b");
  ASSERT_NE(B, nullptr);
  ASSERT_TRUE(B->isArray());
  EXPECT_EQ(B->elems()[1].asUInt(), 2u);
  EXPECT_EQ(V.find("s")->asString(), "x");
  EXPECT_EQ(V.find("absent"), nullptr);
  EXPECT_EQ(B->find("not_an_object"), nullptr);
}

TEST(JsonParse, UnicodeEscapes) {
  Json V;
  std::string Err;
  ASSERT_TRUE(Json::parse(R"(["\u0041\u00e9\u20ac"])", V, Err)) << Err;
  EXPECT_EQ(V.elems()[0].asString(), "A\xc3\xa9\xe2\x82\xac");
}

TEST(JsonParse, RejectsMalformedInputWithByteOffset) {
  Json V;
  std::string Err;
  for (const char *Bad :
       {"", "{", "[1,]", "{\"a\" 1}", "tru", "\"unterminated", "[1] trailing",
        "{\"a\": 01}", "nan", "[\"\\ud800\"]"}) {
    EXPECT_FALSE(Json::parse(Bad, V, Err)) << "accepted: " << Bad;
    EXPECT_NE(Err.find("offset"), std::string::npos)
        << Bad << " error lacks a byte offset: " << Err;
  }
}

TEST(JsonParse, DuplicateKeysKeepLastMatchingSet) {
  Json V;
  std::string Err;
  ASSERT_TRUE(Json::parse(R"({"k": 1, "k": 2})", V, Err)) << Err;
  EXPECT_EQ(V.size(), 1u);
  EXPECT_EQ(V.find("k")->asUInt(), 2u);
}

TEST(JsonParse, NestingDepthIsBoundedWithByteOffset) {
  // A hostile 10k-deep array must fail with a structured depth error (and
  // the byte offset of the bracket that crossed the limit), not crash the
  // recursive-descent reader by exhausting the stack.
  std::string Deep(10000, '[');
  Deep += "1";
  Deep.append(10000, ']');
  Json V;
  std::string Err;
  EXPECT_FALSE(Json::parse(Deep, V, Err));
  EXPECT_NE(Err.find("nest"), std::string::npos)
      << "depth error should name nesting: " << Err;
  EXPECT_NE(Err.find("offset"), std::string::npos)
      << "depth error lacks a byte offset: " << Err;

  // Real payloads stay far under the limit: 200 levels parse fine.
  std::string Fine(200, '[');
  Fine += "1";
  Fine.append(200, ']');
  ASSERT_TRUE(Json::parse(Fine, V, Err)) << Err;
  // And exercise mixed object/array nesting at a depth benchdiff can hit.
  std::string Mixed;
  for (int I = 0; I < 100; ++I)
    Mixed += "{\"k\": [";
  Mixed += "true";
  for (int I = 0; I < 100; ++I)
    Mixed += "]}";
  ASSERT_TRUE(Json::parse(Mixed, V, Err)) << Err;
}

} // namespace
