//===- tests/IrInterpTest.cpp - Loop IR and reference interpreter ----------===//

#include "ir/IR.h"
#include "ir/Interp.h"
#include "memory/Memory.h"

#include <gtest/gtest.h>

using namespace flexvec;
using namespace flexvec::ir;
using isa::CmpKind;
using isa::ElemType;

namespace {

struct SimpleLoop {
  LoopFunction F{"simple"};
  int N, S, A;
  SimpleLoop() {
    N = F.addScalar("n", ElemType::I64);
    S = F.addScalar("s", ElemType::I32, /*IsLiveOut=*/true);
    A = F.addArray("a", ElemType::I32, true);
    F.setTripCountScalar(N);
  }
};

} // namespace

TEST(Ir, PrintShowsStatementsAndIds) {
  SimpleLoop L;
  L.F.setBody({L.F.assignScalar(
      L.S, L.F.binary(BinOp::Add, L.F.scalarRef(L.S),
                      L.F.arrayRef(L.A, L.F.indexRef())))});
  std::string Text = L.F.print();
  EXPECT_NE(Text.find("for (i = 0; i < n; ++i)"), std::string::npos) << Text;
  EXPECT_NE(Text.find("S1: s = (s + a[i])"), std::string::npos) << Text;
}

TEST(Ir, StatementIdsFollowCreationOrder) {
  SimpleLoop L;
  Stmt *A = L.F.assignScalar(L.S, L.F.constInt(ElemType::I32, 1));
  Stmt *B = L.F.makeBreak();
  EXPECT_EQ(A->Id, 1);
  EXPECT_EQ(B->Id, 2);
  EXPECT_EQ(L.F.numStmts(), 2);
}

TEST(Interp, SumLoop) {
  SimpleLoop L;
  L.F.setBody({L.F.assignScalar(
      L.S, L.F.binary(BinOp::Add, L.F.scalarRef(L.S),
                      L.F.arrayRef(L.A, L.F.indexRef())))});
  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data = {1, 2, 3, 4, 5};
  Bindings B = Bindings::forFunction(L.F);
  B.ArrayBases[L.A] = Alloc.allocArray(Data);
  B.setInt(L.N, 5);
  B.setInt(L.S, 100);
  Interpreter I(M);
  InterpResult R = I.run(L.F, B);
  EXPECT_EQ(R.IterationsExecuted, 5);
  EXPECT_FALSE(R.BrokeEarly);
  EXPECT_EQ(B.getInt(L.S), 115);
}

TEST(Interp, BreakStopsTheLoop) {
  SimpleLoop L;
  // if (a[i] == 3) break;  s = s + 1;
  Stmt *Guard = L.F.makeIfShell(L.F.compare(
      CmpKind::EQ, L.F.arrayRef(L.A, L.F.indexRef()),
      L.F.constInt(ElemType::I32, 3)));
  L.F.addThen(Guard, L.F.makeBreak());
  Stmt *Inc = L.F.assignScalar(
      L.S, L.F.binary(BinOp::Add, L.F.scalarRef(L.S),
                      L.F.constInt(ElemType::I32, 1)));
  L.F.setBody({Guard, Inc});

  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data = {0, 1, 3, 0, 0};
  Bindings B = Bindings::forFunction(L.F);
  B.ArrayBases[L.A] = Alloc.allocArray(Data);
  B.setInt(L.N, 5);
  Interpreter I(M);
  InterpResult R = I.run(L.F, B);
  EXPECT_TRUE(R.BrokeEarly);
  EXPECT_EQ(R.IterationsExecuted, 3);
  EXPECT_EQ(B.getInt(L.S), 2) << "the iteration that breaks skips the rest";
}

TEST(Interp, IfElseSelectsRegions) {
  SimpleLoop L;
  Stmt *Guard = L.F.makeIfShell(L.F.compare(
      CmpKind::LT, L.F.arrayRef(L.A, L.F.indexRef()),
      L.F.constInt(ElemType::I32, 10)));
  L.F.addThen(Guard, L.F.assignScalar(
                         L.S, L.F.binary(BinOp::Add, L.F.scalarRef(L.S),
                                         L.F.constInt(ElemType::I32, 1))));
  L.F.addElse(Guard, L.F.assignScalar(
                         L.S, L.F.binary(BinOp::Add, L.F.scalarRef(L.S),
                                         L.F.constInt(ElemType::I32, 100))));
  L.F.setBody({Guard});

  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data = {5, 50, 5, 50};
  Bindings B = Bindings::forFunction(L.F);
  B.ArrayBases[L.A] = Alloc.allocArray(Data);
  B.setInt(L.N, 4);
  Interpreter I(M);
  I.run(L.F, B);
  EXPECT_EQ(B.getInt(L.S), 202);
}

TEST(Interp, Int32ArithmeticWrapsAtLaneWidth) {
  // (1<<30) * 4 wraps to 0 in i32 lanes; the interpreter must match the
  // vector unit.
  SimpleLoop L;
  L.F.setBody({L.F.assignScalar(
      L.S, L.F.binary(BinOp::Mul, L.F.arrayRef(L.A, L.F.indexRef()),
                      L.F.constInt(ElemType::I32, 4)))});
  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data = {1 << 30};
  Bindings B = Bindings::forFunction(L.F);
  B.ArrayBases[L.A] = Alloc.allocArray(Data);
  B.setInt(L.N, 1);
  Interpreter I(M);
  I.run(L.F, B);
  EXPECT_EQ(B.getInt(L.S), 0);
}

TEST(Interp, IntegerDivideErrorStopsTheRun) {
  // A zero divisor and INT64_MIN / -1 have no result: the run stops at
  // that statement with DivideError set, like a memory fault, instead of
  // trapping the process. Ordinary division truncates toward zero.
  LoopFunction F("div");
  int N = F.addScalar("n", ElemType::I64);
  int S = F.addScalar("s", ElemType::I64, /*IsLiveOut=*/true);
  int A = F.addArray("a", ElemType::I64, true);
  F.setTripCountScalar(N);
  F.setBody({F.assignScalar(
      S, F.binary(BinOp::Div, F.scalarRef(S), F.arrayRef(A, F.indexRef())))});

  struct Case {
    int64_t Start;
    std::vector<int64_t> Divisors;
    bool DivideError;
    int64_t Iterations;
    int64_t Result;
  } Cases[] = {{-100, {3, -2}, false, 2, 16},
               {100, {5, 0, 7}, true, 2, 0},
               {INT64_MIN, {-1}, true, 1, 0},
               {INT64_MIN, {1}, false, 1, INT64_MIN}};
  for (const Case &C : Cases) {
    mem::Memory M;
    mem::BumpAllocator Alloc(M);
    Bindings B = Bindings::forFunction(F);
    B.ArrayBases[A] = Alloc.allocArray(C.Divisors);
    B.setInt(N, static_cast<int64_t>(C.Divisors.size()));
    B.setInt(S, C.Start);
    Interpreter I(M);
    InterpResult R = I.run(F, B);
    EXPECT_EQ(R.DivideError, C.DivideError) << C.Start;
    EXPECT_FALSE(R.Faulted);
    EXPECT_FALSE(R.BrokeEarly);
    EXPECT_EQ(R.IterationsExecuted, C.Iterations) << C.Start;
    if (!C.DivideError) {
      EXPECT_EQ(B.getInt(S), C.Result);
    }
  }
}

TEST(Interp, F32RoundsToSinglePrecision) {
  LoopFunction F("f32");
  int N = F.addScalar("n", ElemType::I64);
  int S = F.addScalar("s", ElemType::F32, /*IsLiveOut=*/true);
  int A = F.addArray("a", ElemType::F32, true);
  F.setTripCountScalar(N);
  F.setBody({F.assignScalar(
      S, F.binary(BinOp::Add, F.scalarRef(S), F.arrayRef(A, F.indexRef())))});

  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  // 2^24 + 1 is not representable in f32; adding 1.0f leaves 2^24.
  std::vector<float> Data = {1.0f};
  Bindings B = Bindings::forFunction(F);
  B.ArrayBases[0] = Alloc.allocArray(Data);
  B.setInt(N, 1);
  B.setFloat(ElemType::F32, S, 16777216.0);
  Interpreter I(M);
  I.run(F, B);
  EXPECT_EQ(B.getFloat(ElemType::F32, S), 16777216.0);
}

TEST(Interp, FloatComparisonDrivesControl) {
  LoopFunction F("fcmp");
  int N = F.addScalar("n", ElemType::I64);
  int Min = F.addScalar("m", ElemType::F32, /*IsLiveOut=*/true);
  int A = F.addArray("a", ElemType::F32, true);
  F.setTripCountScalar(N);
  Stmt *Guard = F.makeIfShell(F.compare(CmpKind::LT,
                                        F.arrayRef(A, F.indexRef()),
                                        F.scalarRef(Min)));
  F.addThen(Guard, F.assignScalar(Min, F.arrayRef(A, F.indexRef())));
  F.setBody({Guard});

  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<float> Data = {5.5f, 2.25f, 9.0f, 1.125f, 3.0f};
  Bindings B = Bindings::forFunction(F);
  B.ArrayBases[0] = Alloc.allocArray(Data);
  B.setInt(N, 5);
  B.setFloat(ElemType::F32, Min, 100.0);
  Interpreter I(M);
  I.run(F, B);
  EXPECT_FLOAT_EQ(static_cast<float>(B.getFloat(ElemType::F32, Min)), 1.125f);
}

TEST(Interp, ObserverSeesEvents) {
  struct Counter : Observer {
    int Iters = 0, Assigns = 0, Loads = 0, Stores = 0, Breaks = 0;
    void onIterationStart(int64_t) override { ++Iters; }
    void onScalarAssign(const Stmt *, int64_t, int64_t, int64_t) override {
      ++Assigns;
    }
    void onArrayLoad(int, int64_t, int64_t) override { ++Loads; }
    void onArrayStore(const Stmt *, int64_t, int64_t) override { ++Stores; }
    void onBreak(const Stmt *, int64_t) override { ++Breaks; }
  };

  LoopFunction F("obs");
  int N = F.addScalar("n", ElemType::I64);
  F.setTripCountScalar(N);
  int A = F.addArray("a", ElemType::I32);
  F.setBody({F.storeArray(A, F.indexRef(),
                          F.binary(BinOp::Add, F.arrayRef(A, F.indexRef()),
                                   F.constInt(ElemType::I32, 1)))});
  mem::Memory M;
  mem::BumpAllocator Alloc(M);
  std::vector<int32_t> Data(10, 0);
  Bindings B = Bindings::forFunction(F);
  B.ArrayBases[0] = Alloc.allocArray(Data);
  B.setInt(N, 10);
  Counter C;
  Interpreter I(M);
  I.run(F, B, &C);
  EXPECT_EQ(C.Iters, 10);
  EXPECT_EQ(C.Loads, 10);
  EXPECT_EQ(C.Stores, 10);
  EXPECT_EQ(C.Breaks, 0);
}
