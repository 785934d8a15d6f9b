//===- ir/Parser.h - Textual loop DSL ---------------------------*- C++ -*-===//
//
// A small C-like surface syntax for LoopFunctions, so candidate loops can
// be written as text (tests, the CLI driver, documentation) instead of
// builder calls:
//
//   loop h264_motion_search(i64 max_pos trip, i32 min_mcost liveout,
//                           i32 best_pos liveout, i32 mcost, i32 cand,
//                           i32 block_sad[] readonly,
//                           i32 spiral[] readonly, i32 mv[] readonly) {
//     if (block_sad[i] < min_mcost) {
//       mcost = block_sad[i];
//       cand = spiral[i];
//       mcost = mcost + mv[cand];
//       if (mcost < min_mcost) { min_mcost = mcost; best_pos = i; }
//     }
//   }
//
// Grammar (EBNF-ish):
//   loop      := "loop" IDENT "(" param ("," param)* ")" block
//   param     := type IDENT [ "[]" ] attr*
//   attr      := "trip" | "liveout" | "readonly"
//   type      := "i32" | "i64" | "f32" | "f64"
//   block     := "{" stmt* "}"
//   stmt      := IDENT "=" expr ";"
//              | IDENT "[" expr "]" "=" expr ";"
//              | "if" "(" expr ")" block [ "else" block ]
//              | "break" ";"
//   expr      := andexpr
//   andexpr   := cmpexpr ( "&&" cmpexpr )*
//   cmpexpr   := addexpr [ cmpop addexpr ]
//   addexpr   := mulexpr ( ("+"|"-"|"&"|"|"|"^") mulexpr )*
//   mulexpr   := primary ( ("*"|"/") primary )*
//   primary   := NUMBER | FLOAT | "i" | IDENT | IDENT "[" expr "]"
//              | "min" "(" expr "," expr ")" | "max" "(" expr "," expr ")"
//              | "(" expr ")"
//
// `i` is the induction variable. Statement ids follow source order, so
// printed plans and disassembly comments line up with the text. A
// `break` must sit inside an `if`, `if`s nest at most MaxIfNesting deep,
// and a loop takes at most MaxScalarParams scalars and MaxArrayParams
// arrays (ir/IR.h). Expressions nest at most 256 deep. Anything else is
// a parse error.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_IR_PARSER_H
#define FLEXVEC_IR_PARSER_H

#include "ir/IR.h"

#include <memory>
#include <string>

namespace flexvec {
namespace ir {

/// Result of parsing: the function, or a diagnostic with line information.
struct ParseResult {
  std::unique_ptr<LoopFunction> F;
  std::string Error; ///< Empty on success.

  explicit operator bool() const { return F != nullptr; }
};

/// Parses one loop definition from \p Source.
ParseResult parseLoop(const std::string &Source);

/// Renders \p F as parseable DSL text — the inverse of parseLoop, used by
/// the differential tests to print failing generated loops in a form that
/// reproduces with `flexvec-cli`. Covers everything the grammar covers;
/// loops using IR-only operators (shifts) render but do not re-parse.
std::string printLoopDsl(const LoopFunction &F);

} // namespace ir
} // namespace flexvec

#endif // FLEXVEC_IR_PARSER_H
