//===- pdg/Pdg.h - Program Dependence Graph ---------------------*- C++ -*-===//
//
// Statement-level Program Dependence Graph (Ferrante et al.) for a
// LoopFunction, in the form the paper's analysis module consumes
// (Section 4, Figures 5-7):
//
//  * Node 0 is the virtual loop header; statement nodes use statement ids.
//  * Control dependences follow the structured control flow; a conditional
//    break adds the "false backward control dependence arc from the
//    immediate dominator of the exit statement to the loop header".
//  * Scalar data dependences distinguish intra-iteration flow from
//    loop-carried flow (the backward arcs FlexVec relaxes).
//  * Memory dependences are classified by subscript analysis: independent,
//    provably carried (affine distance), or runtime "maybe" (non-affine
//    subscripts) — the latter are the conflict-detection candidates.
//
// Strongly connected components are computed with Tarjan's algorithm.
//
//===----------------------------------------------------------------------===//

#ifndef FLEXVEC_PDG_PDG_H
#define FLEXVEC_PDG_PDG_H

#include "ir/IR.h"

#include <optional>
#include <string>
#include <vector>

namespace flexvec {
namespace pdg {

/// Dependence edge kinds.
enum class DepKind : uint8_t {
  Control,            ///< Structured control dependence (header/if → child).
  ControlCarried,     ///< Backward control arc from an early-exit guard to
                      ///< the loop header.
  ScalarFlow,         ///< Def → lexically later use, same iteration.
  ScalarFlowCarried,  ///< Def → use in a later iteration (backward arc).
  ScalarAnti,         ///< Use → lexically later def, same iteration.
  MemoryFlowCarried,  ///< Provable cross-iteration store → load (affine).
  MemoryMaybeCarried, ///< Possible cross-iteration store → load that only
                      ///< run-time conflict detection can resolve.
};

const char *depKindName(DepKind K);

/// True for the backward arcs that make a loop traditionally
/// non-vectorizable and that FlexVec considers for relaxation.
inline bool isCarried(DepKind K) {
  return K == DepKind::ControlCarried || K == DepKind::ScalarFlowCarried ||
         K == DepKind::MemoryFlowCarried || K == DepKind::MemoryMaybeCarried;
}

/// One dependence edge between PDG nodes (0 = loop header).
struct DepEdge {
  int From = 0;
  int To = 0;
  DepKind Kind = DepKind::Control;
  int ScalarId = -1; ///< For scalar dependences.
  int ArrayId = -1;  ///< For memory dependences.
  /// For provable memory dependences: the dependence distance in
  /// iterations.
  int64_t Distance = 0;
  /// For memory dependences: the ArrayRef expression at the sink (load)
  /// end, whose subscript becomes a VPCONFLICTM operand.
  const ir::Expr *LoadExpr = nullptr;
};

/// Result of affine subscript analysis: Index = i + Offset.
struct AffineSubscript {
  int64_t Offset = 0;
};

/// Attempts to match \p E as (i + c), (c + i), (i - c), or plain i.
std::optional<AffineSubscript> matchAffine(const ir::Expr *E);

/// The PDG for one LoopFunction.
class Pdg {
public:
  /// Node id of the virtual loop header.
  static constexpr int HeaderNode = 0;

  /// Builds the PDG for \p F.
  explicit Pdg(const ir::LoopFunction &F);

  const ir::LoopFunction &function() const { return F; }
  const std::vector<DepEdge> &edges() const { return Edges; }
  int numNodes() const { return NumNodes; }

  /// The statement for a node id (nullptr for the header).
  const ir::Stmt *stmtOf(int Node) const { return Stmts[Node]; }

  /// Lexical position of a node (pre-order over the body; header is 0).
  int lexicalPos(int Node) const { return LexPos[Node]; }

  /// The innermost controlling if of a statement node (HeaderNode if it is
  /// top-level).
  int controlParent(int Node) const { return CtrlParent[Node]; }

  /// True if node \p Node is in the false-region of its control parent.
  bool inElseRegion(int Node) const { return InElse[Node]; }

  /// Scalar ids read (transitively through expressions) by each node.
  const std::vector<int> &scalarUses(int Node) const { return Uses[Node]; }

  /// Array reads in the expressions of each node, in walk order.
  const std::vector<const ir::Expr *> &loads(int Node) const {
    return Loads[Node];
  }

  /// Strongly connected components over all edges, in topological order of
  /// the condensation. Components are lists of node ids.
  std::vector<std::vector<int>> stronglyConnectedComponents() const;

  /// SCCs computed with the given edges removed (by index into edges()).
  std::vector<std::vector<int>>
  stronglyConnectedComponents(const std::vector<size_t> &RemovedEdges) const;

  /// Non-trivial SCCs (more than one node, or a self-loop).
  std::vector<std::vector<int>> nontrivialSccs() const;

  /// Edge indices with the given kind.
  std::vector<size_t> edgesOfKind(DepKind K) const;

  /// Textual dump for tests and debugging.
  std::string dump() const;

private:
  void addEdge(DepEdge E);
  void buildControl();
  void buildScalar();
  void buildMemory();

  std::vector<std::vector<int>>
  sccImpl(const std::vector<bool> &EdgeAlive) const;

  const ir::LoopFunction &F;
  int NumNodes = 1;
  std::vector<const ir::Stmt *> Stmts; ///< Node id → statement.
  std::vector<int> LexPos;
  std::vector<int> CtrlParent;
  std::vector<bool> InElse;
  std::vector<std::vector<int>> Uses;
  std::vector<std::vector<const ir::Expr *>> Loads;
  std::vector<DepEdge> Edges;
};

} // namespace pdg
} // namespace flexvec

#endif // FLEXVEC_PDG_PDG_H
