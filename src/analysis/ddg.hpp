// Data dependency graph (paper Fig. 5(c)/(d) and Algorithm 1).
//
// The *complete* DDG contains three node classes — MLI variables, other
// variables (locals / non-MLI), and temporary registers — with edges directed
// parent -> child along the dataflow (a Load adds var -> reg, an arithmetic
// instruction adds operand regs -> result reg, a Store adds reg -> var).
//
// Contraction (Algorithm 1) repeatedly replaces each non-MLI parent of an MLI
// vertex with that parent's parents, dropping parentless non-MLI vertices,
// until only MLI vertices remain. The fixpoint equals path-reachability
// through non-MLI vertices, which is how contract() computes it; the
// step-wise behaviour is unit-tested against the paper's worked example
// (`sum` ⇐ 13 ⇐ m ⇐ 12 ⇐ {10,11} ⇐ {a,b}).
//
// The dependency replay re-adds the same few hundred edges millions of times,
// so add_edge() answers "seen" from an open-addressing hash set of
// parent<<32|child keys and touches the ordered edge set, which fixes the
// to_dot() and contract() order, only for a new edge.
#pragma once

#include <cstdint>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace ac::analysis {

enum class NodeKind : std::uint8_t { MliVar, OtherVar, Register };

class Ddg {
 public:
  /// Get-or-create a node; `label` must be unique per node (callers qualify
  /// register names by function).
  int node(const std::string& label, NodeKind kind);

  void add_edge(int parent, int child);

  int num_nodes() const { return static_cast<int>(labels_.size()); }
  std::size_t num_edges() const { return edges_.size(); }
  const std::string& label(int n) const { return labels_.at(static_cast<std::size_t>(n)); }
  NodeKind kind(int n) const { return kinds_.at(static_cast<std::size_t>(n)); }
  int find(const std::string& label) const;  // -1 when absent

  std::vector<int> parents(int n) const;
  std::vector<int> children(int n) const;
  bool has_edge(int parent, int child) const { return edges_.count({parent, child}) > 0; }

  /// Algorithm 1: the MLI-only contracted DDG. Node labels are preserved.
  Ddg contract() const;

  /// GraphViz export (MLI vars as boxes, locals as ellipses, registers dashed).
  std::string to_dot() const;

 private:
  std::unordered_map<std::string, int> index_;
  std::vector<std::string> labels_;
  std::vector<NodeKind> kinds_;
  std::set<std::pair<int, int>> edges_;  // (parent, child)
  // Linear-probing set of parent<<32|child; 0 marks an empty slot (it would
  // be the self-loop 0 -> 0, which is never stored).
  std::vector<std::uint64_t> edge_keys_;
};

}  // namespace ac::analysis
