#include "analysis/ddg.hpp"

#include <algorithm>

#include "support/error.hpp"

namespace ac::analysis {

int Ddg::node(const std::string& label, NodeKind kind) {
  auto [it, inserted] = index_.emplace(label, static_cast<int>(labels_.size()));
  if (inserted) {
    labels_.push_back(label);
    kinds_.push_back(kind);
  } else if (kind == NodeKind::MliVar) {
    // A node can be discovered as a register/local first and later identified
    // as MLI; MLI status wins.
    kinds_[static_cast<std::size_t>(it->second)] = kind;
  }
  return it->second;
}

namespace {

/// Slot of `key` in a power-of-two table: Fibonacci hashing, then linear
/// probing to the key or the first empty slot.
std::size_t probe(const std::vector<std::uint64_t>& table, std::uint64_t key) {
  const std::size_t mask = table.size() - 1;
  std::size_t i = static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> 32) & mask;
  while (table[i] != 0 && table[i] != key) i = (i + 1) & mask;
  return i;
}

}  // namespace

void Ddg::add_edge(int parent, int child) {
  AC_CHECK(parent >= 0 && parent < num_nodes() && child >= 0 && child < num_nodes(),
           "ddg edge endpoint out of range");
  if (parent == child) return;  // self-loops carry no contraction information
  // Keep the load at most one half, so probes stay short.
  if (2 * (edges_.size() + 1) > edge_keys_.size()) {
    std::vector<std::uint64_t> grown(std::max<std::size_t>(64, 2 * edge_keys_.size()), 0);
    for (const std::uint64_t k : edge_keys_) {
      if (k != 0) grown[probe(grown, k)] = k;
    }
    edge_keys_.swap(grown);
  }
  const std::uint64_t key =
      (static_cast<std::uint64_t>(parent) << 32) | static_cast<std::uint32_t>(child);
  std::uint64_t& slot = edge_keys_[probe(edge_keys_, key)];
  if (slot == key) return;
  slot = key;
  edges_.emplace(parent, child);
}

int Ddg::find(const std::string& label) const {
  auto it = index_.find(label);
  return it == index_.end() ? -1 : it->second;
}

std::vector<int> Ddg::parents(int n) const {
  std::vector<int> out;
  for (const auto& [p, c] : edges_) {
    if (c == n) out.push_back(p);
  }
  return out;
}

std::vector<int> Ddg::children(int n) const {
  std::vector<int> out;
  for (const auto& [p, c] : edges_) {
    if (p == n) out.push_back(c);
  }
  return out;
}

Ddg Ddg::contract() const {
  // Build adjacency (child -> parents) once.
  std::vector<std::vector<int>> parent_of(static_cast<std::size_t>(num_nodes()));
  for (const auto& [p, c] : edges_) parent_of[static_cast<std::size_t>(c)].push_back(p);

  Ddg out;
  std::vector<int> out_id(static_cast<std::size_t>(num_nodes()), -1);
  for (int n = 0; n < num_nodes(); ++n) {
    if (kinds_[static_cast<std::size_t>(n)] == NodeKind::MliVar) {
      out_id[static_cast<std::size_t>(n)] = out.node(labels_[static_cast<std::size_t>(n)], NodeKind::MliVar);
    }
  }

  // For each MLI vertex walk upward through non-MLI ancestors; every MLI
  // ancestor first reached through such a chain becomes a contracted parent.
  std::vector<char> visited(static_cast<std::size_t>(num_nodes()));
  for (int n = 0; n < num_nodes(); ++n) {
    if (kinds_[static_cast<std::size_t>(n)] != NodeKind::MliVar) continue;
    std::fill(visited.begin(), visited.end(), 0);
    std::vector<int> stack = parent_of[static_cast<std::size_t>(n)];
    while (!stack.empty()) {
      const int p = stack.back();
      stack.pop_back();
      if (visited[static_cast<std::size_t>(p)]) continue;
      visited[static_cast<std::size_t>(p)] = 1;
      if (kinds_[static_cast<std::size_t>(p)] == NodeKind::MliVar) {
        out.add_edge(out_id[static_cast<std::size_t>(p)], out_id[static_cast<std::size_t>(n)]);
        continue;  // stop at the first MLI vertex along the chain
      }
      for (int pp : parent_of[static_cast<std::size_t>(p)]) stack.push_back(pp);
    }
  }
  return out;
}

std::string Ddg::to_dot() const {
  std::string out = "digraph ddg {\n";
  for (int n = 0; n < num_nodes(); ++n) {
    const char* shape = "ellipse";
    const char* style = "solid";
    switch (kinds_[static_cast<std::size_t>(n)]) {
      case NodeKind::MliVar: shape = "box"; break;
      case NodeKind::OtherVar: shape = "ellipse"; break;
      case NodeKind::Register: style = "dashed"; break;
    }
    out += "  n" + std::to_string(n) + " [label=\"" + labels_[static_cast<std::size_t>(n)] +
           "\", shape=" + shape + ", style=" + style + "];\n";
  }
  for (const auto& [p, c] : edges_) {
    out += "  n" + std::to_string(p) + " -> n" + std::to_string(c) + ";\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ac::analysis
