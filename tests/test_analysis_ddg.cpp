// DDG construction and Algorithm-1 contraction, including the paper's
// Fig. 5(c)/(d) worked example.
#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "analysis/ddg.hpp"
#include "support/strings.hpp"
#include "trace/reader.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

using test::fig4_source;
using test::run_pipeline;

std::vector<std::string> parent_labels(const Ddg& g, const std::string& node) {
  std::vector<std::string> out;
  const int n = g.find(node);
  if (n < 0) return out;
  for (int p : g.parents(n)) out.push_back(g.label(p));
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Ddg, NodeAndEdgeBasics) {
  Ddg g;
  const int a = g.node("a", NodeKind::MliVar);
  const int r8 = g.node("main%8", NodeKind::Register);
  EXPECT_EQ(g.node("a", NodeKind::OtherVar), a);  // get-or-create; MLI sticks
  EXPECT_EQ(g.kind(a), NodeKind::MliVar);
  g.add_edge(a, r8);
  g.add_edge(a, r8);  // duplicate edges collapse
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_TRUE(g.has_edge(a, r8));
  EXPECT_FALSE(g.has_edge(r8, a));
  g.add_edge(a, a);  // self loops are dropped
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.find("missing"), -1);

  // Thousands of distinct edges, each re-added in shuffled rounds (the edge
  // set grows several times on the way): each is kept once, and the graph
  // prints like the same graph built once in sorted order.
  constexpr int kNodes = 64;
  Ddg shuffled;
  Ddg sorted;
  for (int n = 0; n < kNodes; ++n) {
    const NodeKind kind = n % 3 == 0 ? NodeKind::MliVar : NodeKind::Register;
    shuffled.node(strf("v%d", n), kind);
    sorted.node(strf("v%d", n), kind);
  }
  std::vector<std::pair<int, int>> edges;
  for (int p = 0; p < kNodes; ++p) {
    for (int c = 0; c < kNodes; ++c) {
      if (p != c && (p * 7 + c * 3) % 5 != 0) edges.emplace_back(p, c);
    }
  }
  ASSERT_GE(edges.size(), 2000u);
  std::mt19937 rng(16);
  for (int round = 0; round < 4; ++round) {
    std::shuffle(edges.begin(), edges.end(), rng);
    for (const auto& [p, c] : edges) shuffled.add_edge(p, c);
    EXPECT_EQ(shuffled.num_edges(), edges.size());
  }
  std::sort(edges.begin(), edges.end());
  for (const auto& [p, c] : edges) sorted.add_edge(p, c);
  EXPECT_EQ(sorted.num_edges(), edges.size());
  EXPECT_EQ(shuffled.to_dot(), sorted.to_dot());
  EXPECT_EQ(shuffled.contract().to_dot(), sorted.contract().to_dot());
}

TEST(Ddg, MliStatusUpgrades) {
  Ddg g;
  const int n = g.node("x", NodeKind::Register);
  EXPECT_EQ(g.kind(n), NodeKind::Register);
  g.node("x", NodeKind::MliVar);
  EXPECT_EQ(g.kind(n), NodeKind::MliVar);
}

TEST(Contract, ChainThroughLocalsAndRegisters) {
  // a -> %10 -> m -> %12 -> sum  contracts to  a -> sum (Algorithm 1's
  // replace-parent-with-grandparent loop, as in the paper's sum example).
  Ddg g;
  const int a = g.node("a", NodeKind::MliVar);
  const int r10 = g.node("%10", NodeKind::Register);
  const int m = g.node("m", NodeKind::OtherVar);
  const int r12 = g.node("%12", NodeKind::Register);
  const int sum = g.node("sum", NodeKind::MliVar);
  g.add_edge(a, r10);
  g.add_edge(r10, m);
  g.add_edge(m, r12);
  g.add_edge(r12, sum);

  const Ddg c = g.contract();
  EXPECT_EQ(c.num_nodes(), 2);
  EXPECT_EQ(parent_labels(c, "sum"), (std::vector<std::string>{"a"}));
  EXPECT_TRUE(parent_labels(c, "a").empty());
}

TEST(Contract, DiamondKeepsBothParents) {
  // a -> t1 -> x ; b -> t1 is shared: both a and b become parents of x.
  Ddg g;
  const int a = g.node("a", NodeKind::MliVar);
  const int b = g.node("b", NodeKind::MliVar);
  const int t = g.node("t", NodeKind::Register);
  const int x = g.node("x", NodeKind::MliVar);
  g.add_edge(a, t);
  g.add_edge(b, t);
  g.add_edge(t, x);
  const Ddg c = g.contract();
  EXPECT_EQ(parent_labels(c, "x"), (std::vector<std::string>{"a", "b"}));
}

TEST(Contract, ParentlessNonMliIsDropped) {
  // A constant-fed temporary has no parents: Algorithm 1 contracts it away.
  Ddg g;
  const int t = g.node("t", NodeKind::Register);
  const int x = g.node("x", NodeKind::MliVar);
  g.add_edge(t, x);
  const Ddg c = g.contract();
  EXPECT_EQ(c.num_nodes(), 1);
  EXPECT_TRUE(parent_labels(c, "x").empty());
}

TEST(Contract, StopsAtFirstMliAlongChain) {
  // a -> r -> b -> s -> c with all of a,b,c MLI: contracted edges are
  // a->b and b->c, NOT a->c (the walk stops at the first MLI ancestor).
  Ddg g;
  const int a = g.node("a", NodeKind::MliVar);
  const int r = g.node("r", NodeKind::Register);
  const int b = g.node("b", NodeKind::MliVar);
  const int s = g.node("s", NodeKind::Register);
  const int c = g.node("c", NodeKind::MliVar);
  g.add_edge(a, r);
  g.add_edge(r, b);
  g.add_edge(b, s);
  g.add_edge(s, c);
  const Ddg out = g.contract();
  EXPECT_EQ(parent_labels(out, "b"), (std::vector<std::string>{"a"}));
  EXPECT_EQ(parent_labels(out, "c"), (std::vector<std::string>{"b"}));
  EXPECT_FALSE(out.has_edge(out.find("a"), out.find("c")));
}

TEST(Contract, CycleThroughNonMliTerminates) {
  Ddg g;
  const int x = g.node("x", NodeKind::MliVar);
  const int t1 = g.node("t1", NodeKind::Register);
  const int t2 = g.node("t2", NodeKind::Register);
  g.add_edge(t1, t2);
  g.add_edge(t2, t1);  // register cycle
  g.add_edge(t2, x);
  const Ddg c = g.contract();  // must not loop forever
  EXPECT_EQ(c.num_nodes(), 1);
}

TEST(Contract, Fig4ContractedDdgMatchesFig5d) {
  auto run = run_pipeline(fig4_source());
  const Ddg& c = run.report.contracted;

  // Fig. 5(d): it -> s; s -> a; r -> a and r -> r(self, dropped);
  // a -> sum; b -> sum; a -> b (through foo's q[i] = p[i] * 2).
  EXPECT_EQ(parent_labels(c, "a"), (std::vector<std::string>{"r", "s"}));
  EXPECT_EQ(parent_labels(c, "sum"), (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(parent_labels(c, "b"), (std::vector<std::string>{"a"}));
  // Every vertex in the contracted DDG is an MLI variable (or the induction
  // variable feeding s).
  for (int n = 0; n < c.num_nodes(); ++n) EXPECT_EQ(c.kind(n), NodeKind::MliVar);
}

TEST(Contract, Fig4CompleteDdgHasRegisterAndLocalNodes) {
  auto run = run_pipeline(fig4_source());
  const Ddg& g = run.report.dep.complete;
  // Fig. 5(c): the complete graph mixes MLI variables, the local m, foo's
  // parameters, and temporary registers.
  EXPECT_GE(g.num_nodes(), 8);
  EXPECT_NE(g.find("m"), -1);
  EXPECT_NE(g.find("sum"), -1);
  bool has_register_node = false;
  for (int n = 0; n < g.num_nodes(); ++n) {
    has_register_node = has_register_node || g.kind(n) == NodeKind::Register;
  }
  EXPECT_TRUE(has_register_node);
}

/// Every edge of `g` as a (parent label, child label) pair.
std::set<std::pair<std::string, std::string>> edge_labels(const Ddg& g) {
  std::set<std::pair<std::string, std::string>> out;
  for (int n = 0; n < g.num_nodes(); ++n) {
    for (int c : g.children(n)) out.emplace(g.label(n), g.label(c));
  }
  return out;
}

TEST(DdgEdgeMemo, AlternatingSourcesKeepEveryEdge) {
  // The replay skips a record whose edge into a node is the last one added
  // into that node. Here each destination alternates its sources, so every
  // record after a destination's first misses that memo and must still add
  // its edge: register 1 is loaded from a, b, a; register 5 sums (1, 2),
  // (3, 4), (1, 2), (1, 6), then 1 and the constant 7; x is stored from
  // main's 1, 5, 1, then f's 1 (same register name, another function) and
  // main's 1 again.
  const std::string text =
      "0,1,<global>,1:0,26,0\n"
      "1,64,8,0, \n"
      "r,64,0x100000,1,a\n"
      "0,1,<global>,1:0,26,1\n"
      "1,64,8,0, \n"
      "r,64,0x100008,1,b\n"
      "0,1,<global>,1:0,26,2\n"
      "1,64,8,0, \n"
      "r,64,0x100010,1,x\n"
      "0,3,main,3:0,27,3\n"
      "1,64,0x100000,1,a\n"
      "r,64,0,1,1\n"
      "0,3,main,3:0,27,4\n"
      "1,64,0x100008,1,b\n"
      "r,64,0,1,1\n"
      "0,3,main,3:0,27,5\n"
      "1,64,0x100000,1,a\n"
      "r,64,0,1,1\n"
      "0,4,main,4:0,8,6\n"
      "1,64,0,1,1\n"
      "2,64,0,1,2\n"
      "r,64,0,1,5\n"
      "0,4,main,4:0,8,7\n"
      "1,64,0,1,3\n"
      "2,64,0,1,4\n"
      "r,64,0,1,5\n"
      "0,4,main,4:0,8,8\n"
      "1,64,0,1,1\n"
      "2,64,0,1,2\n"
      "r,64,0,1,5\n"
      "0,4,main,4:0,8,9\n"
      "1,64,0,1,1\n"
      "2,64,0,1,6\n"
      "r,64,0,1,5\n"
      "0,4,main,4:0,8,10\n"
      "1,64,0,1,1\n"
      "2,64,7,0, \n"
      "r,64,7,1,5\n"
      "0,5,main,5:0,28,11\n"
      "1,64,0,1,1\n"
      "2,64,0x100010,1,x\n"
      "0,5,main,5:0,28,12\n"
      "1,64,0,1,5\n"
      "2,64,0x100010,1,x\n"
      "0,5,main,5:0,28,13\n"
      "1,64,0,1,1\n"
      "2,64,0x100010,1,x\n"
      "0,5,main,5:0,49,14\n"
      "0,64,0x0,0,f\n"
      "0,10,f,10:0,28,15\n"
      "1,64,0,1,1\n"
      "2,64,0x100010,1,x\n"
      "0,10,f,10:0,1,16\n"
      "0,5,main,5:0,28,17\n"
      "1,64,0,1,1\n"
      "2,64,0x100010,1,x\n";
  const trace::TraceBuffer buf = trace::read_trace_buffer(text);
  const MclRegion region{"main", 3, 5};
  const std::set<std::pair<std::string, std::string>> want = {
      {"a", "main%1"},      {"b", "main%1"},      {"main%1", "main%5"},
      {"main%2", "main%5"}, {"main%3", "main%5"}, {"main%4", "main%5"},
      {"main%6", "main%5"}, {"main%1", "x"},      {"main%5", "x"},
      {"f%1", "x"}};
  const Report batch = Session().buffer(trace::TraceBuffer(buf)).region(region).run();
  EXPECT_EQ(edge_labels(batch.dep.complete), want);
  EXPECT_EQ(edge_labels(test::stream_trace(buf, region).dep.complete), want);
}

TEST(Ddg, DotExportMentionsNodesAndEdges) {
  Ddg g;
  g.add_edge(g.node("a", NodeKind::MliVar), g.node("%1", NodeKind::Register));
  const std::string dot = g.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("\"a\""), std::string::npos);
  EXPECT_NE(dot.find("->"), std::string::npos);
}

}  // namespace
}  // namespace ac::analysis
