#include <random>

#include <gtest/gtest.h>

#include "cq/agm.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "cq/treewidth_count.h"
#include "cq/yannakakis.h"

namespace bagcq::cq {
namespace {

using util::Rational;

ConjunctiveQuery Parse(const std::string& text) {
  return ParseQuery(text).ValueOrDie();
}

Structure ParseDb(const std::string& text, const Vocabulary& vocab) {
  return ParseStructureWithVocabulary(text, vocab).ValueOrDie();
}

TEST(TreewidthCountTest, TriangleOnTriangle) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, 3);
  EXPECT_EQ(*count, CountHomomorphisms(q, d));
}

TEST(TreewidthCountTest, FourCycle) {
  // 4-cycle query (treewidth 2 after triangulation).
  ConjunctiveQuery q = Parse("R(a,b), R(b,c), R(c,d), R(d,a)");
  Structure d = ParseDb("R = {(1,2),(2,1),(1,1),(2,3),(3,1)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, CountHomomorphisms(q, d));
}

TEST(TreewidthCountTest, MatchesYannakakisOnAcyclic) {
  ConjunctiveQuery q = Parse("R(x,y), S(y,z), T(z)");
  Structure d = ParseDb(
      "R = {(1,2),(2,2),(3,1)}; S = {(2,5),(2,6),(1,5)}; T = {(5),(7)}",
      q.vocab());
  auto tw = CountHomomorphismsTreewidth(q, d);
  auto yk = CountHomomorphismsAcyclic(q, d);
  ASSERT_TRUE(tw.has_value());
  ASSERT_TRUE(yk.ok());
  EXPECT_EQ(*tw, *yk);
}

TEST(TreewidthCountTest, RepeatedVariablesAndLoops) {
  ConjunctiveQuery q = Parse("R(x,x), R(x,y)");
  Structure d = ParseDb("R = {(1,1),(1,2),(2,3)}", q.vocab());
  auto count = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(count.has_value());
  EXPECT_EQ(*count, CountHomomorphisms(q, d));  // x=1, y ∈ {1,2}
  EXPECT_EQ(*count, 2);
}

TEST(TreewidthCountTest, EmptyDatabase) {
  ConjunctiveQuery q = Parse("R(x,y)");
  Structure d(q.vocab());
  EXPECT_EQ(*CountHomomorphismsTreewidth(q, d), 0);
}

TEST(TreewidthCountTest, SizeGuardTriggers) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d(q.vocab());
  for (int i = 0; i < 60; ++i) d.AddTuple(0, {i, (i + 1) % 60});
  TreewidthCountOptions tiny;
  tiny.max_bag_assignments = 100;  // 60^3 blows past this
  EXPECT_FALSE(CountHomomorphismsTreewidth(q, d, tiny).has_value());
}

// Three engines, one answer: random cyclic-or-not queries on random data.
class EngineTriangulationSweep : public ::testing::TestWithParam<int> {};

TEST_P(EngineTriangulationSweep, TreewidthMatchesBacktracking) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> value(1, 3);
  std::uniform_int_distribution<int> shape(0, 3);
  const char* queries[] = {
      "R(x,y), R(y,z), R(z,x)",                 // triangle
      "R(a,b), R(b,c), R(c,d), R(d,a)",         // C4
      "R(x,y), R(y,z), R(z,w)",                 // path
      "R(x,y), R(y,z), R(z,x), R(x,w)",         // triangle + pendant
  };
  ConjunctiveQuery q = Parse(queries[shape(rng)]);
  Structure d(q.vocab());
  int tuples = 3 + static_cast<int>(rng() % 8);
  for (int i = 0; i < tuples; ++i) d.AddTuple(0, {value(rng), value(rng)});
  auto tw = CountHomomorphismsTreewidth(q, d);
  ASSERT_TRUE(tw.has_value());
  EXPECT_EQ(*tw, CountHomomorphisms(q, d)) << q.ToString() << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineTriangulationSweep,
                         ::testing::Range(1, 40));

TEST(AgmTest, TriangleBoundIsThreeHalvesPower) {
  // AGM for the triangle: |hom| ≤ m^{3/2} with x = (1/2,1/2,1/2).
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1),(1,3),(3,2),(2,1)}",
                        q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  Rational total;
  for (const Rational& x : bound.cover) total += x;
  EXPECT_EQ(total, Rational(3, 2));  // fractional edge cover number of K3
  int64_t hom = CountHomomorphisms(q, d);
  EXPECT_TRUE(AgmBoundHolds(bound, hom));
  // m = 6: bound ≈ 6^{3/2} ≈ 14.7, hom = 6 rotations-with-orientation... at
  // least the bound is comfortably above the true count.
  EXPECT_GT(bound.bound_approx, static_cast<double>(hom) - 1e-9);
}

TEST(AgmTest, PathCoverNumberIsTwo) {
  ConjunctiveQuery q = Parse("R(x,y), S(y,z)");
  Structure d = ParseDb("R = {(1,2),(2,3)}; S = {(2,4),(3,4)}", q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  Rational total;
  for (const Rational& x : bound.cover) total += x;
  EXPECT_EQ(total, Rational(2));  // both atoms needed fully
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)));
}

TEST(AgmTest, EmptyRelationGivesZeroCount) {
  ConjunctiveQuery q = Parse("R(x,y), S(y)");
  Structure d = ParseDb("R = {(1,2)}; S = {}", q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  EXPECT_EQ(CountHomomorphisms(q, d), 0);
  EXPECT_TRUE(AgmBoundHolds(bound, 0));
}

TEST(AgmTest, CoverIsFeasible) {
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), S(z,w), S(w,x)");
  Structure d = ParseDb("R = {(1,2),(2,3)}; S = {(3,4),(4,1),(4,4)}",
                        q.vocab());
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  // Feasibility: every variable covered with total weight >= 1.
  for (int v = 0; v < q.num_vars(); ++v) {
    Rational total;
    for (int a = 0; a < q.num_atoms(); ++a) {
      if (q.atoms()[a].VarSet_().Contains(v)) total += bound.cover[a];
    }
    EXPECT_GE(total, Rational(1)) << "variable " << q.var_name(v);
  }
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)));
}

// Property sweep: the AGM bound is never violated.
class AgmSweep : public ::testing::TestWithParam<int> {};

TEST_P(AgmSweep, BoundAlwaysHolds) {
  std::mt19937_64 rng(GetParam());
  std::uniform_int_distribution<int> value(1, 4);
  const char* queries[] = {
      "R(x,y), R(y,z), R(z,x)",
      "R(x,y), S(y,z)",
      "R(a,b), R(b,c), R(c,d), R(d,a)",
      "R(x,y), S(y,z), R(z,x)",
  };
  ConjunctiveQuery q = Parse(queries[GetParam() % 4]);
  Structure d(q.vocab());
  for (int r = 0; r < q.vocab().size(); ++r) {
    int tuples = 1 + static_cast<int>(rng() % 10);
    for (int i = 0; i < tuples; ++i) {
      Structure::Tuple t;
      for (int j = 0; j < q.vocab().arity(r); ++j) t.push_back(value(rng));
      d.AddTuple(r, t);
    }
  }
  auto bound = ComputeAgmBound(q, d).ValueOrDie();
  EXPECT_TRUE(AgmBoundHolds(bound, CountHomomorphisms(q, d)))
      << q.ToString() << " on " << d.ToString();
}

INSTANTIATE_TEST_SUITE_P(Seeds, AgmSweep, ::testing::Range(1, 40));

}  // namespace
}  // namespace bagcq::cq
