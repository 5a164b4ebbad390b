// cq::CountHomomorphismsExact against the backtracking oracle
// (cq::CountHomomorphisms): hand cases, random small queries, and every
// witness database of seeded generator corpora. The CountOverflow suites pin
// the checked arithmetic of all three counting engines.
#include "cq/exact_count.h"

#include <map>
#include <optional>
#include <ostream>
#include <random>
#include <string>
#include <tuple>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "core/containment_inequality.h"
#include "core/witness.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "cq/transforms.h"
#include "cq/treewidth_count.h"
#include "cq/workload.h"
#include "cq/yannakakis.h"
#include "entropy/functions.h"

namespace bagcq::cq {
namespace {

ConjunctiveQuery Parse(const std::string& text) {
  return ParseQuery(text).ValueOrDie();
}

Structure ParseDb(const std::string& text, const Vocabulary& vocab) {
  return ParseStructureWithVocabulary(text, vocab).ValueOrDie();
}

// Exact, and every other engine that applies, agree with backtracking.
void ExpectAllCountersAgree(const ConjunctiveQuery& q, const Structure& d) {
  const int64_t oracle = CountHomomorphisms(q, d);
  util::Result<int64_t> exact = CountHomomorphismsExact(q, d);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(*exact, oracle) << q.ToString() << "\n" << d.ToString();
  if (util::Result<int64_t> acyclic = CountHomomorphismsAcyclic(q, d);
      acyclic.ok()) {
    EXPECT_EQ(*acyclic, oracle) << q.ToString() << "\n" << d.ToString();
  } else {
    EXPECT_EQ(acyclic.status().code(), util::StatusCode::kNotSupported);
  }
  if (std::optional<int64_t> tw = CountHomomorphismsTreewidth(q, d)) {
    EXPECT_EQ(*tw, oracle) << q.ToString() << "\n" << d.ToString();
  }
}

TEST(ExactCountTest, RepeatedVariables) {
  ConjunctiveQuery q = Parse("R(x,x), R(x,y)");
  Structure d = ParseDb("R = {(1,1),(1,2),(2,2),(2,3),(3,1)}", q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, d), 4);  // x=1: y∈{1,2}; x=2: y∈{2,3}
  ExpectAllCountersAgree(q, d);
}

TEST(ExactCountTest, DisconnectedComponentsMultiply) {
  ConjunctiveQuery q = Parse("R(x,y), R(u,v), S(w)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1)}; S = {(1),(2)}", q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, d), 3 * 3 * 2);
  ExpectAllCountersAgree(q, d);
}

TEST(ExactCountTest, SubsetAtoms) {
  // U(x) and S(x,y) sit inside R(x,y,z)'s variable set.
  ConjunctiveQuery q = Parse("R(x,y,z), S(x,y), U(x)");
  Structure d = ParseDb(
      "R = {(1,2,3),(1,2,4),(2,2,2),(3,1,1)}; S = {(1,2),(2,2)}; U = {(1),(3)}",
      q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, d), 2);
  ExpectAllCountersAgree(q, d);
}

TEST(ExactCountTest, EmptyRelationGivesZero) {
  ConjunctiveQuery q = Parse("R(x,y), S(y,z), R(u,v)");
  Structure d = ParseDb("R = {(1,2)}", q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, d), 0);
  ExpectAllCountersAgree(q, d);
}

TEST(ExactCountTest, CyclicComponentBesideAcyclicOne) {
  // A triangle beside a path: the query is cyclic, so it is backtracked
  // whole, and the count is still the product of the two.
  ConjunctiveQuery q = Parse("R(x,y), R(y,z), R(z,x), R(a,b), R(b,c)");
  Structure d = ParseDb("R = {(1,2),(2,3),(3,1),(1,1)}", q.vocab());
  // Closed 3-walks: the 3 triangle rotations and the loop at 1.
  ASSERT_EQ(CountHomomorphisms(Parse("R(x,y), R(y,z), R(z,x)"), d), 4);
  EXPECT_EQ(*CountHomomorphismsExact(q, d),
            CountHomomorphisms(Parse("R(x,y), R(y,z), R(z,x)"), d) *
                CountHomomorphisms(Parse("R(a,b), R(b,c)"), d));
  ExpectAllCountersAgree(q, d);
}

TEST(ExactCountTest, NullaryAtoms) {
  ConjunctiveQuery q = Parse("N(), R(x,y)");
  EXPECT_EQ(*CountHomomorphismsExact(q, ParseDb("N = {()}; R = {(1,2),(2,3)}",
                                                 q.vocab())),
            2);
  Structure absent = ParseDb("R = {(1,2),(2,3)}", q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, absent), 0);
  EXPECT_EQ(CountHomomorphisms(q, absent), 0);
}

TEST(ExactCountTest, QueryWithoutAtoms) {
  ConjunctiveQuery q{Vocabulary()};
  Structure d(q.vocab());
  EXPECT_EQ(*CountHomomorphismsExact(q, d), CountHomomorphisms(q, d));
}

// Random small queries: 1–5 atoms over a 1–5 variable pool, so repeated
// variables, disconnected components, subset atoms and cycles all occur; 0–8
// random tuples per relation over a 3-value domain, so empty relations do
// too.
class ExactCountRandom : public ::testing::TestWithParam<int> {};

TEST_P(ExactCountRandom, EqualsBacktracking) {
  std::mt19937_64 rng(GetParam());
  auto below = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  const char* kRelations[] = {"R", "S", "T", "U"};
  const int kArity[] = {2, 2, 3, 1};
  const int pool = 1 + below(5);
  const int atoms = 1 + below(5);
  std::string text;
  for (int a = 0; a < atoms; ++a) {
    const int r = below(4);
    text += std::string(a ? ", " : "") + kRelations[r] + "(";
    for (int i = 0; i < kArity[r]; ++i) {
      text += std::string(i ? "," : "") + "x" + std::to_string(below(pool));
    }
    text += ")";
  }
  ConjunctiveQuery q = Parse(text);
  Structure d(q.vocab());
  for (int r = 0; r < q.vocab().size(); ++r) {
    const int tuples = below(9);
    for (int i = 0; i < tuples; ++i) {
      Structure::Tuple tuple;
      for (int j = 0; j < q.vocab().arity(r); ++j) tuple.push_back(below(3));
      d.AddTuple(r, tuple);
    }
  }
  ExpectAllCountersAgree(q, d);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExactCountRandom, ::testing::Range(1, 301));

// Every witness database the decider builds on a seeded corpus: the exact
// counter equals backtracking on both queries, and the recorded counts are
// its counts.
struct CorpusCase {
  const char* name;
  ShapeRegime regime;
  int min_vars;
  int max_vars;
};

// ctest names each case after this print; gtest's default raw-byte print
// would put the address held in `name` into the name.
void PrintTo(const CorpusCase& c, std::ostream* os) { *os << c.name; }

class ExactCountWitnessCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(ExactCountWitnessCorpus, EqualsBacktrackingOnEveryWitness) {
  WorkloadOptions options;
  options.seed = 2026;
  options.regime = GetParam().regime;
  options.min_vars = GetParam().min_vars;
  options.max_vars = GetParam().max_vars;
  options.contained_fraction = 0.25;
  api::Engine engine;
  int witnesses = 0;
  int power_witnesses = 0;
  for (const GeneratedPair& pair : WorkloadGenerator(options).Generate(160)) {
    auto decision = engine.Decide(pair.pair.q1, pair.pair.q2);
    ASSERT_TRUE(decision.ok()) << decision.status().ToString();
    if (!decision->witness.has_value()) continue;
    const core::Witness& witness = *decision->witness;
    ConjunctiveQuery q1 = RemoveDuplicateAtoms(pair.pair.q1);
    ConjunctiveQuery q2 = RemoveDuplicateAtoms(pair.pair.q2);
    if (!q1.IsBoolean()) std::tie(q1, q2) = MakeBooleanPair(q1, q2);
    const int64_t oracle_q1 = CountHomomorphisms(q1, witness.database);
    const int64_t oracle_q2 = CountHomomorphisms(q2, witness.database);
    EXPECT_EQ(*CountHomomorphismsExact(q1, witness.database), oracle_q1)
        << ToBatchLine(pair.pair);
    EXPECT_EQ(*CountHomomorphismsExact(q2, witness.database), oracle_q2)
        << ToBatchLine(pair.pair);
    EXPECT_TRUE(witness.counts_verified) << ToBatchLine(pair.pair);
    EXPECT_EQ(witness.hom_q1, oracle_q1) << ToBatchLine(pair.pair);
    EXPECT_EQ(witness.hom_q2, oracle_q2) << ToBatchLine(pair.pair);
    ++witnesses;
    // The power gadget: Q1 is two disjoint copies of Q2.
    if (pair.pair.q1.num_vars() == 2 * pair.pair.q2.num_vars()) {
      ++power_witnesses;
    }
  }
  EXPECT_GE(witnesses, 40);
  EXPECT_GE(power_witnesses, 10);
}

INSTANTIATE_TEST_SUITE_P(
    Regimes, ExactCountWitnessCorpus,
    ::testing::Values(CorpusCase{"Acyclic", ShapeRegime::kAcyclic, 2, 3},
                      CorpusCase{"Cyclic", ShapeRegime::kCyclic, 3, 3}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
      return std::string(info.param.name);
    });

// Seven disjoint R(·,·) atoms over a 600-tuple R: 600^7 ≈ 2.8e19 > 2^63.
// R holds every (i, j) with i ≠ j over 25 values (25 · 24 = 600), which
// keeps the treewidth engine's 25^2-assignment bags cheap.
ConjunctiveQuery SevenDisjointEdges() {
  return Parse(
      "R(a1,b1), R(a2,b2), R(a3,b3), R(a4,b4), R(a5,b5), R(a6,b6), R(a7,b7)");
}

Structure SixHundredEdges(const Vocabulary& vocab) {
  Structure d(vocab);
  for (int i = 0; i < 25; ++i) {
    for (int j = 0; j < 25; ++j) {
      if (i != j) d.AddTuple(0, {i, j});
    }
  }
  return d;
}

TEST(CountOverflowTest, SevenDisjointEdgesOverflowEveryEngine) {
  ConjunctiveQuery q = SevenDisjointEdges();
  Structure d = SixHundredEdges(q.vocab());
  ASSERT_EQ(d.tuples(0).size(), 600u);
  util::Result<int64_t> acyclic = CountHomomorphismsAcyclic(q, d);
  EXPECT_EQ(acyclic.status().code(), util::StatusCode::kResourceExhausted);
  EXPECT_FALSE(CountHomomorphismsTreewidth(q, d).has_value());
  util::Result<int64_t> exact = CountHomomorphismsExact(q, d);
  EXPECT_EQ(exact.status().code(), util::StatusCode::kResourceExhausted);
}

TEST(CountOverflowTest, SixDisjointEdgesStillFit) {
  ConjunctiveQuery q =
      Parse("R(a1,b1), R(a2,b2), R(a3,b3), R(a4,b4), R(a5,b5), R(a6,b6)");
  Structure d = SixHundredEdges(q.vocab());
  const int64_t expected = int64_t{600} * 600 * 600 * 600 * 600 * 600;
  EXPECT_EQ(*CountHomomorphismsAcyclic(q, d), expected);
  EXPECT_EQ(*CountHomomorphismsTreewidth(q, d), expected);
  EXPECT_EQ(*CountHomomorphismsExact(q, d), expected);
}

TEST(CountOverflowTest, EmptyComponentBeatsOverflow) {
  // Seven components of 600 each (their product overflows), then one with
  // no homomorphism: R has no loop.
  ConjunctiveQuery disjoint = Parse(
      "R(a1,b1), R(a2,b2), R(a3,b3), R(a4,b4), R(a5,b5), R(a6,b6), "
      "R(a7,b7), R(c,c)");
  Structure d = SixHundredEdges(disjoint.vocab());
  EXPECT_EQ(*CountHomomorphismsAcyclic(disjoint, d), 0);
  EXPECT_EQ(*CountHomomorphismsTreewidth(disjoint, d), 0);
  EXPECT_EQ(*CountHomomorphismsExact(disjoint, d), 0);
  // A first component that overflows on its own (a 600^7 star), then the
  // empty one.
  ConjunctiveQuery star = Parse(
      "R(x,y1), R(x,y2), R(x,y3), R(x,y4), R(x,y5), R(x,y6), R(x,y7), "
      "R(c,c)");
  Structure spokes(star.vocab());
  for (int y = 0; y < 600; ++y) spokes.AddTuple(0, {1, 1000 + y});
  EXPECT_EQ(*CountHomomorphismsAcyclic(star, spokes), 0);
  EXPECT_EQ(*CountHomomorphismsExact(star, spokes), 0);
}

TEST(CountOverflowTest, OverflowJoinedAwayIsNotReported) {
  // A(x) roots the join tree. Below it, R(x,z) carries a 600^7 star of S
  // edges at z = 5, so the DP overflows in the row (x, z) = (1, 5) before
  // the root joins it away: A holds only x = 2, and R has no (2, ·).
  ConjunctiveQuery q = Parse(
      "A(x), R(x,z), S(z,y1), S(z,y2), S(z,y3), S(z,y4), S(z,y5), S(z,y6), "
      "S(z,y7)");
  Structure d(q.vocab());
  const int a = q.vocab().Find("A");
  const int r = q.vocab().Find("R");
  const int s = q.vocab().Find("S");
  for (int y = 0; y < 600; ++y) d.AddTuple(s, {5, 1000 + y});
  d.AddTuple(r, {1, 5});
  d.AddTuple(a, {2});
  EXPECT_EQ(*CountHomomorphismsAcyclic(q, d), 0);
  EXPECT_EQ(*CountHomomorphismsExact(q, d), 0);
  // With A(1) the star is the count: 600^7 overflows.
  d.AddTuple(a, {1});
  EXPECT_EQ(CountHomomorphismsAcyclic(q, d).status().code(),
            util::StatusCode::kResourceExhausted);
  EXPECT_EQ(CountHomomorphismsExact(q, d).status().code(),
            util::StatusCode::kResourceExhausted);
}

// Q1 = seven disjoint U atoms, Q2 = U(a). With the normal function
// h = 4.5·h_∅ + 0.5·Σ_j h_{V∖{x_j}}, Lemma 4.8 scales to k = 2: P has
// 2^9 · 2^7 = 65,536 tuples (under the default 100,000 limit) and each x_i
// takes 1,024 values, so U holds 7,168 tuples and |hom(Q1,D)| = 7168^7.
TEST(CountOverflowWitnessTest, OverflowingCountIsResourceExhausted) {
  ConjunctiveQuery q1 =
      Parse("U(x1), U(x2), U(x3), U(x4), U(x5), U(x6), U(x7)");
  ConjunctiveQuery q2 =
      ParseQueryWithVocabulary("U(a)", q1.vocab()).ValueOrDie();
  const int n = q1.num_vars();
  std::map<util::VarSet, util::Rational> coeffs;
  coeffs[util::VarSet()] = util::Rational(9, 2);
  for (int j = 0; j < n; ++j) {
    coeffs[util::VarSet::Full(n).Without(j)] = util::Rational(1, 2);
  }
  entropy::SetFunction h = entropy::NormalFunction(n, coeffs);
  auto inequality = core::BuildContainmentInequality(q1, q2).ValueOrDie();
  auto witness = core::BuildWitnessFromNormal(q1, q2, inequality, h);
  ASSERT_FALSE(witness.ok());
  EXPECT_EQ(witness.status().code(), util::StatusCode::kResourceExhausted);
  // Without verification the same witness materializes.
  core::WitnessOptions unverified;
  unverified.verify_counts = false;
  auto built = core::BuildWitnessFromNormal(q1, q2, inequality, h, unverified);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->relation.size(), 65536);
  EXPECT_EQ(built->database.tuples(0).size(), 7168u);
}

TEST(CountOverflowWitnessTest, CanonicalDatabaseOverflowStillRefutes) {
  // No homomorphism Q2 -> Q1 (S is not in Q1), and the canonical database
  // of Q1 has 20^20 > 2^63 homomorphisms from Q1: the verdict stands
  // without a witness instead of a 20^20-step count.
  std::string text;
  for (int i = 0; i < 20; ++i) {
    text += (i ? ", U(x" : "U(x") + std::to_string(i) + ")";
  }
  const Vocabulary vocab = Parse("U(x), S(x,y)").vocab();
  ConjunctiveQuery q1 = ParseQueryWithVocabulary(text, vocab).ValueOrDie();
  ConjunctiveQuery q2 = ParseQueryWithVocabulary("S(y,z)", vocab).ValueOrDie();
  auto decision = api::Engine().Decide(q1, q2);
  ASSERT_TRUE(decision.ok()) << decision.status().ToString();
  EXPECT_EQ(decision->verdict, core::Verdict::kNotContained);
  EXPECT_FALSE(decision->witness.has_value());
  EXPECT_NE(decision->method.find("witness too large to verify"),
            std::string::npos)
      << decision->method;
}

}  // namespace
}  // namespace bagcq::cq
