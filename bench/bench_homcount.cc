// P3: homomorphism counting — generic backtracking vs Yannakakis-style
// join-tree DP on acyclic (path) queries over random graphs. The DP is
// polynomial in |D| while backtracking can be exponential in the query
// length; the crossover is the point the bench exhibits. The PowerWitness
// row counts a witness database the way the decider verifies it.
#include <benchmark/benchmark.h>

#include <random>
#include <tuple>

#include "api/engine.h"
#include "cq/agm.h"
#include "cq/exact_count.h"
#include "cq/homomorphism.h"
#include "cq/parser.h"
#include "cq/transforms.h"
#include "cq/treewidth_count.h"
#include "cq/workload.h"
#include "cq/yannakakis.h"

namespace {

using namespace bagcq;

cq::ConjunctiveQuery PathQuery(int length) {
  std::string text;
  for (int i = 0; i < length; ++i) {
    if (i) text += ", ";
    text += "R(x" + std::to_string(i) + ",x" + std::to_string(i + 1) + ")";
  }
  return cq::ParseQuery(text).ValueOrDie();
}

cq::Structure RandomGraph(const cq::Vocabulary& vocab, int nodes, int edges,
                          uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> node(0, nodes - 1);
  cq::Structure d(vocab);
  for (int i = 0; i < edges; ++i) d.AddTuple(0, {node(rng), node(rng)});
  return d;
}

void BM_Backtracking(benchmark::State& state) {
  auto q = PathQuery(static_cast<int>(state.range(0)));
  auto d = RandomGraph(q.vocab(), 30, 120, 42);
  int64_t count = 0;
  for (auto _ : state) {
    count = cq::CountHomomorphisms(q, d);
    benchmark::DoNotOptimize(count);
  }
  state.counters["homs"] = static_cast<double>(count);
}
BENCHMARK(BM_Backtracking)->DenseRange(2, 8, 2);

void BM_JoinTreeDp(benchmark::State& state) {
  auto q = PathQuery(static_cast<int>(state.range(0)));
  auto d = RandomGraph(q.vocab(), 30, 120, 42);
  int64_t count = 0;
  for (auto _ : state) {
    count = *cq::CountHomomorphismsAcyclic(q, d);
    benchmark::DoNotOptimize(count);
  }
  state.counters["homs"] = static_cast<double>(count);
}
BENCHMARK(BM_JoinTreeDp)->DenseRange(2, 8, 2);

void BM_DatabaseScaling(benchmark::State& state) {
  auto q = PathQuery(4);
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 4, 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*cq::CountHomomorphismsAcyclic(q, d));
  }
}
BENCHMARK(BM_DatabaseScaling)->RangeMultiplier(2)->Range(16, 128);

// The third engine on a *cyclic* query (triangle), where Yannakakis does
// not apply: treewidth DP vs backtracking.
void BM_TriangleBacktracking(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 3, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cq::CountHomomorphisms(q, d));
  }
}
BENCHMARK(BM_TriangleBacktracking)->RangeMultiplier(2)->Range(8, 32);

void BM_TriangleTreewidthDp(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), static_cast<int>(state.range(0)),
                       static_cast<int>(state.range(0)) * 3, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(*cq::CountHomomorphismsTreewidth(q, d));
  }
}
BENCHMARK(BM_TriangleTreewidthDp)->RangeMultiplier(2)->Range(8, 32);

// A heavy witness: the first power-gadget pair (Q1 = two disjoint copies of
// a 4-variable Q2) of the generator's 4-variable refutation stream, seed 1,
// whose witness has |hom(Q1,D)| ≥ 100,000. Queries are in decision form.
struct PowerWitness {
  cq::ConjunctiveQuery q1{cq::Vocabulary()};
  cq::ConjunctiveQuery q2{cq::Vocabulary()};
  cq::Structure d{cq::Vocabulary()};
};

const PowerWitness& HeavyPowerWitness() {
  static const PowerWitness witness = [] {
    cq::WorkloadOptions options;
    options.seed = 1;
    options.min_vars = 4;
    options.max_vars = 4;
    options.contained_fraction = 0.0;
    cq::WorkloadGenerator generator(options);
    api::Engine engine;
    while (true) {
      cq::GeneratedPair pair = generator.Next();
      if (pair.pair.q1.num_vars() != 2 * pair.pair.q2.num_vars()) continue;
      auto decision = engine.Decide(pair.pair.q1, pair.pair.q2);
      if (!decision.ok() || !decision->witness.has_value() ||
          decision->witness->hom_q1 < 100'000) {
        continue;
      }
      PowerWitness out;
      out.q1 = cq::RemoveDuplicateAtoms(pair.pair.q1);
      out.q2 = cq::RemoveDuplicateAtoms(pair.pair.q2);
      if (!out.q1.IsBoolean()) {
        std::tie(out.q1, out.q2) = cq::MakeBooleanPair(out.q1, out.q2);
      }
      out.d = decision->witness->database;
      return out;
    }
  }();
  return witness;
}

void BM_PowerWitnessExact(benchmark::State& state) {
  const PowerWitness& w = HeavyPowerWitness();
  int64_t homs = 0;
  for (auto _ : state) {
    homs = cq::CountHomomorphismsExact(w.q1, w.d).ValueOrDie();
    benchmark::DoNotOptimize(homs);
    benchmark::DoNotOptimize(
        cq::CountHomomorphismsExact(w.q2, w.d).ValueOrDie());
  }
  state.counters["homs_q1"] = static_cast<double>(homs);
  state.counters["tuples"] = static_cast<double>(w.d.TotalTuples());
}
BENCHMARK(BM_PowerWitnessExact)->Unit(benchmark::kMillisecond);

// AGM bound computation (exact-cover LP + exact power certificate).
void BM_AgmBound(benchmark::State& state) {
  auto q = cq::ParseQuery("R(x,y), R(y,z), R(z,x)").ValueOrDie();
  auto d = RandomGraph(q.vocab(), 20, static_cast<int>(state.range(0)), 17);
  for (auto _ : state) {
    auto bound = cq::ComputeAgmBound(q, d).ValueOrDie();
    benchmark::DoNotOptimize(bound.bound_approx);
  }
}
BENCHMARK(BM_AgmBound)->RangeMultiplier(4)->Range(16, 256);

}  // namespace

BENCHMARK_MAIN();
