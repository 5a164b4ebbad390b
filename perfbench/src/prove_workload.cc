// prove_shannon: Engine::ProveInequality and Engine::CheckMaxInequality over
// seeded information inequalities at n = 4, 5, 6, plus Zhang–Yeung. The
// answers are known by construction: a nonnegative integer combination of
// elemental inequalities is Shannon-valid; its negation is invalid, and so
// is a Max-II list whose branches are all negated combinations (each
// elemental is strictly positive at h(S) = 1 − 2^−|S|, so each negated
// branch is negative there). A list holding one valid combination is valid.
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "api/engine.h"
#include "bench.h"
#include "entropy/known_inequalities.h"
#include "entropy/max_ii.h"
#include "entropy/prover_cache.h"
#include "trace.h"

namespace perfbench {

using namespace bagcq;
using entropy::LinearExpr;
using entropy::SetFunction;
using util::Rational;
using util::VarSet;

namespace {

constexpr int kMinVars = 4;
constexpr int kMaxVars = 6;

struct Instance {
  bool max_form = false;  // CheckMaxInequality over `exprs`, else Prove
  int n = 0;
  std::vector<LinearExpr> exprs;
  bool expected_valid = false;
  std::string label;
};

class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  int Below(int bound) { return static_cast<int>(Next() % uint64_t(bound)); }

 private:
  uint64_t state_;
};

/// Every elemental inequality of Γn as an expression ≥ 0: h(N) − h(N−i),
/// and I(i;j|K) for i < j, K ⊆ N − {i, j}.
std::vector<LinearExpr> Elementals(int n) {
  std::vector<LinearExpr> out;
  const VarSet full = VarSet::Full(n);
  for (int i = 0; i < n; ++i) {
    out.push_back(LinearExpr::HCond(n, VarSet::Singleton(i), full.Without(i)));
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const uint64_t rest = full.Without(i).Without(j).mask();
      for (uint64_t k = rest;; k = (k - 1) & rest) {
        out.push_back(LinearExpr::MI(n, VarSet::Singleton(i),
                                     VarSet::Singleton(j), VarSet(k)));
        if (k == 0) break;
      }
    }
  }
  return out;
}

LinearExpr RandomCombination(int n, const std::vector<LinearExpr>& elementals,
                             SplitMix& rng) {
  LinearExpr sum(n);
  const int terms = 2 + rng.Below(5);
  for (int t = 0; t < terms; ++t) {
    const LinearExpr& e = elementals[rng.Below(int(elementals.size()))];
    sum = sum + e * Rational(1 + rng.Below(3));
  }
  return sum;
}

/// Draws rounds of instances from one seeded stream. A round holds, for
/// each n in 4..6, one instance of each of the four kinds, then
/// Zhang–Yeung: 13 proofs of a fixed make-up and fresh content.
class InstanceStream {
 public:
  explicit InstanceStream(uint64_t seed) : rng_(seed ^ 0x5eed5eedull) {
    for (int n = kMinVars; n <= kMaxVars; ++n) {
      elementals_.push_back(Elementals(n));
    }
  }

  std::vector<Instance> NextRound() {
    std::vector<Instance> out;
    for (int n = kMinVars; n <= kMaxVars; ++n) {
      const std::vector<LinearExpr>& elementals = elementals_[n - kMinVars];
      auto combo = [&] { return RandomCombination(n, elementals, rng_); };
      out.push_back({false, n, {combo()}, true, "combination"});
      out.push_back({false, n, {-combo()}, false, "negated combination"});
      std::vector<LinearExpr> branches;
      const int others = 1 + rng_.Below(2);
      for (int b = 0; b < others; ++b) branches.push_back(-combo());
      std::vector<LinearExpr> negated = branches;
      negated.push_back(-combo());
      branches.insert(branches.begin() + rng_.Below(others + 1), combo());
      out.push_back({true, n, branches, true, "max with a valid branch"});
      out.push_back({true, n, negated, false, "max of negated branches"});
    }
    out.push_back(
        {false, 4, {entropy::ZhangYeungExpr()}, false, "Zhang-Yeung"});
    return out;
  }

 private:
  SplitMix rng_;
  std::vector<std::vector<LinearExpr>> elementals_;
};

/// h is a polymatroid: grounded, and every elemental inequality holds.
/// Written out here rather than taken from the library's elemental list.
bool SatisfiesElementals(const SetFunction& h) {
  const int n = h.num_vars();
  if (!h[VarSet()].is_zero()) return false;
  const VarSet full = VarSet::Full(n);
  for (int i = 0; i < n; ++i) {
    if (h[full] < h[full.Without(i)]) return false;
  }
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      const uint64_t rest = full.Without(i).Without(j).mask();
      for (uint64_t bits = rest;; bits = (bits - 1) & rest) {
        const VarSet k(bits);
        if (h[k.With(i)] + h[k.With(j)] < h[k.With(i).With(j)] + h[k]) {
          return false;
        }
        if (bits == 0) break;
      }
    }
  }
  return true;
}

/// The fixed polymatroid h(S) = 1 − 2^−|S|.
SetFunction HalvingPolymatroid(int n) {
  SetFunction h(n);
  for (uint64_t s = 0; s < (uint64_t{1} << n); ++s) {
    const int64_t den = int64_t{1} << VarSet(s).size();
    h[VarSet(s)] = Rational(den - 1, den);
  }
  return h;
}

bool CheckProof(const Instance& instance, const api::ProofResult& result,
                std::string* why) {
  if (result.valid != instance.expected_valid) {
    *why = instance.label + " at n=" + std::to_string(instance.n) +
           (result.valid ? " proved valid" : " refuted");
    return false;
  }
  if (result.valid) {
    if (!result.certificate.has_value()) {
      *why = "valid answer without a certificate";
      return false;
    }
    LinearExpr target = instance.exprs[0];
    if (instance.max_form) {
      // The certificate proves Σ λ_ℓ·branch_ℓ ≥ 0 with λ a convex weight.
      if (result.lambda.size() != instance.exprs.size()) {
        *why = "max certificate with the wrong number of weights";
        return false;
      }
      Rational total;
      target = LinearExpr(instance.n);
      for (size_t l = 0; l < instance.exprs.size(); ++l) {
        if (result.lambda[l].sign() < 0) {
          *why = "negative max-branch weight";
          return false;
        }
        total += result.lambda[l];
        target = target + instance.exprs[l] * result.lambda[l];
      }
      if (total != Rational(1)) {
        *why = "max-branch weights do not sum to 1";
        return false;
      }
    }
    if (!result.certificate->Verify(target)) {
      *why = "certificate rejected by ShannonCertificate::Verify";
      return false;
    }
    return true;
  }
  if (!result.counterexample.has_value() ||
      result.counterexample->num_vars() != instance.n) {
    *why = "invalid answer without a counterexample";
    return false;
  }
  const SetFunction& h = *result.counterexample;
  if (!SatisfiesElementals(h)) {
    *why = "counterexample violates an elemental inequality";
    return false;
  }
  for (const LinearExpr& e : instance.exprs) {
    if (e.Evaluate(h).sign() >= 0) {
      *why = "counterexample does not make the expression negative";
      return false;
    }
  }
  return true;
}

util::Result<api::ProofResult> RunEngine(api::Engine& engine,
                                         const Instance& instance) {
  return instance.max_form ? engine.CheckMaxInequality(instance.exprs)
                           : engine.ProveInequality(instance.exprs[0]);
}

const char* ProveSpanName(int n) {
  switch (n) {
    case 4:
      return "entropy.prove.n4";
    case 5:
      return "entropy.prove.n5";
    default:
      return "entropy.prove.n6";
  }
}

}  // namespace

RunResult RunProveShannon(const Args& args) {
  RunResult out;
  // Set-up draws the first kSetupRounds rounds; later ones are drawn as the
  // run goes, outside the timed calls.
  constexpr size_t kSetupRounds = 40;
  struct ProveState {
    std::unique_ptr<InstanceStream> stream;
    std::deque<std::vector<Instance>> drawn;
    std::unique_ptr<api::Engine> engine;
    double prover_build_ms = 0.0;
  };
  auto set_up = [&args] {
    ProveState state;
    state.stream = std::make_unique<InstanceStream>(args.seed);
    for (size_t r = 0; r < kSetupRounds; ++r) {
      state.drawn.push_back(state.stream->NextRound());
    }
    state.engine = std::make_unique<api::Engine>(api::EngineOptions());
    const int64_t start = NowNs();
    for (int n = kMinVars; n <= kMaxVars; ++n) state.engine->prover(n);
    state.prover_build_ms = double(NowNs() - start) / 1e6;
    return state;
  };
  SetupTimer setup;
  ProveState state;
  setup.Time([&] { state = set_up(); });
  setup.Spread(args.seconds);
  auto repeat_setup = [&] {
    ProveState scratch;
    setup.Time([&] { scratch = set_up(); });
  };
  InstanceStream* stream = state.stream.get();
  std::deque<std::vector<Instance>>& drawn = state.drawn;
  api::Engine* engine = state.engine.get();

  // Before a round runs, the reference: every generated invalid instance is
  // negative at the fixed polymatroid 1 − 2^−|S| (Zhang–Yeung, valid there,
  // is checked by its counterexample alone).
  auto next_round = [&] {
    std::vector<Instance> round;
    if (drawn.empty()) {
      round = stream->NextRound();
    } else {
      round = std::move(drawn.front());
      drawn.pop_front();
    }
    for (const Instance& instance : round) {
      if (instance.expected_valid || instance.label == "Zhang-Yeung") continue;
      const SetFunction h = HalvingPolymatroid(instance.n);
      for (const LinearExpr& e : instance.exprs) {
        if (e.Evaluate(h).sign() >= 0) {
          out.Wrong(instance.label + " not negative at 1-2^-|S|");
        }
      }
    }
    return round;
  };
  const int64_t deadline = NowNs() + int64_t(args.seconds * 1e9);
  auto check = [&](const Instance& instance,
                   const util::Result<api::ProofResult>& result) {
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
      return;
    }
    std::string why;
    if (!CheckProof(instance, *result, &why)) out.Wrong(why);
  };

  if (!args.trace) {
    std::vector<double> latencies_ms;
    double busy_ns = 0.0;
    double cpu_ms = 0.0;
    while (NowNs() < deadline) {
      for (const Instance& instance : next_round()) {
        const double cpu_start = ThreadCpuMs();
        const int64_t start = NowNs();
        auto result = RunEngine(*engine, instance);
        const int64_t end = NowNs();
        cpu_ms += ThreadCpuMs() - cpu_start;
        busy_ns += double(end - start);
        latencies_ms.push_back(double(end - start) / 1e6);
        check(instance, result);
        if (setup.Due()) repeat_setup();
      }
    }
    while (!setup.Done()) repeat_setup();
    SetEndToEnd(&out, latencies_ms, busy_ns / 1e9, cpu_ms, PeakRssMib(),
                setup.MedianSeconds());
    return out;
  }

  // Traced run: the prover and Max-II oracle called directly with a
  // TracingSolver, beside the untraced engine calls.
  Tracer tracer;
  std::unique_ptr<TracingSolver> solver =
      EngineTracingSolver(api::EngineOptions(), &tracer);
  entropy::ProverCache provers;
  for (int n = kMinVars; n <= kMaxVars; ++n) provers.Get(n);

  // Overhead compares the engine and traced calls of the operations whose
  // engine call ran with the allocation counter off.
  int64_t engine_ns = 0;
  int64_t traced_ns = 0;
  int64_t ops = 0;
  alloc::Counts allocs;
  int64_t alloc_calls = 0;
  while (NowNs() < deadline) {
    for (const Instance& instance : next_round()) {
      tracer.set_request(static_cast<uint32_t>(ops));
      bool traced_valid = false;
      int64_t traced_call_ns = 0;
      auto run_traced = [&] {
        const int64_t start = NowNs();
        {
          ScopedSpan span(&tracer, ProveSpanName(instance.n));
          const entropy::ShannonProver& prover = provers.Get(instance.n);
          traced_valid =
              instance.max_form
                  ? entropy::MaxIIOracle(instance.n,
                                         entropy::ConeKind::kPolymatroid,
                                         &prover, solver.get())
                        .Check(instance.exprs)
                        .valid
                  : prover.Prove(instance.exprs[0], solver.get()).valid;
        }
        traced_call_ns = NowNs() - start;
      };
      if (ops % 2 == 1) run_traced();
      util::Result<api::ProofResult> result = util::Status::Internal("unset");
      const bool count_allocs = ops % kAllocSample == 0;
      if (count_allocs) {
        allocs += alloc::CountDuring([&] { result = RunEngine(*engine, instance); });
        ++alloc_calls;
      } else {
        const int64_t start = NowNs();
        result = RunEngine(*engine, instance);
        engine_ns += NowNs() - start;
      }
      if (ops % 2 == 0) run_traced();
      if (!count_allocs) traced_ns += traced_call_ns;
      ++ops;
      check(instance, result);
      if (result.ok() && traced_valid != result->valid) {
        out.Wrong("traced proof disagrees with the engine on " +
                  instance.label);
      }
    }
  }

  const auto totals = tracer.Totals();
  for (int n = kMinVars; n <= kMaxVars; ++n) {
    auto it = totals.find(ProveSpanName(n));
    const double ms = it == totals.end() || it->second.count == 0
                          ? 0.0
                          : double(it->second.total_ns) /
                                double(it->second.count) / 1e6;
    out.Set("entropy.prove_ms.n" + std::to_string(n), ms, "ms");
  }
  auto lp_span = totals.find("lp.solve");
  SetLpMetrics(&out, *solver,
               lp_span == totals.end() ? 0.0 : double(lp_span->second.self_ns),
               double(ops));
  out.Set("entropy.prover_build_ms", state.prover_build_ms, "ms");
  out.Set("alloc.count_per_op", double(allocs.count) / double(alloc_calls),
          "count");
  out.Set("alloc.bytes_per_op", double(allocs.bytes) / double(alloc_calls),
          "B");
  out.Set("trace.overhead_pct",
          (double(traced_ns) / double(engine_ns) - 1.0) * 100.0, "%");
  tracer.WriteTsv(args.workdir + "/trace-prove_shannon.tsv");
  return out;
}

}  // namespace perfbench
