// decide_acyclic: Engine::Decide run serially in-process, memo off, over an
// acyclic-regime generator corpus, in rounds that also hold a fixed panel of
// 4-variable power-gadget pairs. The traced run decides every pair twice,
// once with the untraced Engine::Decide and once through TracedDecide, a
// copy of core::DecideBagContainmentWithContext's call sequence with a span
// around each layer's call; the two verdicts must agree.
#include <algorithm>
#include <memory>

#include "alloc_counter.h"
#include "api/engine.h"
#include "bench.h"
#include "core/containment_inequality.h"
#include "core/decider.h"
#include "core/witness.h"
#include "corpus.h"
#include "cq/homomorphism.h"
#include "cq/transforms.h"
#include "cq/treewidth_count.h"
#include "entropy/max_ii.h"
#include "entropy/prover_cache.h"
#include "trace.h"

namespace perfbench {

using namespace bagcq;

namespace {

std::pair<cq::ConjunctiveQuery, cq::ConjunctiveQuery> DecisionForm(
    const api::QueryPair& pair) {
  cq::ConjunctiveQuery q1 = cq::RemoveDuplicateAtoms(pair.q1);
  cq::ConjunctiveQuery q2 = cq::RemoveDuplicateAtoms(pair.q2);
  if (!q1.IsBoolean()) return cq::MakeBooleanPair(q1, q2);
  return {std::move(q1), std::move(q2)};
}

}  // namespace

cq::WorkloadOptions CorpusOptions(uint64_t seed) {
  cq::WorkloadOptions options;
  options.seed = seed;
  options.max_vars = 3;
  options.contained_fraction = 0.25;
  options.regime = cq::ShapeRegime::kAcyclic;
  return options;
}

std::vector<cq::GeneratedPair> AcyclicCorpus(uint64_t seed, size_t pairs) {
  return cq::WorkloadGenerator(CorpusOptions(seed)).Generate(pairs);
}

bool CheckDecision(const cq::GeneratedPair& pair,
                   const api::DecisionResult& result, bool recount,
                   std::string* why) {
  if (result.verdict != pair.expected) {
    *why = std::string("verdict ") + core::VerdictToString(result.verdict) +
           ", constructed " + core::VerdictToString(pair.expected) + " for " +
           cq::ToBatchLine(pair.pair);
    return false;
  }
  if (!recount || !result.witness.has_value()) return true;
  const core::Witness& witness = *result.witness;
  auto [q1, q2] = DecisionForm(pair.pair);
  auto count = [&witness](const cq::ConjunctiveQuery& q) -> int64_t {
    auto counted = cq::CountHomomorphismsTreewidth(q, witness.database);
    return counted.has_value() ? *counted
                               : cq::CountHomomorphisms(q, witness.database);
  };
  const int64_t hom_q1 = count(q1);
  const int64_t hom_q2 = count(q2);
  if (!(hom_q1 > hom_q2) || hom_q1 != witness.hom_q1 ||
      hom_q2 != witness.hom_q2) {
    *why = "witness recount |hom(Q1,D)|=" + std::to_string(hom_q1) +
           " |hom(Q2,D)|=" + std::to_string(hom_q2) + " (recorded " +
           std::to_string(witness.hom_q1) + ", " +
           std::to_string(witness.hom_q2) + ") for " +
           cq::ToBatchLine(pair.pair);
    return false;
  }
  return true;
}

namespace {

/// Work counts the traced path gathers beside its spans.
struct TracedCounts {
  int64_t homs = 0;
  int64_t witnesses = 0;
  int64_t witness_tuples = 0;
};

/// core::DecideBagContainmentWithContext, call for call, with a span around
/// each layer's call. Only the verdict and witness are kept. Keep in step
/// with src/core/decider.cc: the traced run fails if the verdicts differ.
util::Result<core::Verdict> TracedDecide(const cq::ConjunctiveQuery& q1_in,
                                         const cq::ConjunctiveQuery& q2_in,
                                         const core::DeciderOptions& options,
                                         entropy::ProverCache* provers,
                                         lp::Solver* solver, Tracer* t,
                                         TracedCounts* counts) {
  ScopedSpan root(t, "api.decide");
  if (!(q1_in.vocab() == q2_in.vocab()) ||
      q1_in.head().size() != q2_in.head().size() || q1_in.num_vars() == 0 ||
      q2_in.num_vars() == 0) {
    return util::Status::InvalidArgument("incomparable pair");
  }
  cq::ConjunctiveQuery q1{cq::Vocabulary()};
  cq::ConjunctiveQuery q2{cq::Vocabulary()};
  {
    ScopedSpan span(t, "cq.dedup");
    q1 = cq::RemoveDuplicateAtoms(q1_in);
    q2 = cq::RemoveDuplicateAtoms(q2_in);
    if (!q1.IsBoolean()) {
      auto pair = cq::MakeBooleanPair(q1, q2);
      q1 = std::move(pair.first);
      q2 = std::move(pair.second);
    }
  }
  core::Q2Analysis analysis;
  {
    ScopedSpan span(t, "core.analyze");
    analysis = core::AnalyzeQ2(q2);
  }
  std::vector<cq::VarMap> homs;
  {
    ScopedSpan span(t, "cq.hom_search");
    homs = cq::QueryHomomorphisms(q2, q1);
  }
  counts->homs += static_cast<int64_t>(homs.size());
  auto count_witness = [&](core::Witness* w) {
    ScopedSpan span(t, "cq.witness_count");
    w->hom_q1 = cq::CountHomomorphisms(q1, w->database);
    w->hom_q2 = cq::CountHomomorphisms(q2, w->database);
    w->counts_verified = w->hom_q1 > w->hom_q2;
    ++counts->witnesses;
    counts->witness_tuples += w->database.TotalTuples();
  };
  if (homs.empty()) {
    core::Witness w;
    {
      ScopedSpan span(t, "core.witness");
      entropy::Relation identity(q1.num_vars());
      entropy::Relation::Tuple tuple(q1.num_vars());
      for (int v = 0; v < q1.num_vars(); ++v) tuple[v] = v;
      identity.AddTuple(std::move(tuple));
      w.database = core::InduceDatabase(q1, identity);
      w.relation = std::move(identity);
    }
    count_witness(&w);
    if (!w.counts_verified) return util::Status::Internal("witness failed");
    return core::Verdict::kNotContained;
  }

  util::Result<core::ContainmentInequality> built = [&] {
    ScopedSpan span(t, "core.inequality");
    return core::BuildContainmentInequality(q1, q2);
  }();
  if (!built.ok()) return built.status();
  const core::ContainmentInequality& inequality = *built;
  const int n = q1.num_vars();
  const bool necessity_applies =
      analysis.decidable() || (analysis.acyclic && !inequality.branches.empty());
  const bool totally_disconnected =
      inequality.decomposition.IsTotallyDisconnected();
  entropy::MaxIIResult over_normal;
  {
    ScopedSpan span(t, "entropy.maxii_normal");
    over_normal =
        entropy::MaxIIOracle(n,
                             totally_disconnected ? entropy::ConeKind::kModular
                                                  : entropy::ConeKind::kNormal,
                             /*prover=*/nullptr, solver)
            .Check(inequality.branches);
  }
  if (!over_normal.valid) {
    if (!necessity_applies) return core::Verdict::kUnknown;
    core::WitnessOptions witness_options = options.witness;
    witness_options.verify_counts = false;  // recounted in its own span
    util::Result<core::Witness> witness = util::Status::Internal("unset");
    {
      ScopedSpan span(t, "core.witness");
      witness = core::BuildWitnessFromNormal(q1, q2, inequality,
                                             *over_normal.counterexample,
                                             witness_options);
    }
    if (witness.ok() && options.witness.verify_counts) {
      core::Witness w = std::move(witness).ValueOrDie();
      count_witness(&w);
      if (!w.counts_verified) {
        return util::Status::Internal("witness failed verification");
      }
    }
    return core::Verdict::kNotContained;
  }
  auto gamma_check = [&]() {
    ScopedSpan span(t, "entropy.maxii_gamma");
    return entropy::MaxIIOracle(n, entropy::ConeKind::kPolymatroid,
                                provers != nullptr ? &provers->Get(n) : nullptr,
                                solver)
        .Check(inequality.branches);
  };
  if (inequality.simple && analysis.decidable()) {
    if (options.want_shannon_certificate && !gamma_check().valid) {
      return util::Status::Internal("Theorem 3.6 equivalence violated");
    }
    return core::Verdict::kContained;
  }
  return gamma_check().valid ? core::Verdict::kContained
                             : core::Verdict::kUnknown;
}

}  // namespace

namespace {

/// A round is kRoundBlocks blocks. Each block is kBlockPairs pairs drawn
/// from the seed's stream followed by one pair of the power panel, so every
/// round holds the whole panel, evenly spread.
constexpr size_t kBlockPairs = 15;
constexpr size_t kRoundBlocks = 128;
constexpr size_t kRoundOps = kRoundBlocks * (kBlockPairs + 1);
/// The power panel: the first kRoundBlocks power-gadget pairs of the
/// 4-variable refutation stream of generator seed kPanelSeed. README.md
/// says why it is fixed rather than drawn from the run's seed.
constexpr uint64_t kPanelSeed = 1;

std::vector<cq::GeneratedPair> PowerPanel() {
  cq::WorkloadOptions options = CorpusOptions(kPanelSeed);
  options.min_vars = 4;
  options.max_vars = 4;
  options.contained_fraction = 0.0;
  cq::WorkloadGenerator generator(options);
  std::vector<cq::GeneratedPair> panel;
  while (panel.size() < kRoundBlocks) {
    cq::GeneratedPair pair = generator.Next();
    // A refutation is a vocabulary-mismatch or a power-gadget pair; the
    // power gadget's Q1 is two disjoint copies of Q2.
    if (pair.pair.q1.num_vars() == 2 * pair.pair.q2.num_vars()) {
      panel.push_back(std::move(pair));
    }
  }
  return panel;
}

/// Everything set-up builds.
struct DecideState {
  std::unique_ptr<cq::WorkloadGenerator> generator;
  /// The first round's pairs from the seed's stream.
  std::vector<cq::GeneratedPair> first_round;
  std::vector<cq::GeneratedPair> panel;
  std::unique_ptr<api::Engine> engine;
  double prover_build_ms = 0.0;
};

DecideState SetUpDecide(const cq::WorkloadOptions& corpus_options) {
  DecideState state;
  state.generator = std::make_unique<cq::WorkloadGenerator>(corpus_options);
  state.first_round = state.generator->Generate(kRoundBlocks * kBlockPairs);
  state.panel = PowerPanel();
  state.engine = std::make_unique<api::Engine>(api::EngineOptions());
  // Contained pairs keep Q2's variable set, so their Shannon certificates
  // need Γn for n in Q2's range; build those skeletons before timing.
  const int64_t start = NowNs();
  for (int n = corpus_options.min_vars; n <= corpus_options.max_vars; ++n) {
    state.engine->prover(n);
  }
  state.prover_build_ms = double(NowNs() - start) / 1e6;
  return state;
}

}  // namespace

RunResult RunDecideAcyclic(const Args& args) {
  RunResult out;
  // Set-up draws the first round; later rounds are drawn as the run goes,
  // outside the timed calls, so a run decides as many distinct pairs as
  // fit. A run decides whole rounds.
  const cq::WorkloadOptions corpus_options = CorpusOptions(args.seed);
  SetupTimer setup;
  DecideState state;
  setup.Time([&] { state = SetUpDecide(corpus_options); });
  setup.Spread(args.seconds);
  auto repeat_setup = [&] {
    DecideState scratch;
    setup.Time([&] { scratch = SetUpDecide(corpus_options); });
  };
  api::Engine* engine = state.engine.get();

  std::vector<cq::GeneratedPair> round = std::move(state.first_round);
  auto next_round = [&] {
    if (round.empty()) round = state.generator->Generate(kRoundBlocks * kBlockPairs);
  };
  // The pair decided as operation `op` of the current round.
  auto round_pair = [&](size_t op) -> const cq::GeneratedPair& {
    const size_t block = op / (kBlockPairs + 1);
    const size_t slot = op % (kBlockPairs + 1);
    return slot == kBlockPairs ? state.panel[block]
                               : round[block * kBlockPairs + slot];
  };
  const int64_t deadline = NowNs() + int64_t(args.seconds * 1e9);
  auto check = [&](const cq::GeneratedPair& pair,
                   const util::Result<api::DecisionResult>& result) {
    ++out.attempted;
    if (!result.ok()) {
      ++out.failed;
      return;
    }
    std::string why;
    if (!CheckDecision(pair, *result, /*recount=*/true, &why)) out.Wrong(why);
  };

  if (!args.trace) {
    std::vector<double> latencies_ms;
    double busy_ns = 0.0;
    double cpu_ms = 0.0;
    while (NowNs() < deadline) {
      next_round();
      for (size_t op = 0; op < kRoundOps; ++op) {
        const cq::GeneratedPair& pair = round_pair(op);
        const double cpu_start = ThreadCpuMs();
        const int64_t start = NowNs();
        auto result = engine->Decide(pair.pair.q1, pair.pair.q2);
        const int64_t end = NowNs();
        cpu_ms += ThreadCpuMs() - cpu_start;
        busy_ns += double(end - start);
        latencies_ms.push_back(double(end - start) / 1e6);
        check(pair, result);
        if (setup.Due()) repeat_setup();
      }
      round.clear();
    }
    while (!setup.Done()) repeat_setup();
    SetEndToEnd(&out, latencies_ms, busy_ns / 1e9, cpu_ms, PeakRssMib(),
                setup.MedianSeconds());
    return out;
  }

  // Traced run: the same engine, untraced, beside the traced copy of the
  // decider with its own solver and prover cache.
  Tracer tracer;
  const api::EngineOptions engine_options;
  std::unique_ptr<TracingSolver> solver =
      EngineTracingSolver(engine_options, &tracer);
  entropy::ProverCache provers;
  for (int n = corpus_options.min_vars; n <= corpus_options.max_vars; ++n) {
    provers.Get(n);
  }
  const core::DeciderOptions decider_options =
      engine_options.ToDeciderOptions();

  TracedCounts counts;
  // Overhead compares the engine and traced calls of the operations whose
  // engine call ran with the allocation counter off.
  int64_t engine_ns = 0;
  int64_t traced_ns = 0;
  int64_t traced_ops = 0;
  alloc::Counts allocs;
  int64_t alloc_calls = 0;
  while (NowNs() < deadline) {
    next_round();
    for (size_t op = 0; op < kRoundOps; ++op) {
      const cq::GeneratedPair& pair = round_pair(op);
      tracer.set_request(static_cast<uint32_t>(traced_ops));
      util::Result<core::Verdict> traced = core::Verdict::kUnknown;
      int64_t traced_call_ns = 0;
      auto run_traced = [&] {
        const int64_t start = NowNs();
        traced = TracedDecide(pair.pair.q1, pair.pair.q2, decider_options,
                              &provers, solver.get(), &tracer, &counts);
        traced_call_ns = NowNs() - start;
      };
      // Alternate which of the two runs first, so neither always finds the
      // caches warmed by the other.
      if (traced_ops % 2 == 1) run_traced();
      util::Result<api::DecisionResult> result =
          util::Status::Internal("unset");
      const bool count_allocs = traced_ops % kAllocSample == 0;
      if (count_allocs) {
        allocs += alloc::CountDuring(
            [&] { result = engine->Decide(pair.pair.q1, pair.pair.q2); });
        ++alloc_calls;
      } else {
        const int64_t start = NowNs();
        result = engine->Decide(pair.pair.q1, pair.pair.q2);
        engine_ns += NowNs() - start;
      }
      if (traced_ops % 2 == 0) run_traced();
      if (!count_allocs) traced_ns += traced_call_ns;
      ++traced_ops;
      check(pair, result);
      if (result.ok() && (!traced.ok() || *traced != result->verdict)) {
        out.Wrong("traced decision disagrees with Engine::Decide on " +
                  cq::ToBatchLine(pair.pair));
      }
    }
    round.clear();
  }

  const auto totals = tracer.Totals();
  auto self_ns = [&totals](const char* name) -> double {
    auto it = totals.find(name);
    return it == totals.end() ? 0.0 : double(it->second.self_ns);
  };
  const double ops = double(traced_ops);
  out.Set("cq.dedup_us", self_ns("cq.dedup") / ops / 1e3, "us");
  out.Set("cq.hom_search_us", self_ns("cq.hom_search") / ops / 1e3, "us");
  out.Set("core.analyze_us", self_ns("core.analyze") / ops / 1e3, "us");
  out.Set("core.inequality_us", self_ns("core.inequality") / ops / 1e3, "us");
  out.Set("api.decide_rest_us", self_ns("api.decide") / ops / 1e3, "us");
  out.Set("cq.homs_per_pair", double(counts.homs) / ops, "count");
  out.Set("core.witness_ms", self_ns("core.witness") / ops / 1e6, "ms");
  out.Set("core.witness_tuples",
          counts.witnesses > 0
              ? double(counts.witness_tuples) / double(counts.witnesses)
              : 0.0,
          "count");
  out.Set("cq.witness_count_ms", self_ns("cq.witness_count") / ops / 1e6,
          "ms");
  out.Set("entropy.maxii_normal_ms",
          self_ns("entropy.maxii_normal") / ops / 1e6, "ms");
  out.Set("entropy.maxii_gamma_ms", self_ns("entropy.maxii_gamma") / ops / 1e6,
          "ms");
  out.Set("entropy.prover_build_ms", state.prover_build_ms, "ms");
  SetLpMetrics(&out, *solver, self_ns("lp.solve"), ops);
  out.Set("alloc.count_per_op", double(allocs.count) / double(alloc_calls),
          "count");
  out.Set("alloc.bytes_per_op", double(allocs.bytes) / double(alloc_calls),
          "B");
  out.Set("trace.overhead_pct",
          (double(traced_ns) / double(engine_ns) - 1.0) * 100.0, "%");
  tracer.WriteTsv(args.workdir + "/trace-decide_acyclic.tsv");
  return out;
}

}  // namespace perfbench
