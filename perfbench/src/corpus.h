// The decision corpus shared by decide_acyclic and the serve workloads, and
// the checks that hold a decision against the generator's constructed
// verdict without running the decision procedure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/result.h"
#include "cq/workload.h"

namespace perfbench {

/// The acyclic-regime generator settings for a seed: Q2 has 2–3 variables
/// (so Q1 has at most 6) and a quarter of the pairs are contained; the
/// generator's defaults otherwise (2 relations of arity ≤ 2, up to 2 extra
/// atoms). Every pair's verdict is known by construction. README.md says
/// why these two settings differ from the defaults; decide_acyclic adds
/// 4-variable pairs back through a fixed panel.
bagcq::cq::WorkloadOptions CorpusOptions(uint64_t seed);

/// The first `pairs` pairs of that seed's generator stream.
std::vector<bagcq::cq::GeneratedPair> AcyclicCorpus(uint64_t seed,
                                                    size_t pairs);

/// True iff `result` carries the constructed verdict and, when it carries a
/// witness database, an independent recount (tree-decomposition counting,
/// not the backtracking counter the decider verifies with) reproduces
/// |hom(Q1,D)| > |hom(Q2,D)| and the counts the witness recorded.
/// `recount` = false checks the verdict only.
bool CheckDecision(const bagcq::cq::GeneratedPair& pair,
                   const bagcq::api::DecisionResult& result, bool recount,
                   std::string* why);

}  // namespace perfbench
