// The exact homomorphism counter the library verifies witnesses with
// (|hom(Q1,D)| > |hom(Q2,D)|, Fact 3.2 / Theorem 4.4). An α-acyclic query is
// counted by Yannakakis join-tree DP (cq/yannakakis.h), in time polynomial
// in |D|; its connected components are the trees of the join forest, whose
// counts the DP multiplies. Any other query is counted by whole-query
// backtracking (cq/homomorphism.h), which also stays the reference oracle
// this counter is tested against.
#pragma once

#include <cstdint>

#include "cq/query.h"
#include "cq/structure.h"
#include "util/status.h"

namespace bagcq::cq {

/// |hom(Q, D)|. ResourceExhausted if the join-tree DP count exceeds
/// INT64_MAX: the arithmetic is checked, and an overflowing count is never
/// recounted by backtracking (that would take ~2^63 steps). A component with
/// no homomorphism makes the count 0 even when another component's count
/// overflows.
util::Result<int64_t> CountHomomorphismsExact(const ConjunctiveQuery& q,
                                              const Structure& d);

}  // namespace bagcq::cq
