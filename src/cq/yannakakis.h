// Join-tree counting for acyclic queries (Yannakakis-style dynamic
// programming): |hom(Q, D)| in time polynomial in |D| when Q is α-acyclic.
// It is the counter cq::CountHomomorphismsExact (cq/exact_count.h) uses for
// acyclic queries, and the backtracking oracle (cq/homomorphism.h) checks
// it in tests.
#pragma once

#include <cstdint>

#include "cq/query.h"
#include "cq/structure.h"
#include "util/status.h"

namespace bagcq::cq {

/// |hom(Q, D)| via join-tree DP. NotSupported if Q is not α-acyclic;
/// ResourceExhausted if the count exceeds INT64_MAX (the arithmetic is
/// checked, so a count never wraps).
util::Result<int64_t> CountHomomorphismsAcyclic(const ConjunctiveQuery& q,
                                                const Structure& d);

/// α-acyclicity of the query's atom hypergraph (Definition 2.6).
bool IsAcyclic(const ConjunctiveQuery& q);

}  // namespace bagcq::cq
