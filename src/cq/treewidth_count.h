// Homomorphism counting for *arbitrary* (possibly cyclic) queries by
// dynamic programming over a junction tree of the minimally triangulated
// Gaifman graph: O(|adom|^treewidth) per bag. The third counting engine —
// backtracking (any query), Yannakakis DP (acyclic), and this one — all
// cross-validate in tests. The library's own counts do not use it
// (cq/exact_count.h), so it stays an independent recount: the odometer
// enumerates |adom|^|bag| assignments whatever |D| is.
#pragma once

#include <cstdint>
#include <optional>

#include "cq/query.h"
#include "cq/structure.h"

namespace bagcq::cq {

struct TreewidthCountOptions {
  /// Refuse bags whose assignment space |adom|^|bag| exceeds this.
  int64_t max_bag_assignments = 50'000'000;
};

/// |hom(Q, D)|, or nullopt if some bag's assignment space exceeds the
/// option limit or the count exceeds INT64_MAX (the arithmetic is checked,
/// so a count never wraps). nullopt does not say which. A caller must not
/// fall back to backtracking on an overflow, which would take ~2^63 steps;
/// one that falls back on nullopt must rule overflow out another way, e.g.
/// by a count from cq::CountHomomorphismsExact.
std::optional<int64_t> CountHomomorphismsTreewidth(
    const ConjunctiveQuery& q, const Structure& d,
    const TreewidthCountOptions& options = {});

}  // namespace bagcq::cq
