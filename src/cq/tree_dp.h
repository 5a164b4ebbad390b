// Sum-product message passing over a rooted forest of bag tables: the step
// both dynamic-programming homomorphism counters share (Yannakakis join-tree
// DP in yannakakis.cc, junction-tree DP in treewidth_count.cc). They differ
// only in how they fill the bag tables. Every addition and multiplication is
// overflow-checked, so a count above INT64_MAX is reported, never wrapped.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "graph/tree_decomposition.h"

namespace bagcq::cq::internal {

/// The assignments of one bag's variables (values in increasing variable
/// order) that satisfy the atoms placed at the bag. Counts start at 1.
using BagTable = std::map<std::vector<int>, int64_t>;

/// The number of assignments of the decomposition's variables whose
/// restriction to every bag is a row of that bag's table. The decomposition
/// must have the running-intersection property and cover every variable.
/// nullopt if the number exceeds INT64_MAX. A part that overflows but is
/// joined away by a sibling or parent, or multiplied by an empty component,
/// does not count as overflow: the result is nullopt only when the exact
/// count is too large.
std::optional<int64_t> CountOverForest(const graph::TreeDecomposition& tree,
                                       std::vector<BagTable> tables);

}  // namespace bagcq::cq::internal
