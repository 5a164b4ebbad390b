#include "cq/tree_dp.h"

#include <algorithm>

#include "util/check.h"

namespace bagcq::cq::internal {

namespace {

// Every table value is a positive count, so -1 is free to mark a value whose
// exact size exceeds INT64_MAX. It absorbs every operation it meets, and a
// row holding it can still be dropped by a join.
constexpr int64_t kOverflow = -1;

int64_t CheckedAdd(int64_t a, int64_t b) {
  int64_t sum;
  if (a == kOverflow || b == kOverflow || __builtin_add_overflow(a, b, &sum)) {
    return kOverflow;
  }
  return sum;
}

int64_t CheckedMul(int64_t a, int64_t b) {
  int64_t product;
  if (a == kOverflow || b == kOverflow ||
      __builtin_mul_overflow(a, b, &product)) {
    return kOverflow;
  }
  return product;
}

// Positions in `vars` (sorted variable ids) of the members of `shared`.
std::vector<size_t> Positions(const std::vector<int>& vars,
                              util::VarSet shared) {
  std::vector<size_t> out;
  for (size_t i = 0; i < vars.size(); ++i) {
    if (shared.Contains(vars[i])) out.push_back(i);
  }
  return out;
}

std::vector<int> Project(const std::vector<int>& key,
                         const std::vector<size_t>& positions) {
  std::vector<int> out;
  out.reserve(positions.size());
  for (size_t i : positions) out.push_back(key[i]);
  return out;
}

}  // namespace

std::optional<int64_t> CountOverForest(const graph::TreeDecomposition& tree,
                                       std::vector<BagTable> tables) {
  const int m = tree.num_nodes();
  BAGCQ_CHECK_EQ(static_cast<int>(tables.size()), m);
  // Children before parents: order nodes by depth, deepest first.
  std::vector<int> parent = tree.RootedParents();
  std::vector<int> depth(m, 0);
  for (int t = 0; t < m; ++t) {
    for (int x = t; parent[x] >= 0; x = parent[x]) ++depth[t];
  }
  std::vector<int> order(m);
  for (int t = 0; t < m; ++t) order[t] = t;
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return depth[a] > depth[b]; });

  int64_t total = 1;
  for (int t : order) {
    if (parent[t] < 0) {
      // Component root: sum the table into the product of components. An
      // empty component makes the whole count 0, whatever the others hold.
      if (tables[t].empty()) return 0;
      int64_t component = 0;
      for (const auto& [key, count] : tables[t]) {
        component = CheckedAdd(component, count);
      }
      total = CheckedMul(total, component);
      continue;
    }
    // Message to the parent: the counts summed per separator assignment,
    // then multiplied into the parent's rows (rows without one are dropped).
    const int p = parent[t];
    const util::VarSet shared = tree.bags()[t].Intersect(tree.bags()[p]);
    const std::vector<size_t> child_positions =
        Positions(tree.bags()[t].Elements(), shared);
    const std::vector<size_t> parent_positions =
        Positions(tree.bags()[p].Elements(), shared);
    BagTable message;
    for (const auto& [key, count] : tables[t]) {
      int64_t& sum = message[Project(key, child_positions)];
      sum = CheckedAdd(sum, count);
    }
    for (auto it = tables[p].begin(); it != tables[p].end();) {
      auto found = message.find(Project(it->first, parent_positions));
      if (found == message.end()) {
        it = tables[p].erase(it);
      } else {
        it->second = CheckedMul(it->second, found->second);
        ++it;
      }
    }
  }
  if (total == kOverflow) return std::nullopt;
  return total;
}

}  // namespace bagcq::cq::internal
