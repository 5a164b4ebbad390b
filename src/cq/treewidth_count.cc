#include "cq/treewidth_count.h"

#include "cq/tree_dp.h"
#include "graph/chordal.h"
#include "graph/junction_tree.h"
#include "util/check.h"

namespace bagcq::cq {

std::optional<int64_t> CountHomomorphismsTreewidth(
    const ConjunctiveQuery& q, const Structure& d,
    const TreewidthCountOptions& options) {
  if (q.num_atoms() == 0) return q.num_vars() == 0 ? 1 : 0;
  const std::vector<int> domain = d.ActiveDomain();
  if (domain.empty()) return 0;

  graph::Graph gaifman = q.GaifmanGraph();
  if (!graph::IsChordal(gaifman)) {
    gaifman = graph::MinimalTriangulation(gaifman);
  }
  graph::TreeDecomposition tree = graph::JunctionTree(gaifman);
  const int m = tree.num_nodes();

  // Assign every atom to the first node whose bag covers it (coverage is
  // guaranteed: atom variable sets are cliques of the Gaifman graph).
  std::vector<std::vector<int>> atoms_of(m);
  for (int a = 0; a < q.num_atoms(); ++a) {
    util::VarSet vars = q.atoms()[a].VarSet_();
    bool placed = false;
    for (int t = 0; t < m && !placed; ++t) {
      if (vars.IsSubsetOf(tree.bags()[t])) {
        atoms_of[t].push_back(a);
        placed = true;
      }
    }
    BAGCQ_CHECK(placed) << "junction tree must cover every atom";
  }

  // Bag tables: all assignments bag -> adom satisfying the bag's atoms.
  std::vector<internal::BagTable> tables(m);
  for (int t = 0; t < m; ++t) {
    const std::vector<int> bag_vars = tree.bags()[t].Elements();
    // Size guard.
    int64_t space = 1;
    for (size_t i = 0; i < bag_vars.size(); ++i) {
      space *= static_cast<int64_t>(domain.size());
      if (space > options.max_bag_assignments) return std::nullopt;
    }
    // Odometer over the bag assignment space.
    std::vector<size_t> idx(bag_vars.size(), 0);
    std::vector<int> assignment(q.num_vars(), -1);
    while (true) {
      for (size_t i = 0; i < bag_vars.size(); ++i) {
        assignment[bag_vars[i]] = domain[idx[i]];
      }
      bool ok = true;
      for (int a : atoms_of[t]) {
        const Atom& atom = q.atoms()[a];
        Structure::Tuple expect;
        expect.reserve(atom.vars.size());
        for (int v : atom.vars) expect.push_back(assignment[v]);
        if (!d.Contains(atom.relation, expect)) {
          ok = false;
          break;
        }
      }
      if (ok) {
        std::vector<int> key;
        key.reserve(bag_vars.size());
        for (int v : bag_vars) key.push_back(assignment[v]);
        tables[t][std::move(key)] = 1;
      }
      // Advance.
      size_t pos = 0;
      while (pos < idx.size()) {
        if (++idx[pos] < domain.size()) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == idx.size()) break;
    }
  }
  return internal::CountOverForest(tree, std::move(tables));
}

}  // namespace bagcq::cq
