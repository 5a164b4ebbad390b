#include "cq/yannakakis.h"

#include "cq/tree_dp.h"
#include "graph/hypergraph.h"
#include "util/check.h"

namespace bagcq::cq {

bool IsAcyclic(const ConjunctiveQuery& q) {
  return graph::IsAlphaAcyclic(q.num_vars(), q.AtomVarSets());
}

util::Result<int64_t> CountHomomorphismsAcyclic(const ConjunctiveQuery& q,
                                                const Structure& d) {
  if (q.num_atoms() == 0) return q.num_vars() == 0 ? 1 : 0;
  auto tree = graph::JoinTree(q.num_vars(), q.AtomVarSets());
  if (!tree.has_value()) {
    return util::Status::NotSupported("query is not alpha-acyclic");
  }

  const int m = tree->num_nodes();
  // Assign each atom to the node whose bag equals its variable set (exists
  // by construction of the join tree).
  std::vector<std::vector<int>> atoms_of(m);
  for (int a = 0; a < q.num_atoms(); ++a) {
    VarSet vars = q.atoms()[a].VarSet_();
    bool placed = false;
    for (int t = 0; t < m && !placed; ++t) {
      if (tree->bags()[t] == vars) {
        atoms_of[t].push_back(a);
        placed = true;
      }
    }
    BAGCQ_CHECK(placed) << "atom not covered by its own join-tree bag";
  }

  // Node tables: assignments over the bag variables satisfying all atoms
  // assigned there, seeded from the first atom's matches and filtered by the
  // rest.
  std::vector<int> assignment(q.num_vars());
  std::vector<bool> bound(q.num_vars());
  std::vector<internal::BagTable> tables(m);
  for (int t = 0; t < m; ++t) {
    const std::vector<int> bag_vars = tree->bags()[t].Elements();
    BAGCQ_CHECK(!atoms_of[t].empty());
    const Atom& first = q.atoms()[atoms_of[t][0]];
    for (const Structure::Tuple& tuple : d.tuples(first.relation)) {
      // Bind the bag's variables from the tuple, honouring repeated ones.
      for (int v : bag_vars) bound[v] = false;
      bool ok = true;
      for (size_t pos = 0; pos < tuple.size() && ok; ++pos) {
        const int v = first.vars[pos];
        if (!bound[v]) {
          bound[v] = true;
          assignment[v] = tuple[pos];
        }
        ok = assignment[v] == tuple[pos];
      }
      for (size_t i = 1; i < atoms_of[t].size() && ok; ++i) {
        const Atom& atom = q.atoms()[atoms_of[t][i]];
        Structure::Tuple expect;
        expect.reserve(atom.vars.size());
        for (int v : atom.vars) expect.push_back(assignment[v]);
        ok = d.Contains(atom.relation, expect);
      }
      if (!ok) continue;
      std::vector<int> key;
      key.reserve(bag_vars.size());
      for (int v : bag_vars) key.push_back(assignment[v]);
      tables[t][std::move(key)] = 1;  // set semantics: counted once
    }
  }

  std::optional<int64_t> count =
      internal::CountOverForest(*tree, std::move(tables));
  if (!count.has_value()) {
    return util::Status::ResourceExhausted("|hom(Q, D)| exceeds 2^63 - 1");
  }
  return *count;
}

}  // namespace bagcq::cq
