#include "core/witness.h"

#include <sstream>

#include "cq/exact_count.h"
#include "entropy/mobius.h"
#include "util/bigint.h"
#include "util/check.h"

namespace bagcq::core {

using entropy::Relation;
using entropy::SetFunction;
using util::BigInt;
using util::Rational;
using util::VarSet;

cq::Structure InduceDatabase(const cq::ConjunctiveQuery& q1, const Relation& p,
                             bool annotate) {
  BAGCQ_CHECK_EQ(p.num_vars(), q1.num_vars());
  // Annotation stride: larger than any raw value in P.
  int64_t stride = 1;
  for (const Relation::Tuple& t : p.tuples()) {
    for (int v : t) stride = std::max<int64_t>(stride, v + 1);
  }
  cq::Structure d(q1.vocab());
  for (const cq::Atom& atom : q1.atoms()) {
    for (const Relation::Tuple& t : p.tuples()) {
      cq::Structure::Tuple row;
      row.reserve(atom.vars.size());
      for (int var : atom.vars) {
        int64_t value = annotate
                            ? static_cast<int64_t>(var) * stride + t[var]
                            : t[var];
        BAGCQ_CHECK(value <= INT32_MAX) << "annotated value overflow";
        row.push_back(static_cast<int>(value));
      }
      d.AddTuple(atom.relation, std::move(row));
    }
  }
  return d;
}

util::Result<Witness> BuildWitnessFromNormal(
    const cq::ConjunctiveQuery& q1, const cq::ConjunctiveQuery& q2,
    const ContainmentInequality& inequality, const SetFunction& normal_h,
    const WitnessOptions& options) {
  const int n = q1.num_vars();
  BAGCQ_CHECK_EQ(normal_h.num_vars(), n);
  auto decomposition = entropy::NormalDecomposition(normal_h);
  BAGCQ_CHECK(decomposition.has_value())
      << "witness construction requires a normal counterexample";

  // Violation gap: h(V) - max_φ E_φ(h) > 0.
  Rational gap;
  bool first = true;
  for (const entropy::LinearExpr& branch : inequality.branches) {
    Rational value = branch.Evaluate(normal_h);  // = E_φ(h) - h(V)
    BAGCQ_CHECK(value.sign() < 0) << "normal function does not violate Eq. (8)";
    Rational this_gap = -value;
    if (first || this_gap < gap) gap = this_gap;
    first = false;
  }
  BAGCQ_CHECK(!first);

  // Scale factor k (Lemma 4.8): k·c_W all integers and k·gap > log2 #homs.
  BigInt k(1);
  for (const auto& [w, c] : *decomposition) {
    k = BigInt::Lcm(k, c.den());
  }
  // BitLength(m) > log2(m) for every m ≥ 1, so k·gap ≥ hom_bits gives the
  // strict Lemma 4.8 gap ∆ > log2|hom(Q2,Q1)|.
  int64_t hom_bits =
      static_cast<int64_t>(BigInt(static_cast<int64_t>(inequality.homs.size()))
                               .BitLength());
  Rational scaled_gap = gap * Rational(k);
  Rational needed = Rational(hom_bits) / scaled_gap;
  BigInt multiplier = needed.Ceil();
  if (multiplier < BigInt(1)) multiplier = BigInt(1);
  k = k * multiplier;

  // Factor levels 2^{k·c_W}; guard total size 2^{k·Σc_W}.
  Rational total_exponent;
  for (const auto& [w, c] : *decomposition) total_exponent += c;
  Rational scaled_total = total_exponent * Rational(k);
  BAGCQ_CHECK(scaled_total.is_integer());
  if (scaled_total > Rational(62) ||
      BigInt::TwoToThe(static_cast<uint64_t>(scaled_total.num().ToInt64())) >
          BigInt(options.max_tuples)) {
    return util::Status::ResourceExhausted(
        "witness relation would have 2^" + scaled_total.ToString() +
        " tuples (limit " + std::to_string(options.max_tuples) + ")");
  }

  Witness out;
  out.lhs_log2 = scaled_total.num().ToInt64();
  Relation p(n);
  bool have_relation = false;
  for (const auto& [w, c] : *decomposition) {
    Rational exponent = c * Rational(k);
    BAGCQ_CHECK(exponent.is_integer());
    int64_t levels_log2 = exponent.num().ToInt64();
    int64_t levels = int64_t{1} << levels_log2;
    BAGCQ_CHECK(levels <= INT32_MAX)
        << "factor level count exceeds the relation value range";
    out.factor_levels[w] = levels;
    Relation factor = Relation::StepRelation(n, w, static_cast<int>(levels));
    p = have_relation ? p.DomainProduct(factor) : factor;
    have_relation = true;
  }
  if (!have_relation) p = Relation::StepRelation(n, VarSet(), 1);  // singleton
  BAGCQ_CHECK_EQ(p.size(), int64_t{1} << out.lhs_log2);

  // Symbolic certificate: 2^{k·h(V)} > Σ_φ 2^{k·E_φ(h)}. Branch values are
  // E_φ(h) - h(V); scaled by k they are negative integers.
  BigInt rhs(0);
  const Rational k_rat = Rational(k);
  const Rational hv = normal_h[VarSet::Full(n)];
  for (const entropy::LinearExpr& branch : inequality.branches) {
    Rational exponent = (branch.Evaluate(normal_h) + hv) * k_rat;  // k·E_φ(h)
    BAGCQ_CHECK(exponent.is_integer());
    BAGCQ_CHECK(exponent.sign() >= 0) << "ET of a polymatroid is nonnegative";
    rhs += BigInt::TwoToThe(static_cast<uint64_t>(exponent.num().ToInt64()));
  }
  out.symbolic_certificate_holds = BigInt::TwoToThe(out.lhs_log2) > rhs;
  BAGCQ_CHECK(out.symbolic_certificate_holds)
      << "Lemma 4.8 scaling failed to certify the witness";

  out.database = InduceDatabase(q1, p);
  out.relation = std::move(p);

  if (options.verify_counts) {
    // An overflowing count is a witness too large to verify.
    BAGCQ_ASSIGN_OR_RETURN(out.hom_q1,
                           cq::CountHomomorphismsExact(q1, out.database));
    BAGCQ_ASSIGN_OR_RETURN(out.hom_q2,
                           cq::CountHomomorphismsExact(q2, out.database));
    out.counts_verified = out.hom_q1 > out.hom_q2;
    BAGCQ_CHECK(out.hom_q1 >= out.relation.size())
        << "P must embed into hom(Q1, D) (Fact 3.2)";
  }
  return out;
}

std::string Witness::ToString(const cq::ConjunctiveQuery& q1) const {
  std::ostringstream os;
  os << "witness relation P over vars(Q1) with |P| = " << relation.size()
     << " = 2^" << lhs_log2 << "\n";
  os << "step factors:";
  for (const auto& [w, levels] : factor_levels) {
    os << "  h_" << w.ToString(q1.var_names()) << " x" << levels;
  }
  os << "\nsymbolic certificate: "
     << (symbolic_certificate_holds ? "holds" : "FAILED");
  if (counts_verified || hom_q1 >= 0) {
    os << "\n|hom(Q1,D)| = " << hom_q1 << "  vs  |hom(Q2,D)| = " << hom_q2
       << (counts_verified ? "  (verified)" : "  (VERIFICATION FAILED)");
  }
  return os.str();
}

}  // namespace bagcq::core
