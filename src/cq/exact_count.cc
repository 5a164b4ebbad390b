#include "cq/exact_count.h"

#include "cq/homomorphism.h"
#include "cq/yannakakis.h"

namespace bagcq::cq {

util::Result<int64_t> CountHomomorphismsExact(const ConjunctiveQuery& q,
                                              const Structure& d) {
  util::Result<int64_t> count = CountHomomorphismsAcyclic(q, d);
  // Only a cyclic query falls back; an overflow is returned as it is.
  if (!count.ok() &&
      count.status().code() == util::StatusCode::kNotSupported) {
    return CountHomomorphisms(q, d);
  }
  return count;
}

}  // namespace bagcq::cq
