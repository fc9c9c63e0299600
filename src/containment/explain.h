#ifndef FLOQ_CONTAINMENT_EXPLAIN_H_
#define FLOQ_CONTAINMENT_EXPLAIN_H_

#include <string>

#include "containment/containment.h"
#include "query/conjunctive_query.h"
#include "term/world.h"

// Human-readable explanations of containment verdicts. For a positive
// verdict: how each atom of q2 maps into chase(q1), and the Sigma_FL
// derivation (rule + premises, recursively) of each image conjunct. For a
// negative verdict: the canonical counterexample reading of Theorem 4.
// Used by the floq CLI and by the examples.

namespace floq {

/// Renders an explanation for `result`, which must come from
/// CheckContainment(world, q1, q2, ...): the witness maps into
/// result.chase.
std::string ExplainContainment(const World& world,
                               const ConjunctiveQuery& q1,
                               const ConjunctiveQuery& q2,
                               const ContainmentResult& result);

/// Renders the derivation tree of one chase conjunct ("... by rho_k from
/// ...", recursively, with sharing noted).
std::string ExplainDerivation(const World& world, const ChaseResult& chase,
                              uint32_t conjunct_id);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_EXPLAIN_H_
