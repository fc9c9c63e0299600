#ifndef FLOQ_QUERY_SHAPE_KEY_H_
#define FLOQ_QUERY_SHAPE_KEY_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "query/conjunctive_query.h"

// Renaming-canonical keys for conjunctive queries. Two queries have the
// same shape when a bijection between their variables maps one onto the
// other: head term by head term, and body atom by body atom as a multiset
// (the body's order and the variables' names do not matter; the head's
// order, the constants and the number of copies of an atom do). Queries
// of one shape contain each other (the bijection is a homomorphism both
// ways), and any verdict that depends on the queries only up to renaming
// can be decided once per shape (ContainmentEngine::CheckAll, DESIGN.md
// §8).

namespace floq {

/// The query's canonical form, flattened: the head arity and head terms,
/// the body size, then each body atom as its predicate followed by its
/// arguments, with atoms in a canonical order and the k-th variable of
/// that order written as Term::Variable(k).raw(). Constants (and nulls)
/// keep their own raw(). The order is the lexicographically least one
/// among those a greedy atom-by-atom choice admits, so equal keys always
/// name one shape, and two queries of one shape get equal keys.
///
/// Telling tied atoms apart can branch. Ties between atoms that
/// introduce only variables private to themselves are broken without a
/// branch (any choice yields the same key); the remaining branches share
/// a budget of 4096 atom placements. A query that exhausts it gets no
/// key (nullopt), so it shares with no other query. Keys compare only
/// between queries of one World.
std::optional<std::vector<uint32_t>> ShapeKey(const ConjunctiveQuery& query);

/// A cheap digest of the shape, in one pass: the head's arity and
/// constants, and each body atom's predicate and constants, summed over
/// the atoms so that their order does not matter; a variable counts only
/// as "a variable". Queries of one shape have equal digests, so two
/// queries whose digests differ need no ShapeKey to tell them apart.
uint64_t ShapeDigest(const ConjunctiveQuery& query);

}  // namespace floq

#endif  // FLOQ_QUERY_SHAPE_KEY_H_
