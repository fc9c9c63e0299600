#ifndef FLOQ_CONTAINMENT_SIGNATURE_H_
#define FLOQ_CONTAINMENT_SIGNATURE_H_

#include <cstdint>
#include <vector>

#include "chase/chase.h"
#include "query/conjunctive_query.h"
#include "term/predicate.h"

// Per-query containment signatures — cheap necessary conditions that
// discharge the overwhelming majority of an N^2 pair matrix before any
// chase or homomorphism work (the filter-before-expensive-check
// discipline; see DESIGN.md §13).
//
// The invariant every discharge rests on:
//
//   signature(q2) ⊄ closure-signature(q1)  ⇒  q1 ⊈_Sigma q2
//
// Concretely, for the ordered pair "lhs ⊆_Sigma rhs" the engine decides
// via a homomorphism body(rhs) -> chase_Sigma(lhs) (Theorem 4). A
// homomorphism maps every rhs body atom onto a chase conjunct with the
// SAME predicate, and fixes constants. Therefore:
//
//   preds(rhs)     ⊆ preds(chase(lhs))      and
//   constants(rhs) ⊆ constants(chase(lhs))
//
// are necessary for containment, and their failure is a sound definite
// kNotContained — *provided* chase(lhs) did not fail (a failed chase makes
// lhs unsatisfiable and hence vacuously contained in everything) and the
// closure sets really over-approximate the full chase (see
// ClosureSignature::prunable for the two guards).

namespace floq {

/// Dynamic bitset over interned predicate ids. Queries registered later
/// may intern predicates the earlier ones never saw, so subset tests must
/// tolerate operands of different widths (missing words read as zero).
class PredicateBits {
 public:
  void Set(PredicateId id) {
    const size_t word = id / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= uint64_t(1) << (id % 64);
  }

  bool Test(PredicateId id) const {
    const size_t word = id / 64;
    return word < words_.size() &&
           ((words_[word] >> (id % 64)) & uint64_t(1)) != 0;
  }

  bool IsSubsetOf(const PredicateBits& other) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      const uint64_t theirs = w < other.words_.size() ? other.words_[w] : 0;
      if ((words_[w] & ~theirs) != 0) return false;
    }
    return true;
  }

  void UnionWith(const PredicateBits& other) {
    if (other.words_.size() > words_.size()) {
      words_.resize(other.words_.size(), 0);
    }
    for (size_t w = 0; w < other.words_.size(); ++w) {
      words_[w] |= other.words_[w];
    }
  }

  int Count() const;
  bool Any() const;

  friend bool operator==(const PredicateBits& a, const PredicateBits& b) {
    return a.IsSubsetOf(b) && b.IsSubsetOf(a);
  }

 private:
  std::vector<uint64_t> words_;
};

/// The chase-free part of a query's signature: computed from the syntax
/// alone in one pass over head and body.
struct QuerySignature {
  /// Predicates occurring in the body.
  PredicateBits predicates;
  /// Distinct constants of body *and* head, by Term::raw(), sorted
  /// ascending. Head constants matter: safety only forces head variables
  /// into the body, so `q(c) :- member(X, D)` carries a head constant the
  /// body never mentions, and a homomorphism must still preserve it.
  std::vector<uint32_t> constants;
  /// Multiplicity of each distinct constant (parallel to `constants`) —
  /// the constant-*multiset* fingerprint. Multiplicities are lattice
  /// metadata for ordering/reporting; only the distinct set is a sound
  /// discharge condition (a homomorphism may collapse occurrences).
  std::vector<uint32_t> constant_counts;
  /// 64-bit Bloom fingerprint of `constants` (one hashed bit each). If
  /// some bit of rhs.constant_mask is missing from the lhs closure mask,
  /// some rhs constant is definitely absent — two word ops that settle
  /// most non-subset pairs without walking the sorted vectors.
  uint64_t constant_mask = 0;
  /// |q| — body atoms. An upper cardinality bound in the signature
  /// lattice, NOT a discharge condition (homomorphisms collapse atoms).
  uint32_t atoms = 0;
  /// Distinct variables (head + body). Same caveat as `atoms`.
  uint32_t variables = 0;
  /// Head arity.
  int arity = 0;
};

QuerySignature ComputeQuerySignature(const ConjunctiveQuery& query);

/// Sigma_FL closure at the predicate level: the least superset S of
/// `start` closed under "if every body predicate of a rule is in S, add
/// its head predicate". Of the twelve rules only rho_1 ({type, data} |->
/// member) and rho_5 ({mandatory} |-> data) ever add a predicate absent
/// from their own body; the other ten are predicate-preserving, and user
/// predicates are inert (no Sigma_FL rule mentions them). Sound because a
/// chase firing requires every body predicate materialized and only adds
/// its head's predicate. `with_rho5` = false models the Sigma_FL^- chase,
/// all a level cap of 0 searches.
PredicateBits SigmaClosurePredicates(const PredicateBits& start,
                                     bool with_rho5);

/// A query's full registration-time signature: the syntactic part plus an
/// over-approximation of what its chase can ever contain.
struct ClosureSignature {
  QuerySignature base;

  /// Over-approximates preds(chase_Sigma(q)) up to the level cap the
  /// engine will search. Exact (the observed set) when the registration
  /// probe completed or reached that cap; the static
  /// SigmaClosurePredicates fixpoint otherwise.
  PredicateBits closure_predicates;

  /// Over-approximates constants(chase_Sigma(q)): the chase invents only
  /// fresh nulls, never constants, and rho_4 merges keep the
  /// chase-order-earlier term, so no new constant can ever appear —
  /// constants(chase(q)) ⊆ constants(body(q) ∪ head(q)). Sorted distinct
  /// Term::raw() values.
  std::vector<uint32_t> closure_constants;
  /// Bloom fingerprint of closure_constants (see
  /// QuerySignature::constant_mask).
  uint64_t closure_constant_mask = 0;

  /// The probe ran the relevant chase to completion, so the closure sets
  /// are the exact materialized sets rather than static over-estimates.
  bool exact = false;

  /// The probe saw the chase fail (rho_4 equated distinct constants): q
  /// is unsatisfiable and vacuously contained in everything — it must
  /// NEVER be pruned as a left-hand side.
  bool chase_failed = false;

  /// May this signature discharge pairs with q on the left? False when
  /// chase_failed, and false when the probe was inconclusive *and* a
  /// deeper rho_4 failure is still possible (funct present, data
  /// derivable, and >= 2 distinct constants): such a failure would flip
  /// every verdict to vacuous containment, so pruning would be unsound.
  bool prunable = false;
};

/// Chase levels the engine's registration probe materializes for an
/// engine that searches up to `level_cap` (< 0: no fixed cap, each pair's
/// Theorem 12 bound): two, or the cap when that is lower. The probe is the
/// cached handle every later pair searches, so it must never run deeper
/// than the cap.
int SignatureProbeLevel(int level_cap);

/// Builds the closure signature for `query` as an engine that searches up
/// to `level_cap` (as in SignatureProbeLevel) will search it. `probe` is
/// the registration chase, materialized to SignatureProbeLevel(level_cap)
/// (nullptr: none ran, so only the static closure applies). A cap of 0
/// excludes rho_5 from the static closure.
ClosureSignature ComputeClosureSignature(const ConjunctiveQuery& query,
                                         int level_cap,
                                         const ChaseResult* probe);

/// The stage-0 test for the ordered pair "lhs ⊆_Sigma rhs". False is a
/// sound, definite kNotContained; true means the pair needs the full
/// chase + homomorphism pipeline.
bool MayContain(const ClosureSignature& lhs, const QuerySignature& rhs);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_SIGNATURE_H_
