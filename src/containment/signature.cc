#include "containment/signature.h"

#include <algorithm>
#include <bit>

namespace floq {

namespace {

// One hashed bit per constant: a Fibonacci multiplicative hash spreads
// consecutively interned ids across the 64-bit Bloom mask.
uint64_t ConstantBit(uint32_t raw) {
  return uint64_t(1) << ((raw * uint64_t(0x9E3779B97F4A7C15)) >> 58);
}

// Collects the distinct constants of `terms` into sorted (raw, count)
// parallel vectors (and their Bloom mask), merging with whatever is
// already there.
void FoldConstants(const Term* begin, const Term* end,
                   std::vector<uint32_t>* raws,
                   std::vector<uint32_t>* counts, uint64_t* mask) {
  for (const Term* t = begin; t != end; ++t) {
    if (!t->IsConstant()) continue;
    const uint32_t raw = t->raw();
    *mask |= ConstantBit(raw);
    auto it = std::lower_bound(raws->begin(), raws->end(), raw);
    if (it != raws->end() && *it == raw) {
      if (counts != nullptr) ++(*counts)[size_t(it - raws->begin())];
    } else {
      const size_t pos = size_t(it - raws->begin());
      raws->insert(it, raw);
      if (counts != nullptr) {
        counts->insert(counts->begin() + long(pos), 1);
      }
    }
  }
}

}  // namespace

int PredicateBits::Count() const {
  int count = 0;
  for (uint64_t word : words_) count += std::popcount(word);
  return count;
}

bool PredicateBits::Any() const {
  for (uint64_t word : words_) {
    if (word != 0) return true;
  }
  return false;
}

QuerySignature ComputeQuerySignature(const ConjunctiveQuery& query) {
  QuerySignature sig;
  sig.arity = query.arity();
  sig.atoms = uint32_t(query.body().size());
  sig.variables = uint32_t(query.Variables().size());
  for (const Atom& atom : query.body()) {
    sig.predicates.Set(atom.predicate());
    FoldConstants(atom.begin(), atom.end(), &sig.constants,
                  &sig.constant_counts, &sig.constant_mask);
  }
  const std::vector<Term>& head = query.head();
  FoldConstants(head.data(), head.data() + head.size(), &sig.constants,
                &sig.constant_counts, &sig.constant_mask);
  return sig;
}

PredicateBits SigmaClosurePredicates(const PredicateBits& start,
                                     bool with_rho5) {
  // Predicate-level abstraction of the twelve Sigma_FL rules (sigma_fl.h):
  // each entry reads "if every body predicate is derivable, the head
  // predicate is". Entries whose head already occurs in their body are
  // fixpoint no-ops but kept for fidelity to the rule list; rho_4 (an EGD)
  // derives no atom and has no entry.
  struct RuleAbstraction {
    PredicateId head;
    PredicateId body[2];
    int body_size;
    bool needs_rho5;
  };
  static constexpr RuleAbstraction kRules[] = {
      {pfl::kMember, {pfl::kType, pfl::kData}, 2, false},      // rho_1
      {pfl::kSub, {pfl::kSub, pfl::kSub}, 2, false},           // rho_2
      {pfl::kMember, {pfl::kMember, pfl::kSub}, 2, false},     // rho_3
      {pfl::kData, {pfl::kMandatory, kInvalidPredicate}, 1, true},  // rho_5
      {pfl::kType, {pfl::kMember, pfl::kType}, 2, false},      // rho_6
      {pfl::kType, {pfl::kSub, pfl::kType}, 2, false},         // rho_7
      {pfl::kType, {pfl::kType, pfl::kSub}, 2, false},         // rho_8
      {pfl::kMandatory, {pfl::kSub, pfl::kMandatory}, 2, false},    // rho_9
      {pfl::kMandatory, {pfl::kMember, pfl::kMandatory}, 2, false},  // rho_10
      {pfl::kFunct, {pfl::kSub, pfl::kFunct}, 2, false},       // rho_11
      {pfl::kFunct, {pfl::kMember, pfl::kFunct}, 2, false},    // rho_12
  };

  PredicateBits closure = start;
  bool changed = true;
  while (changed) {
    changed = false;
    for (const RuleAbstraction& rule : kRules) {
      if (rule.needs_rho5 && !with_rho5) continue;
      if (closure.Test(rule.head)) continue;
      bool body_ok = true;
      for (int i = 0; i < rule.body_size; ++i) {
        body_ok = body_ok && closure.Test(rule.body[i]);
      }
      if (body_ok) {
        closure.Set(rule.head);
        changed = true;
      }
    }
  }
  return closure;
}

int SignatureProbeLevel(int level_cap) {
  constexpr int kProbeLevels = 2;
  return level_cap >= 0 ? std::min(level_cap, kProbeLevels) : kProbeLevels;
}

ClosureSignature ComputeClosureSignature(const ConjunctiveQuery& query,
                                         int level_cap,
                                         const ChaseResult* probe) {
  ClosureSignature sig;
  sig.base = ComputeQuerySignature(query);

  if (probe != nullptr && probe->failed()) {
    sig.closure_predicates = sig.base.predicates;
    sig.closure_constants = sig.base.constants;
    sig.closure_constant_mask = sig.base.constant_mask;
    sig.chase_failed = true;
    sig.prunable = false;  // vacuously contained in everything
    return sig;
  }

  // The probe is exact when it materialized everything the engine's hom
  // stage can ever search: a completed chase, or a level-capped one whose
  // probe level is the engine's cap (kLevelCapped promises every conjunct
  // up to the cap is present).
  const bool exact =
      probe != nullptr &&
      (probe->outcome() == ChaseOutcome::kCompleted ||
       (probe->outcome() == ChaseOutcome::kLevelCapped &&
        SignatureProbeLevel(level_cap) == level_cap));

  if (exact) {
    for (const Atom& atom : probe->conjuncts().atoms()) {
      sig.closure_predicates.Set(atom.predicate());
      FoldConstants(atom.begin(), atom.end(), &sig.closure_constants,
                    nullptr, &sig.closure_constant_mask);
    }
    const std::vector<Term>& head = probe->head();
    FoldConstants(head.data(), head.data() + head.size(),
                  &sig.closure_constants, nullptr,
                  &sig.closure_constant_mask);
    sig.exact = true;
    sig.prunable = true;
    return sig;
  }

  // Inconclusive probe (interrupted / budget / deeper cap): fall back to
  // the static over-approximations, which cover every level.
  sig.closure_predicates = SigmaClosurePredicates(
      sig.base.predicates, /*with_rho5=*/level_cap != 0);
  sig.closure_constants = sig.base.constants;
  sig.closure_constant_mask = sig.base.constant_mask;

  // rho_4 can fail at a level the probe never reached (merge cascades can
  // make two original data atoms newly agree on (O, A)), and a failure
  // would make q vacuously contained in everything — so a query that
  // *could* still fail must not prune. It cannot fail unless funct atoms
  // are present, data atoms are derivable, and there are two distinct
  // constants to equate.
  const bool can_fail = sig.base.predicates.Test(pfl::kFunct) &&
                        sig.closure_predicates.Test(pfl::kData) &&
                        sig.base.constants.size() >= 2;
  sig.prunable = !can_fail;
  return sig;
}

bool MayContain(const ClosureSignature& lhs, const QuerySignature& rhs) {
  if (!lhs.prunable) return true;
  // Cheapest test first: a Bloom bit rhs carries but the closure lacks
  // proves some rhs constant is absent. Only mask-subset pairs pay the
  // exact checks below.
  if ((rhs.constant_mask & ~lhs.closure_constant_mask) != 0) return false;
  if (!rhs.predicates.IsSubsetOf(lhs.closure_predicates)) return false;
  // A homomorphism fixes constants and the chase invents none, so every
  // rhs constant must already occur in lhs's closure.
  return std::includes(lhs.closure_constants.begin(),
                       lhs.closure_constants.end(), rhs.constants.begin(),
                       rhs.constants.end());
}

}  // namespace floq
