#ifndef FLOQ_CONTAINMENT_CONTAINMENT_H_
#define FLOQ_CONTAINMENT_CONTAINMENT_H_

#include <optional>
#include <span>
#include <vector>

#include "chase/chase.h"
#include "chase/dependencies.h"
#include "containment/governor.h"
#include "containment/homomorphism.h"
#include "query/conjunctive_query.h"
#include "term/world.h"
#include "util/status.h"

// Containment of conjunctive object meta-queries under Sigma_FL — the
// paper's main result. CheckContainment decides q1 ⊆_Sigma q2 by
// materializing chase_Sigma(q1) up to level |q2| · 2|q1| (Theorem 12) and
// searching for a homomorphism from q2 (Theorem 4).
//
// Every check here takes that one decision path (DESIGN.md §7): chase q1
// under a dependency set and its level policy, rename q2 apart, and let
// SettlePair search and settle the pair. The entry points differ only in
// the set: Sigma_FL to the Theorem 12 bound (or level_override),
// a user set (CheckContainmentUnderDependencies), or Sigma = ∅
// (CheckClassicalContainment: Chandra–Merlin, whose chase is body(q1)).
// Two weaker, sound-but-incomplete baselines serve the benchmarks: the
// classical check, and level_override = 0, which searches level 0 only
// (the terminating Sigma_FL^- chase).

namespace floq {

/// The level cap of Theorem 12: |q2| * delta with delta = 2|q1|.
int PaperLevelBound(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

struct ContainmentOptions {
  /// Overrides the level cap when >= 0: 0 searches level 0 only (the
  /// Sigma_FL^- baseline), and convergence experiments sweep it. Required
  /// by CheckContainmentUnderDependencies on a set that is not weakly
  /// acyclic; a weakly acyclic set (Sigma = ∅ among them) runs to
  /// completion and ignores it.
  int level_override = -1;
  /// Budget on materialized chase conjuncts; exceeding it truncates the
  /// chase, so a negative verdict becomes kUnknown(kChaseAtomBudget) (the
  /// decision problem is NP-hard, Theorem 13 gives a *nondeterministic*
  /// polynomial algorithm).
  uint64_t max_chase_atoms = 2'000'000;
  /// Resource governance: wall-clock timeout/deadline, cancellation
  /// token, and hom-search step budget. When any of these trips before
  /// the check is decided, the result degrades to
  /// Resolution::kUnknown with a typed reason instead of a spurious
  /// "not contained" (see governor.h for the soundness argument).
  ResourceBudget budget;
  /// Record chase-graph cross-arcs (Definition 3(4)) in result.chase so a
  /// DOT export shows the full graph. Extra bookkeeping; off by default.
  /// Used by `floq explain --chase-dot`.
  bool record_cross_arcs = false;
  /// Run the signature prefilter (signature.h) as stage 0 of the batch
  /// engine's per-pair pipeline: pairs whose predicate/constant subset
  /// test fails are discharged kNotContained with zero chase or hom work.
  /// Consulted by ContainmentEngine / ContainmentIndex / the classifier
  /// and view analysis; the one-shot checkers below ignore it. `floq
  /// classify --no-prune` turns it off.
  bool use_signature_index = true;
};

struct ContainmentResult {
  /// The verdict: q1 ⊆_Sigma q2. Kept for callers that predate the
  /// three-valued resolution; always equals
  /// (resolution == Resolution::kContained).
  bool contained = false;

  /// The three-valued verdict. kUnknown means a resource budget tripped
  /// before the check was decided; `unknown_reason` names it. Positive
  /// verdicts are sound even under trips (a homomorphism into a chase
  /// prefix composes into the universal model); negatives require the
  /// full materialization and an exhausted search.
  Resolution resolution = Resolution::kNotContained;

  /// The budget that made the verdict kUnknown (kNone otherwise). When
  /// several tripped, cancellation wins, then the chase stage (the
  /// earlier one); see SettlePair.
  TripReason unknown_reason = TripReason::kNone;

  /// False when the verdict is kUnknown, and for a negative verdict of
  /// CheckContainmentUnderDependencies on a non-weakly-acyclic set whose
  /// chase stopped at the level override (the homomorphism could exist
  /// deeper).
  bool conclusive = true;

  /// True when containment holds vacuously because chase(q1) failed
  /// (rho_4 equated two distinct constants): q1 is unsatisfiable under
  /// Sigma_FL and returns no answers on any legal database.
  bool q1_unsatisfiable = false;

  /// The homomorphism body(q2) -> chase(q1) when contained (empty when
  /// q1_unsatisfiable).
  std::optional<Substitution> witness;

  /// The materialized chase of q1. When not contained, this (frozen) is
  /// the counterexample database: q1 yields chase_head on it, q2 does not.
  /// Under Sigma = ∅ (CheckClassicalContainment) it is body(q1) itself,
  /// completed at level 0.
  ChaseResult chase;

  /// Level cap that was used; -1 when the chase ran to completion (a
  /// weakly acyclic set, Sigma = ∅ included).
  int level_bound = -1;

  /// Homomorphism search effort.
  MatchStats hom_stats;

  /// Wall-clock cost of each stage of this check (zero for stages that
  /// never ran). Surfaced by `floq explain --profile`.
  double chase_ms = 0.0;
  double hom_ms = 0.0;
};

/// Decides q1 ⊆_Sigma_FL q2. Fails with kInvalidArgument if the queries
/// have different arities or are malformed. Resource trips (the chase
/// atom budget, the hom step budget, a deadline, cancellation) do not
/// fail the call: they surface as resolution == kUnknown with a typed
/// unknown_reason, so batch callers can keep definite verdicts for the
/// other pairs.
Result<ContainmentResult> CheckContainment(World& world,
                                           const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const ContainmentOptions& options =
                                               {});

/// Classical conjunctive-query containment q1 ⊆ q2 over unconstrained
/// databases (Chandra & Merlin 1977): the one decision path under
/// Sigma = ∅, i.e. a homomorphism body(q2) -> body(q1) with head(q2) ->
/// head(q1). Sound, incomplete under Sigma_FL. level_override is ignored.
Result<ContainmentResult> CheckClassicalContainment(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ContainmentOptions& options = {});

/// Equivalence under Sigma_FL: containment in both directions. False as
/// soon as either direction is NOT_CONTAINED; when neither is and one is
/// UNKNOWN, fails with the trip's typed error (ResourceExhausted,
/// DeadlineExceeded, Cancelled) as CheckUcqContainment does.
Result<bool> CheckEquivalence(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentOptions& options = {});

/// Containment in a union of conjunctive queries: q ⊆_Sigma q1 ∪ ... ∪ qn
/// iff some disjunct maps into chase_Sigma(q) within the per-disjunct
/// bound (the standard disjunct-wise argument; see DESIGN.md §7). One
/// chase, to the largest per-disjunct bound (or level_override), serves
/// every disjunct, and SettlePair settles each. Returns the index of the
/// first disjunct that witnesses containment, or nullopt. With no kUnknown
/// channel, a pair no disjunct witnesses while a budget tripped fails with
/// the trip's typed error (ResourceExhausted, DeadlineExceeded,
/// Cancelled).
Result<std::optional<size_t>> CheckUcqContainment(
    World& world, const ConjunctiveQuery& q,
    std::span<const ConjunctiveQuery> disjuncts,
    const ContainmentOptions& options = {});

/// Containment under a *user* dependency set (the paper's future-work
/// direction, realized through the same chase engine): q1 ⊆_Sigma q2 for
/// any set of TGDs/EGDs.
///   * If the set is weakly acyclic, the chase terminates and the check is
///     sound and complete (Theorem 4 + Fagin et al. universality).
///   * Otherwise options.level_override must be set (>= 0); positive
///     verdicts remain sound, negative verdicts are flagged inconclusive
///     (result.conclusive = false). Without an override the call fails
///     with kFailedPrecondition.
Result<ContainmentResult> CheckContainmentUnderDependencies(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const DependencySet& dependencies, const ContainmentOptions& options = {});

/// Containment of a union in a union: lhs_1 ∪ ... ∪ lhs_m ⊆_Sigma
/// rhs_1 ∪ ... ∪ rhs_n iff every lhs_i is contained in the rhs union.
/// Returns the index of the first violating lhs disjunct, or nullopt when
/// the containment holds.
Result<std::optional<size_t>> CheckUnionContainment(
    World& world, std::span<const ConjunctiveQuery> lhs,
    std::span<const ConjunctiveQuery> rhs,
    const ContainmentOptions& options = {});

/// What SettlePair decided for one pair.
struct Settlement {
  Resolution resolution = Resolution::kNotContained;
  /// The trip behind kUnknown (kNone otherwise).
  TripReason unknown_reason = TripReason::kNone;
  /// body(q2_renamed) -> chase, when a search found one.
  std::optional<Substitution> hom;
};

/// The step every containment check ends in — the one-shot entry points
/// above and the batch engine's hom stage alike. Searches `q2_renamed`
/// (q2 renamed apart from the chase's values; DESIGN.md §4) in `chase`,
/// the materialized chase of q1, and settles the pair:
///   * a failed chase is kContained without a search (q1 is
///     unsatisfiable);
///   * a homomorphism is kContained whatever tripped: it maps into any
///     prefix of the universal model (governor.h);
///   * otherwise the pair is kUnknown if anything tripped — a
///     cancellation first, then `chase_trip` (why the chase cannot refute
///     containment; kNone when it is complete up to its cap), then the
///     search governor's trip — and kNotContained if nothing did.
/// `match.governor`, when set, bounds the search; a governor that has
/// already tripped skips it.
Settlement SettlePair(const ConjunctiveQuery& q2_renamed,
                      const ChaseResult& chase, TripReason chase_trip,
                      const MatchOptions& match, MatchStats* stats = nullptr);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_CONTAINMENT_H_
