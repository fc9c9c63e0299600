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
// searching for a homomorphism from q2 (Theorem 4). Two weaker, sound-but-
// incomplete baselines are provided for the benchmarks: classical
// Chandra–Merlin containment (constraints ignored) and containment against
// level 0 only (the terminating Sigma_FL^- chase).

namespace floq {

/// How deep to chase q1 before the homomorphism search.
enum class ChaseDepth {
  /// The paper's bound: |q2| * 2|q1| levels (Theorem 12). Complete.
  kPaperBound,
  /// Level 0 only (Sigma_FL minus rho_5). Sound, incomplete.
  kLevelZero,
  /// No chase at all: classical containment (Chandra & Merlin 1977).
  /// Sound, incomplete under constraints.
  kNone,
};

/// The level cap of Theorem 12: |q2| * delta with delta = 2|q1|.
int PaperLevelBound(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2);

struct ContainmentOptions {
  ChaseDepth depth = ChaseDepth::kPaperBound;
  /// Overrides the level cap when >= 0 (used by convergence experiments).
  int level_override = -1;
  /// Budget on materialized chase conjuncts; exceeding it yields
  /// kResourceExhausted (the decision problem is NP-hard, Theorem 13 gives
  /// a *nondeterministic* polynomial algorithm).
  uint64_t max_chase_atoms = 2'000'000;
  /// Homomorphism search configuration (compiled kernel, atom ordering)
  /// — forwarded to every hom search this check runs. Defaults to the
  /// production kernel; the differential tests and ablation benches flip
  /// the toggles.
  MatchOptions match;
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
  /// both stages tripped, the chase stage (the earlier one) wins.
  TripReason unknown_reason = TripReason::kNone;

  /// False only for CheckContainmentUnderDependencies on a
  /// non-weakly-acyclic set with a level override: a negative verdict is
  /// then inconclusive (the homomorphism could exist deeper).
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
  ChaseResult chase;

  /// Level cap that was used (-1 when depth == kNone).
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
/// databases: a homomorphism body(q2) -> body(q1) with head(q2) -> head(q1).
/// Only options.match and options.budget (hom stage) are consulted.
Result<ContainmentResult> CheckClassicalContainment(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ContainmentOptions& options = {});

/// Equivalence under Sigma_FL: containment in both directions.
Result<bool> CheckEquivalence(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentOptions& options = {});

/// Containment in a union of conjunctive queries: q ⊆_Sigma q1 ∪ ... ∪ qn
/// iff some disjunct maps into chase_Sigma(q) within the per-disjunct
/// bound (the standard disjunct-wise argument; see DESIGN.md §7). Returns
/// the index of the first disjunct that witnesses containment, or nullopt.
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

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_CONTAINMENT_H_
