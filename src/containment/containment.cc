#include "containment/containment.h"

#include <chrono>

#include "util/request_context.h"
#include "util/strings.h"
#include "util/trace.h"

namespace floq {

namespace {

using SteadyClock = std::chrono::steady_clock;

double MsSince(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::milli>(SteadyClock::now() - start)
      .count();
}

Status ValidatePair(const World& world, const ConjunctiveQuery& q1,
                    const ConjunctiveQuery& q2) {
  FLOQ_RETURN_IF_ERROR(q1.Validate(world));
  FLOQ_RETURN_IF_ERROR(q2.Validate(world));
  if (q1.arity() != q2.arity()) {
    return InvalidArgumentError(
        StrCat("containment requires equal arities; got ", q1.arity(),
               " and ", q2.arity()));
  }
  return Status::Ok();
}

void MarkContained(ContainmentResult& result) {
  result.contained = true;
  result.resolution = Resolution::kContained;
  result.unknown_reason = TripReason::kNone;
}

void MarkUnknown(ContainmentResult& result, TripReason reason) {
  result.contained = false;
  result.resolution = Resolution::kUnknown;
  result.unknown_reason = reason;
  result.conclusive = false;
}

/// Settles a negative hom-search outcome into NOT_CONTAINED or UNKNOWN.
/// chase_trip is the reason the chase was truncated (kNone when the
/// materialization is complete up to the Theorem-12 bound); hom_governor
/// is the governor the search ran under, or nullptr when ungoverned.
void ResolveNegative(ContainmentResult& result, TripReason chase_trip,
                     const ExecGovernor* hom_governor) {
  if (chase_trip != TripReason::kNone) {
    MarkUnknown(result, chase_trip);
    return;
  }
  if (hom_governor != nullptr && hom_governor->tripped()) {
    MarkUnknown(result, hom_governor->trip());
    return;
  }
  result.contained = false;
  result.resolution = Resolution::kNotContained;
}

}  // namespace

int PaperLevelBound(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return q2.size() * 2 * q1.size();
}

Result<ContainmentResult> CheckContainment(World& world,
                                           const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const ContainmentOptions& options) {
  if (options.depth == ChaseDepth::kNone) {
    return CheckClassicalContainment(world, q1, q2, options);
  }
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));

  int level_bound = 0;
  if (options.depth == ChaseDepth::kPaperBound) {
    level_bound = options.level_override >= 0 ? options.level_override
                                              : PaperLevelBound(q1, q2);
  }

  // Both stages share one anchored deadline: the budget's timeout is for
  // the whole check, not per stage. (The batch engine re-anchors per pair
  // and per stage instead; see engine.cc.)
  const bool governed = !options.budget.unlimited();
  Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, options.budget.cancel);

  ChaseOptions chase_options;
  chase_options.max_level = level_bound;
  chase_options.max_atoms = options.max_chase_atoms;
  chase_options.record_cross_arcs = options.record_cross_arcs;
  if (governed) chase_options.governor = &chase_governor;
  ContainmentResult result;
  result.level_bound = level_bound;
  TraceSpan span("check.containment");
  AnnotateWithRequest(span);
  const SteadyClock::time_point chase_start = SteadyClock::now();
  result.chase = ChaseQuery(world, q1, chase_options);
  result.chase_ms = MsSince(chase_start);
  FoldGovernorMetrics(chase_governor);

  auto annotate = [&]() {
    if (span.active()) {
      span.Arg("resolution", ResolutionName(result.resolution))
          .Arg("level_bound", int64_t(result.level_bound))
          .Arg("chase_conjuncts", int64_t(result.chase.size()));
    }
  };

  if (result.chase.failed()) {
    // q1 has no answers on any database satisfying Sigma_FL, so it is
    // contained in every query of the same arity.
    MarkContained(result);
    result.q1_unsatisfiable = true;
    annotate();
    return result;
  }

  TripReason chase_trip = ChaseTripReason(result.chase.outcome(),
                                          chase_governor);
  if (chase_trip == TripReason::kDeadlineExceeded ||
      chase_trip == TripReason::kCancelled) {
    // Out of time (or told to stop): do not start the hom search against
    // the prefix — a positive would be sound, but the caller's clock has
    // already run out.
    MarkUnknown(result, chase_trip);
    annotate();
    return result;
  }

  // chase_trip is kNone or kChaseAtomBudget here. Search even a truncated
  // prefix: a homomorphism into any prefix composes into the universal
  // model, so kContained remains sound (governor.h).
  //
  // The chase is done mutating: compact its posting lists into the
  // block-compressed frozen tier so the search streams compressed
  // blocks instead of plain vectors.
  result.chase.FreezeConjuncts();
  ExecGovernor hom_governor(anchored, options.budget.cancel,
                            options.budget.hom_step_budget);
  MatchOptions match = options.match;
  if (governed && match.governor == nullptr) match.governor = &hom_governor;

  // q2's variables must be disjoint from the values of chase(q1) (which
  // include q1's variables): rename apart, search, then express the
  // witness in terms of q2's original variables.
  Substitution renaming;
  ConjunctiveQuery q2_fresh = q2.RenameApart(world, &renaming);
  const SteadyClock::time_point hom_start = SteadyClock::now();
  std::optional<Substitution> hom =
      FindQueryHomomorphism(q2_fresh, result.chase.conjuncts(),
                            result.chase.head(), &result.hom_stats, match);
  result.hom_ms = MsSince(hom_start);
  // Only the stage-local governor is folded: a caller-supplied shared
  // governor accumulates steps across calls and would double-count.
  if (match.governor == &hom_governor) FoldGovernorMetrics(hom_governor);
  if (hom.has_value()) {
    result.witness = renaming.ComposeWith(*hom);
    MarkContained(result);
    annotate();
    return result;
  }
  ResolveNegative(result, chase_trip, match.governor);
  annotate();
  return result;
}

Result<ContainmentResult> CheckClassicalContainment(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));

  // The target is body(q1) itself, with q1's variables as values.
  FactIndex target;
  for (const Atom& atom : q1.body()) target.Insert(atom);

  const bool governed = !options.budget.unlimited();
  ExecGovernor hom_governor = MakeHomGovernor(options.budget);
  MatchOptions match = options.match;
  if (governed && match.governor == nullptr) match.governor = &hom_governor;

  ContainmentResult result;
  result.level_bound = -1;
  TraceSpan span("check.classical");
  AnnotateWithRequest(span);
  Substitution renaming;
  ConjunctiveQuery q2_fresh = q2.RenameApart(world, &renaming);
  const SteadyClock::time_point hom_start = SteadyClock::now();
  std::optional<Substitution> hom =
      FindQueryHomomorphism(q2_fresh, target, q1.head(), &result.hom_stats,
                            match);
  result.hom_ms = MsSince(hom_start);
  if (match.governor == &hom_governor) FoldGovernorMetrics(hom_governor);
  if (hom.has_value()) {
    result.witness = renaming.ComposeWith(*hom);
    MarkContained(result);
    return result;
  }
  ResolveNegative(result, TripReason::kNone, match.governor);
  return result;
}

Result<bool> CheckEquivalence(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentOptions& options) {
  Result<ContainmentResult> forward = CheckContainment(world, q1, q2, options);
  if (!forward.ok()) return forward.status();
  if (!forward->contained) return false;
  Result<ContainmentResult> backward = CheckContainment(world, q2, q1, options);
  if (!backward.ok()) return backward.status();
  return backward->contained;
}

Result<std::optional<size_t>> CheckUcqContainment(
    World& world, const ConjunctiveQuery& q,
    std::span<const ConjunctiveQuery> disjuncts,
    const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(q.Validate(world));

  // One chase serves all disjuncts; its depth must cover the largest
  // per-disjunct bound.
  int level_bound = 0;
  for (const ConjunctiveQuery& disjunct : disjuncts) {
    FLOQ_RETURN_IF_ERROR(disjunct.Validate(world));
    if (disjunct.arity() != q.arity()) {
      return InvalidArgumentError("UCQ disjunct arity mismatch");
    }
    level_bound = std::max(level_bound, disjunct.size() * 2 * q.size());
  }
  if (options.level_override >= 0) level_bound = options.level_override;
  if (options.depth == ChaseDepth::kLevelZero) level_bound = 0;

  // The UCQ API has no kUnknown channel (it returns a disjunct index), so
  // trips surface as typed errors here.
  const bool governed = !options.budget.unlimited();
  Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, options.budget.cancel);

  ChaseOptions chase_options;
  chase_options.max_level = level_bound;
  chase_options.max_atoms = options.max_chase_atoms;
  if (governed) chase_options.governor = &chase_governor;
  ChaseResult chase = ChaseQuery(world, q, chase_options);

  if (chase.failed()) {
    // Unsatisfiable q is contained in any nonempty union.
    if (disjuncts.empty()) return std::optional<size_t>();
    return std::optional<size_t>(0);
  }
  if (chase.outcome() == ChaseOutcome::kBudgetExceeded) {
    return ResourceExhaustedError("chase exceeded max_chase_atoms");
  }
  if (chase.outcome() == ChaseOutcome::kInterrupted) {
    return chase_governor.trip() == TripReason::kCancelled
               ? CancelledError("UCQ containment cancelled during chase")
               : DeadlineExceededError(
                     "UCQ containment deadline exceeded during chase");
  }

  // All disjunct searches draw on one governor: the hom budget spans the
  // whole stage, not each disjunct.
  chase.FreezeConjuncts();
  ExecGovernor hom_governor(anchored, options.budget.cancel,
                            options.budget.hom_step_budget);
  MatchOptions match = options.match;
  if (governed && match.governor == nullptr) match.governor = &hom_governor;

  for (size_t i = 0; i < disjuncts.size(); ++i) {
    ConjunctiveQuery fresh = disjuncts[i].RenameApart(world);
    if (FindQueryHomomorphism(fresh, chase.conjuncts(), chase.head(),
                              /*stats=*/nullptr, match)
            .has_value()) {
      return std::optional<size_t>(i);
    }
  }
  if (match.governor != nullptr && match.governor->tripped()) {
    switch (match.governor->trip()) {
      case TripReason::kCancelled:
        return CancelledError("UCQ containment cancelled during hom search");
      case TripReason::kHomStepBudget:
        return ResourceExhaustedError(
            "UCQ containment exhausted the hom step budget");
      default:
        return DeadlineExceededError(
            "UCQ containment deadline exceeded during hom search");
    }
  }
  return std::optional<size_t>();
}

Result<ContainmentResult> CheckContainmentUnderDependencies(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const DependencySet& dependencies, const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));

  const bool weakly_acyclic = IsWeaklyAcyclic(dependencies, world);
  ChaseOptions chase_options;
  chase_options.max_atoms = options.max_chase_atoms;
  int level_bound = -1;
  if (weakly_acyclic) {
    // The chase terminates; no level cap needed.
  } else if (options.level_override >= 0) {
    level_bound = options.level_override;
    chase_options.max_level = level_bound;
  } else {
    return FailedPreconditionError(
        "dependency set is not weakly acyclic: the chase may not "
        "terminate; set ContainmentOptions::level_override for a sound "
        "(but possibly inconclusive) bounded check");
  }

  const bool governed = !options.budget.unlimited();
  Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, options.budget.cancel);
  if (governed) chase_options.governor = &chase_governor;

  ContainmentResult result;
  result.level_bound = level_bound;
  TraceSpan span("check.under_dependencies");
  AnnotateWithRequest(span);
  const SteadyClock::time_point chase_start = SteadyClock::now();
  result.chase = ChaseQuery(world, q1, dependencies, chase_options);
  result.chase_ms = MsSince(chase_start);
  FoldGovernorMetrics(chase_governor);

  if (result.chase.failed()) {
    MarkContained(result);
    result.q1_unsatisfiable = true;
    return result;
  }

  TripReason chase_trip = ChaseTripReason(result.chase.outcome(),
                                          chase_governor);
  if (chase_trip == TripReason::kDeadlineExceeded ||
      chase_trip == TripReason::kCancelled) {
    MarkUnknown(result, chase_trip);
    return result;
  }

  result.chase.FreezeConjuncts();
  ExecGovernor hom_governor(anchored, options.budget.cancel,
                            options.budget.hom_step_budget);
  MatchOptions match = options.match;
  if (governed && match.governor == nullptr) match.governor = &hom_governor;

  Substitution renaming;
  ConjunctiveQuery q2_fresh = q2.RenameApart(world, &renaming);
  const SteadyClock::time_point hom_start = SteadyClock::now();
  std::optional<Substitution> hom =
      FindQueryHomomorphism(q2_fresh, result.chase.conjuncts(),
                            result.chase.head(), &result.hom_stats, match);
  result.hom_ms = MsSince(hom_start);
  if (match.governor == &hom_governor) FoldGovernorMetrics(hom_governor);
  if (hom.has_value()) {
    result.witness = renaming.ComposeWith(*hom);
    MarkContained(result);
    return result;
  }
  ResolveNegative(result, chase_trip, match.governor);
  // On a truncated chase of a non-weakly-acyclic set, "no homomorphism"
  // does not refute containment even when no resource budget tripped.
  if (result.resolution == Resolution::kNotContained) {
    result.conclusive =
        weakly_acyclic ||
        result.chase.outcome() == ChaseOutcome::kCompleted;
  }
  return result;
}

Result<std::optional<size_t>> CheckUnionContainment(
    World& world, std::span<const ConjunctiveQuery> lhs,
    std::span<const ConjunctiveQuery> rhs,
    const ContainmentOptions& options) {
  for (size_t i = 0; i < lhs.size(); ++i) {
    Result<std::optional<size_t>> hit =
        CheckUcqContainment(world, lhs[i], rhs, options);
    if (!hit.ok()) return hit.status();
    if (!hit->has_value()) return std::optional<size_t>(i);
  }
  return std::optional<size_t>();
}

}  // namespace floq
