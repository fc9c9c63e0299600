#include "containment/containment.h"

#include <chrono>

#include "chase/sigma_fl.h"
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

// How deep the one body below chases q1.
enum class LevelPolicy {
  // Sigma_FL: level_override when set, else Theorem 12's |q2| * 2|q1|.
  kPaperBound,
  // A weakly acyclic set (Sigma = ∅ among them): the chase terminates.
  kCompletion,
  // Any other set: level_override is required, and a negative against a
  // chase the cap stopped is inconclusive.
  kOverride,
};

// The one body behind CheckContainment, CheckContainmentUnderDependencies
// and CheckClassicalContainment: chase q1 under `dependencies`, rename q2
// apart, settle. Both stages share one anchored deadline: the budget's
// timeout is for the whole check, not per stage. (The batch engine
// re-anchors per pair and per stage instead; see engine.cc.)
Result<ContainmentResult> Decide(World& world, const ConjunctiveQuery& q1,
                                 const ConjunctiveQuery& q2,
                                 const DependencySet& dependencies,
                                 LevelPolicy policy, const char* span_name,
                                 const ContainmentOptions& options) {
  FLOQ_RETURN_IF_ERROR(ValidatePair(world, q1, q2));
  ContainmentResult result;
  ChaseOptions chase_options;
  if (policy == LevelPolicy::kPaperBound) {
    result.level_bound = options.level_override >= 0
                             ? options.level_override
                             : PaperLevelBound(q1, q2);
  } else if (policy == LevelPolicy::kOverride) {
    if (options.level_override < 0) {
      return FailedPreconditionError(
          "dependency set is not weakly acyclic: the chase may not "
          "terminate; set ContainmentOptions::level_override for a sound "
          "(but possibly inconclusive) bounded check");
    }
    result.level_bound = options.level_override;
  }
  if (result.level_bound >= 0) chase_options.max_level = result.level_bound;
  chase_options.max_atoms = options.max_chase_atoms;
  chase_options.record_cross_arcs = options.record_cross_arcs;

  const bool governed = !options.budget.unlimited();
  Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, options.budget.cancel);
  if (governed) chase_options.governor = &chase_governor;
  TraceSpan span(span_name);
  AnnotateWithRequest(span);
  const SteadyClock::time_point chase_start = SteadyClock::now();
  result.chase = ChaseQuery(world, q1, dependencies, chase_options);
  result.chase_ms = MsSince(chase_start);
  FoldGovernorMetrics(chase_governor);
  result.q1_unsatisfiable = result.chase.failed();

  // A chase the deadline or a cancellation stopped skips the search
  // below: the hom governor shares both.
  ExecGovernor hom_governor(anchored, options.budget.cancel,
                            options.budget.hom_step_budget);
  MatchOptions match;
  if (governed) match.governor = &hom_governor;

  // The witness is expressed in q2's original variables.
  Substitution renaming;
  ConjunctiveQuery q2_fresh = q2.RenameApart(world, &renaming);
  const SteadyClock::time_point hom_start = SteadyClock::now();
  Settlement settled =
      SettlePair(q2_fresh, result.chase,
                 ChaseTripReason(result.chase.outcome(), chase_governor),
                 match, &result.hom_stats);
  result.hom_ms = MsSince(hom_start);
  FoldGovernorMetrics(hom_governor);

  result.resolution = settled.resolution;
  result.contained = settled.resolution == Resolution::kContained;
  result.unknown_reason = settled.unknown_reason;
  if (settled.hom.has_value()) {
    result.witness = renaming.ComposeWith(*settled.hom);
  }
  // Without a termination certificate, "no homomorphism" below the cap
  // does not refute containment even when no budget tripped.
  result.conclusive =
      settled.resolution == Resolution::kContained ||
      (settled.resolution == Resolution::kNotContained &&
       (policy != LevelPolicy::kOverride ||
        result.chase.outcome() == ChaseOutcome::kCompleted));
  if (span.active()) {
    span.Arg("resolution", ResolutionName(result.resolution))
        .Arg("level_bound", int64_t(result.level_bound))
        .Arg("chase_conjuncts", int64_t(result.chase.size()));
  }
  return result;
}

// The typed error of a check whose verdict a tripped budget left open.
Status TripError(TripReason reason) {
  switch (reason) {
    case TripReason::kCancelled:
      return CancelledError("containment check cancelled");
    case TripReason::kDeadlineExceeded:
      return DeadlineExceededError("containment check deadline exceeded");
    case TripReason::kChaseAtomBudget:
      return ResourceExhaustedError(
          "containment check: the chase exceeded max_chase_atoms");
    default:
      return ResourceExhaustedError(
          "containment check exhausted the hom step budget");
  }
}

}  // namespace

int PaperLevelBound(const ConjunctiveQuery& q1, const ConjunctiveQuery& q2) {
  return q2.size() * 2 * q1.size();
}

Settlement SettlePair(const ConjunctiveQuery& q2_renamed,
                      const ChaseResult& chase, TripReason chase_trip,
                      const MatchOptions& match, MatchStats* stats) {
  Settlement settled;
  if (chase.failed()) {
    settled.resolution = Resolution::kContained;
    return settled;
  }
  ExecGovernor* governor = match.governor;
  if (governor == nullptr || governor->CheckNow()) {
    settled.hom = FindQueryHomomorphism(q2_renamed, chase.conjuncts(),
                                        chase.head(), stats, match);
    if (settled.hom.has_value()) {
      settled.resolution = Resolution::kContained;
      return settled;
    }
  }
  const TripReason search_trip =
      governor != nullptr ? governor->trip() : TripReason::kNone;
  settled.unknown_reason = search_trip == TripReason::kCancelled ? search_trip
                           : chase_trip != TripReason::kNone     ? chase_trip
                                                                 : search_trip;
  if (settled.unknown_reason != TripReason::kNone) {
    settled.resolution = Resolution::kUnknown;
  }
  return settled;
}

Result<ContainmentResult> CheckContainment(World& world,
                                           const ConjunctiveQuery& q1,
                                           const ConjunctiveQuery& q2,
                                           const ContainmentOptions& options) {
  return Decide(world, q1, q2, MakeSigmaFLDependencies(world),
                LevelPolicy::kPaperBound, "check.containment", options);
}

Result<ContainmentResult> CheckClassicalContainment(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const ContainmentOptions& options) {
  return Decide(world, q1, q2, DependencySet{}, LevelPolicy::kCompletion,
                "check.classical", options);
}

Result<ContainmentResult> CheckContainmentUnderDependencies(
    World& world, const ConjunctiveQuery& q1, const ConjunctiveQuery& q2,
    const DependencySet& dependencies, const ContainmentOptions& options) {
  return Decide(world, q1, q2, dependencies,
                IsWeaklyAcyclic(dependencies, world) ? LevelPolicy::kCompletion
                                                     : LevelPolicy::kOverride,
                "check.under_dependencies", options);
}

Result<bool> CheckEquivalence(World& world, const ConjunctiveQuery& q1,
                              const ConjunctiveQuery& q2,
                              const ContainmentOptions& options) {
  Result<ContainmentResult> forward = CheckContainment(world, q1, q2, options);
  if (!forward.ok()) return forward.status();
  if (forward->resolution == Resolution::kNotContained) return false;
  Result<ContainmentResult> backward = CheckContainment(world, q2, q1, options);
  if (!backward.ok()) return backward.status();
  if (backward->resolution == Resolution::kNotContained) return false;
  // Neither direction is refuted: an UNKNOWN one leaves the answer open.
  for (const ContainmentResult* direction : {&*forward, &*backward}) {
    if (direction->resolution == Resolution::kUnknown) {
      return TripError(direction->unknown_reason);
    }
  }
  return true;
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
    level_bound = std::max(level_bound, PaperLevelBound(q, disjunct));
  }
  if (options.level_override >= 0) level_bound = options.level_override;

  const bool governed = !options.budget.unlimited();
  Deadline anchored = AnchorDeadline(options.budget);
  ExecGovernor chase_governor(anchored, options.budget.cancel);
  ChaseOptions chase_options;
  chase_options.max_level = level_bound;
  chase_options.max_atoms = options.max_chase_atoms;
  if (governed) chase_options.governor = &chase_governor;
  ChaseResult chase = ChaseQuery(world, q, chase_options);
  const TripReason chase_trip =
      ChaseTripReason(chase.outcome(), chase_governor);

  // All disjunct searches draw on one governor: the hom budget spans the
  // whole stage, not each disjunct. An UNKNOWN disjunct does not end the
  // scan, since a later one may still map into the prefix.
  ExecGovernor hom_governor(anchored, options.budget.cancel,
                            options.budget.hom_step_budget);
  MatchOptions match;
  if (governed) match.governor = &hom_governor;
  TripReason unknown = TripReason::kNone;
  for (size_t i = 0; i < disjuncts.size(); ++i) {
    Settlement settled =
        SettlePair(disjuncts[i].RenameApart(world), chase, chase_trip, match);
    if (settled.resolution == Resolution::kContained) {
      return std::optional<size_t>(i);
    }
    if (unknown == TripReason::kNone) unknown = settled.unknown_reason;
  }
  if (unknown != TripReason::kNone) return TripError(unknown);
  return std::optional<size_t>();
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
