#ifndef FLOQ_CONTAINMENT_GOVERNOR_H_
#define FLOQ_CONTAINMENT_GOVERNOR_H_

#include <cstdint>

#include "chase/chase.h"
#include "util/deadline.h"

// Resource governance for containment checks (DESIGN.md §11). A check has
// two long-running stages — materializing chase(q1) and searching for a
// homomorphism body(q2) -> chase(q1) — and a ResourceBudget bounds both.
// When a budget trips, the check degrades to a three-valued Resolution
// instead of returning a spurious "not contained":
//
//   * A homomorphism into ANY materialized chase prefix is a sound
//     positive (the prefix maps into the universal model, so the
//     composition body(q2) -> prefix -> universal model is a witness):
//     kContained can be reported even from a truncated chase.
//   * "No homomorphism" is only conclusive against the full Theorem-12
//     materialization with an exhausted search: a trip in either stage
//     turns the negative into kUnknown with the stage's TripReason.

namespace floq {

/// Three-valued verdict of a governed containment check.
enum class Resolution : uint8_t {
  kContained = 0,
  kNotContained,
  kUnknown,
};

/// "CONTAINED", "NOT_CONTAINED", or "UNKNOWN".
const char* ResolutionName(Resolution resolution);

/// Per-check resource limits. Default fields mean "unlimited"; the paper's
/// decision procedure then runs to completion (modulo the pre-existing
/// max_chase_atoms cap). timeout_ms is relative and anchored when the
/// governed stage starts; deadline is absolute; when both are set the
/// earlier wins.
struct ResourceBudget {
  /// Wall-clock budget in milliseconds; <= 0 means none. In a batch
  /// engine each pair anchors its own timeout, so one runaway pair cannot
  /// starve the rest of the batch.
  int64_t timeout_ms = 0;
  /// Absolute deadline shared by every stage (and, in a batch, by every
  /// pair).
  Deadline deadline;
  /// Cooperative cancellation token observed by every stage.
  CancellationToken cancel;
  /// Cap on homomorphism-search steps (backtracking nodes plus candidate
  /// iterations) per hom-search stage; 0 means none.
  uint64_t hom_step_budget = 0;

  bool unlimited() const {
    return timeout_ms <= 0 && deadline.infinite() && !cancel.valid() &&
           hom_step_budget == 0;
  }
};

/// The budget's deadline, anchored now: min(absolute deadline, now +
/// timeout_ms). Call once per governed stage.
Deadline AnchorDeadline(const ResourceBudget& budget);

/// A governor for the chase stage: deadline and cancellation, no step
/// budget (the chase has its own atom budget in ChaseOptions).
ExecGovernor MakeChaseGovernor(const ResourceBudget& budget);

/// A governor for the homomorphism-search stage: deadline, cancellation,
/// and the hom step budget.
ExecGovernor MakeHomGovernor(const ResourceBudget& budget);

/// Why a chase left the check inconclusive, or kNone when its prefix is
/// conclusive for negatives too (completed or deep enough). `governor` is
/// the governor the chase ran under.
TripReason ChaseTripReason(ChaseOutcome outcome, const ExecGovernor& governor);

/// Folds one finished governed stage into the MetricsRegistry:
/// `governor.ticks` grows by the stage's step count, and a trip bumps the
/// per-reason counter `governor.trip.<reason>`. No-op when metrics are
/// disabled. Thread-safe — the hom fan-out calls this from workers.
void FoldGovernorMetrics(const ExecGovernor& governor);

}  // namespace floq

#endif  // FLOQ_CONTAINMENT_GOVERNOR_H_
