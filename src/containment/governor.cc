#include "containment/governor.h"

#include "util/metrics.h"
#include "util/strings.h"

namespace floq {

const char* ResolutionName(Resolution resolution) {
  switch (resolution) {
    case Resolution::kContained: return "CONTAINED";
    case Resolution::kNotContained: return "NOT_CONTAINED";
    case Resolution::kUnknown: return "UNKNOWN";
  }
  return "invalid";
}

Deadline AnchorDeadline(const ResourceBudget& budget) {
  Deadline deadline = budget.deadline;
  if (budget.timeout_ms > 0) {
    deadline = Deadline::Min(deadline, Deadline::AfterMillis(budget.timeout_ms));
  }
  return deadline;
}

ExecGovernor MakeChaseGovernor(const ResourceBudget& budget) {
  return ExecGovernor(AnchorDeadline(budget), budget.cancel);
}

ExecGovernor MakeHomGovernor(const ResourceBudget& budget) {
  return ExecGovernor(AnchorDeadline(budget), budget.cancel,
                      budget.hom_step_budget);
}

TripReason ChaseTripReason(ChaseOutcome outcome,
                           const ExecGovernor& governor) {
  switch (outcome) {
    case ChaseOutcome::kBudgetExceeded:
      return TripReason::kChaseAtomBudget;
    case ChaseOutcome::kInterrupted:
      // The governor that stopped the chase knows the precise reason; an
      // interrupted outcome without a local trip (a cached chase another
      // governor stopped earlier) defaults to the deadline.
      return governor.tripped() ? governor.trip()
                                : TripReason::kDeadlineExceeded;
    default:
      return TripReason::kNone;
  }
}

void FoldGovernorMetrics(const ExecGovernor& governor) {
  if (!MetricsRegistry::enabled()) return;
  MetricsRegistry& registry = MetricsRegistry::Get();
  static Counter& ticks = registry.counter("governor.ticks");
  if (governor.steps() > 0) ticks.Add(governor.steps());
  if (!governor.tripped()) return;
  // Resolved through the registry map (not a cached static) because the
  // label varies per call; trips are rare, so the lock is off the hot path.
  registry.counter(StrCat("governor.trip.", TripReasonName(governor.trip())))
      .Add(1);
}

}  // namespace floq
