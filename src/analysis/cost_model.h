#ifndef FLOQ_ANALYSIS_COST_MODEL_H_
#define FLOQ_ANALYSIS_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "analysis/boundedness.h"
#include "analysis/diagnostic.h"
#include "chase/chase.h"
#include "query/conjunctive_query.h"
#include "term/world.h"

// Static chase-growth estimate for `floq analyze` (DESIGN.md §15). A
// check q1 ⊆_Sigma q2 materializes chase_Sigma(q1) to the Theorem-12
// level; this model predicts how large that prefix gets *before* running
// it, from a geometric fit of a bounded probe chase's level counts.
//
// Every number is either a sound upper bound (a completed probe makes
// AtomsAtLevel exact — the chase reached its fixpoint, deeper levels add
// nothing) or an explicitly confidence-tagged extrapolation (geometric
// growth continued past the probe horizon). Nothing here feeds a verdict:
// the estimate only drives the FLD203 lint and the analyze report.

namespace floq::analysis {

/// Geometric growth model fitted from a probe chase prefix: total
/// conjunct counts per level, extrapolated as probe_atoms * per_level^k
/// past the probe horizon.
struct ChaseGrowthModel {
  /// rho_4 equated two distinct constants: the chase fails, every pair
  /// with this query on the left is decided with zero further work.
  bool failed = false;
  /// The probe reached the chase fixpoint: AtomsAtLevel is exact at every
  /// level and confidence is 1.
  bool completed = false;
  int probe_level = 0;
  /// Total conjuncts at level 0 / at probe_level.
  uint64_t level0_atoms = 0;
  uint64_t probe_atoms = 0;
  /// Per-level multiplicative growth observed across the last probe level
  /// (1.0 when the frontier went quiet).
  double per_level = 1.0;

  /// Estimated total conjuncts once materialized to `level`, saturated at
  /// `cap` (the engine's chase atom budget stops materialization there
  /// anyway).
  uint64_t AtomsAtLevel(int level, uint64_t cap) const;

  /// 1.0 when exact (completed probe, or no extrapolation needed); decays
  /// with the number of extrapolated levels when the probe was still
  /// growing.
  double ConfidenceAtLevel(int level) const;
};

/// Fits the model from a materialized probe prefix (any ResumableChase /
/// ChaseQuery result; deeper probes give tighter fits).
ChaseGrowthModel FitChaseGrowth(const ChaseResult& probe);

/// The predicted chase size of one containment check.
struct CostEstimate {
  /// Estimated chase conjuncts at chase_levels_bound (exact when
  /// confidence == 1).
  uint64_t chase_atoms_bound = 0;
  /// The level the estimate targets (the check's Theorem-12 bound).
  int chase_levels_bound = 0;
  /// 1.0 when chase_atoms_bound is exact; decays with extrapolation
  /// distance past the probe horizon.
  double confidence = 1.0;
};

/// FLD201: the dependency set is weakly acyclic but its null generation
/// is polynomial of degree >= 2 — the chase terminates yet can blow up
/// polynomially, with the witness special-edge chain attached.
std::vector<Diagnostic> LintDependencyCost(const DependencySet& dependencies,
                                           const World& world);

struct CostAnalysisOptions {
  /// Levels the probe chase materializes before fitting the growth model.
  int probe_levels = 2;
  /// Conjunct cap on the probe itself (keeps `floq analyze` fast even on
  /// divergent inputs).
  uint64_t probe_max_atoms = 200'000;
  /// FLD203 threshold: the default engine chase budget
  /// (ContainmentOptions::max_chase_atoms).
  uint64_t chase_atom_budget = 2'000'000;
};

/// One query's cost report as `floq analyze` prints it: the estimate for
/// the query's own Theorem-12 self-containment level (the representative
/// price of using it in a containment check), its instance-level
/// boundedness grade, and any FLD202/FLD203 findings.
struct QueryCostReport {
  CostEstimate estimate;
  SigmaBoundedness boundedness;
  std::vector<Diagnostic> diagnostics;
};

/// Runs the probe chase, fits the model, and lints. FLD202 fires on a
/// variable-disjoint body (the FLQ003 components, see query_lints.h: the
/// hom fan-out multiplies across them), FLD203 when the estimated chase
/// exceeds options.chase_atom_budget.
QueryCostReport AnalyzeQueryCost(World& world, const ConjunctiveQuery& query,
                                 const CostAnalysisOptions& options = {});

}  // namespace floq::analysis

#endif  // FLOQ_ANALYSIS_COST_MODEL_H_
