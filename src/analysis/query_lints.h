#ifndef FLOQ_ANALYSIS_QUERY_LINTS_H_
#define FLOQ_ANALYSIS_QUERY_LINTS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/diagnostic.h"
#include "containment/governor.h"
#include "query/conjunctive_query.h"
#include "term/world.h"

// Per-query lints (FLQ0xx). Structural checks are pure; the semantic
// checks reuse the paper machinery: FLQ006 probes the Sigma_FL chase of
// the query for failure (rho_4 equating distinct constants means the
// query is unsatisfiable on every legal database), FLQ007 runs
// containment-based minimization (src/containment/minimize) and flags
// atoms whose removal keeps the query equivalent under Sigma_FL — the
// optimization the paper motivates in its introduction.

namespace floq::analysis {

struct QueryLintOptions {
  /// FLQ006: chase the query a few levels looking for failure.
  bool chase_probe = true;
  int chase_probe_max_level = 3;
  uint64_t chase_probe_max_atoms = 50'000;

  /// FLQ007: Sigma_FL minimization; skipped for bodies larger than the
  /// cap (each candidate atom costs a containment check).
  bool redundancy = true;
  int redundancy_max_atoms = 10;

  /// Resource budget shared by the semantic probes (the FLQ006 chase
  /// probe and each FLQ007 containment check). A trip keeps the lint
  /// silent — an undecided probe never produces a diagnostic, wrong or
  /// otherwise.
  ResourceBudget budget;
};

/// The variable-disjoint components of the query's body, as lists of
/// body-atom indexes: atoms sharing a variable land in one component.
/// Ground atoms are membership conditions, not product factors, and
/// belong to none. More than one component means the body is a cartesian
/// product (FLQ003) and the hom fan-out multiplies across them (FLD202).
std::vector<std::vector<size_t>> BodyJoinComponents(
    const ConjunctiveQuery& query);

/// Lints one rule or goal. Diagnostics carry spans when the query was
/// produced by a span-recording parser over `world`.
std::vector<Diagnostic> LintQuery(World& world, const ConjunctiveQuery& query,
                                  const QueryLintOptions& options = {});

}  // namespace floq::analysis

#endif  // FLOQ_ANALYSIS_QUERY_LINTS_H_
