#include "analysis/cost_model.h"

#include <algorithm>
#include <cmath>

#include "analysis/query_lints.h"
#include "containment/containment.h"
#include "util/strings.h"

namespace floq::analysis {

namespace {

SourceSpan SpanOf(const World& world, uint32_t span_id) {
  return world.spans().at(span_id);
}

}  // namespace

uint64_t ChaseGrowthModel::AtomsAtLevel(int level, uint64_t cap) const {
  if (failed) return 0;
  if (completed || level <= probe_level || per_level <= 1.0) {
    return std::min(probe_atoms, cap);
  }
  // Geometric extrapolation past the probe horizon, saturated early so a
  // steep ratio cannot overflow the multiply.
  double atoms = double(probe_atoms);
  for (int k = probe_level; k < level; ++k) {
    atoms *= per_level;
    if (atoms >= double(cap)) return cap;
  }
  return uint64_t(atoms);
}

double ChaseGrowthModel::ConfidenceAtLevel(int level) const {
  if (failed || completed || level <= probe_level || per_level <= 1.0) {
    return 1.0;
  }
  // Each extrapolated level compounds the fit error; 0.9 per level is a
  // heuristic tag, not a probability — consumers only compare magnitudes.
  return std::pow(0.9, double(level - probe_level));
}

ChaseGrowthModel FitChaseGrowth(const ChaseResult& probe) {
  ChaseGrowthModel model;
  model.failed = probe.failed();
  model.completed = probe.outcome() == ChaseOutcome::kCompleted;
  model.probe_level = probe.max_level();
  model.level0_atoms = probe.CountUpToLevel(0);
  model.probe_atoms = probe.size();
  if (model.probe_level >= 1) {
    const uint64_t prev = probe.CountUpToLevel(model.probe_level - 1);
    if (prev > 0 && model.probe_atoms > prev) {
      model.per_level = double(model.probe_atoms) / double(prev);
    }
  }
  return model;
}

std::vector<Diagnostic> LintDependencyCost(const DependencySet& dependencies,
                                           const World& world) {
  std::vector<Diagnostic> out;
  BoundednessReport report = AnalyzeBoundedness(dependencies, world);
  if (report.degree != NullDegree::kPolynomial) {
    // kUnbounded is FLD101's finding; kNone/kLinear are benign.
    return out;
  }
  Diagnostic d = MakeDiagnostic(
      "FLD201",
      StrCat("null generation is polynomial of degree ", report.witness_degree,
             ": the chase terminates but can materialize O(n^",
             report.witness_degree,
             ") nulls on an n-element instance (", report.positions.size(),
             " position(s) receive invented values)"));
  d.notes.push_back(StrCat(
      "witness special-edge chain (depth ", report.witness_degree, "): ",
      WitnessPathToString(report.witness, dependencies, world)));
  for (const PositionBoundedness& pb : report.positions) {
    if (pb.degree != NullDegree::kPolynomial) continue;
    d.notes.push_back(StrCat(pb.position.ToString(world), ": degree ",
                             pb.witness_degree));
  }
  out.push_back(std::move(d));
  return out;
}

QueryCostReport AnalyzeQueryCost(World& world, const ConjunctiveQuery& query,
                                 const CostAnalysisOptions& options) {
  QueryCostReport report;

  ChaseOptions chase_options;
  chase_options.max_level = std::max(options.probe_levels, 0);
  chase_options.max_atoms = options.probe_max_atoms;
  ChaseResult probe = ChaseQuery(world, query, chase_options);

  const ChaseGrowthModel growth = FitChaseGrowth(probe);
  const int level = PaperLevelBound(query, query);
  report.estimate.chase_levels_bound = level;
  report.estimate.chase_atoms_bound =
      growth.AtomsAtLevel(level, options.chase_atom_budget);
  report.estimate.confidence = growth.ConfidenceAtLevel(level);
  report.boundedness = AnalyzeSigmaBoundedness(world, query.body());

  const size_t components = BodyJoinComponents(query).size();
  if (components > 1) {
    Diagnostic d = MakeDiagnostic(
        "FLD202",
        StrCat("cross-join: the body splits into ", components,
               " variable-disjoint components, so the homomorphism fan-out "
               "is the product of the per-component fan-outs"),
        SpanOf(world, query.span()));
    report.diagnostics.push_back(std::move(d));
  }
  if (report.estimate.chase_atoms_bound >= options.chase_atom_budget) {
    Diagnostic d = MakeDiagnostic(
        "FLD203",
        StrCat("estimated chase exceeds the default governor budget: ~",
               report.estimate.chase_atoms_bound, " conjuncts at level ",
               report.estimate.chase_levels_bound, " (budget ",
               options.chase_atom_budget, ", confidence ",
               int(report.estimate.confidence * 100),
               "%); containment checks with this query on the left will "
               "degrade to UNKNOWN unless the budget is raised"),
        SpanOf(world, query.span()));
    if (report.boundedness.degree == NullDegree::kUnbounded) {
      d.notes.push_back(
          "the body reaches a mandatory-attribute cycle: the chase is "
          "infinite (see FLD103)");
      for (const MandatoryEdge& edge : report.boundedness.witness) {
        d.notes.push_back(edge.ToString(world));
      }
    }
    report.diagnostics.push_back(std::move(d));
  }
  return report;
}

}  // namespace floq::analysis
