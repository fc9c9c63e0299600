#ifndef FLOQ_DATALOG_MATCH_H_
#define FLOQ_DATALOG_MATCH_H_

#include <cstdint>
#include <span>

#include "datalog/fact_index.h"
#include "term/atom.h"
#include "term/substitution.h"
#include "util/deadline.h"
#include "util/function_ref.h"

// Conjunction matching: enumerate the homomorphisms (Definition 1 of the
// paper) from a conjunction of pattern atoms into a FactIndex. Pattern
// variables may map to any term occurring in the index; pattern constants
// and nulls map to themselves. This single primitive powers
//   * Datalog rule bodies and conjunctive-query evaluation,
//   * chase rule applicability (bodies of Sigma_FL rules),
//   * the containment homomorphism body(q2) -> chase(q1).

namespace floq {

struct MatchStats {
  uint64_t nodes_visited = 0;   // backtracking nodes expanded
  uint64_t matches_found = 0;
  /// FactIndex posting-list probes (WithArgument lookups), including the
  /// compile-time probes of the compiled kernel. The per-node probe count
  /// is the metric the kernel's selectivity cache attacks; reported by
  /// bench_hom_search.
  uint64_t index_probes = 0;
  /// Patterns rejected by the kernel's compile-time pre-pass (a constant
  /// or predicate with no posting list) before any search node expanded.
  uint64_t reject_prepass_hits = 0;

  void Accumulate(const MatchStats& other) {
    nodes_visited += other.nodes_visited;
    matches_found += other.matches_found;
    index_probes += other.index_probes;
    reject_prepass_hits += other.reject_prepass_hits;
  }
};

struct MatchOptions {
  /// Optional resource governor ticked once per backtracking node and per
  /// candidate-loop iteration (amortized; see util/deadline.h). When it
  /// trips, the search unwinds and MatchConjunction returns false exactly
  /// as if the callback had stopped enumeration — callers that need to
  /// tell the two apart inspect governor->tripped(). Not owned; one
  /// governor may be shared across many MatchConjunction calls so budgets
  /// span a whole check, not one search. Its trip latches across calls:
  /// once tripped, every subsequent governed search returns immediately.
  ExecGovernor* governor = nullptr;
};

/// Enumerates all substitutions extending `initial` that map every atom of
/// `pattern` to some atom in `index`. Invokes `on_match` for each complete
/// substitution; enumeration stops early if `on_match` returns false.
/// Returns false iff the enumeration was stopped early.
///
/// The search is the compiled kernel (datalog/compiled_pattern.h, DESIGN.md
/// §9). Atom order is chosen dynamically (fewest candidates first), so
/// callers need not pre-order the pattern, and the search runs on a heap
/// stack, so any pattern size is accepted. `stats`, when non-null,
/// accumulates search effort for benchmarks.
///
/// `on_match` is a non-owning FunctionRef: the callable only has to
/// outlive this call (std::function's owning type erasure was measurable
/// per-node overhead in the backtracking hot path; see bench_hom_search).
bool MatchConjunction(std::span<const Atom> pattern, const FactIndex& index,
                      const Substitution& initial,
                      FunctionRef<bool(const Substitution&)> on_match,
                      MatchStats* stats = nullptr,
                      const MatchOptions& options = {});

}  // namespace floq

#endif  // FLOQ_DATALOG_MATCH_H_
