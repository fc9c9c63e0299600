#ifndef FLOQ_DATALOG_EVALUATOR_H_
#define FLOQ_DATALOG_EVALUATOR_H_

#include <span>
#include <vector>

#include "datalog/database.h"
#include "datalog/match.h"
#include "datalog/rule.h"
#include "query/conjunctive_query.h"
#include "util/status.h"

// Bottom-up Datalog evaluation (semi-naive) and conjunctive-query
// evaluation. This is the substrate used to saturate F-logic Lite
// knowledge bases under the Datalog fragment of Sigma_FL, and the
// independent oracle the property tests use to validate containment
// verdicts on concrete databases.

namespace floq {

struct EvalOptions {
  /// Abort with kResourceExhausted when the database would exceed this.
  uint64_t max_facts = 50'000'000;
  /// Optional resource governor (not owned): checked per derived fact and
  /// threaded into body matching. A trip aborts the fixpoint with
  /// kDeadlineExceeded or kCancelled.
  ExecGovernor* governor = nullptr;
};

/// Saturates `db` under `rules` (to fixpoint) using semi-naive evaluation.
/// Returns the number of newly derived facts.
Result<uint64_t> SemiNaiveFixpoint(Database& db, std::span<const Rule> rules,
                                   const EvalOptions& options = {});

/// Evaluates a conjunctive query over the database: all distinct answer
/// tuples (instantiations of the query head). The query is *not* evaluated
/// under constraints; saturate the database first if Sigma_FL semantics is
/// wanted.
std::vector<std::vector<Term>> EvaluateQuery(const Database& db,
                                             const ConjunctiveQuery& query,
                                             MatchStats* stats = nullptr);

/// Attempts to extend `subst` so that it maps pattern atom `p` onto `fact`
/// (same predicate and arity required). On failure `subst` is unchanged.
bool TryUnifyAtom(const Atom& p, const Atom& fact, Substitution& subst);

}  // namespace floq

#endif  // FLOQ_DATALOG_EVALUATOR_H_
