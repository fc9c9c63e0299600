#include "datalog/evaluator.h"

#include <set>

#include "util/strings.h"

namespace floq {

bool TryUnifyAtom(const Atom& p, const Atom& fact, Substitution& subst) {
  if (p.predicate() != fact.predicate() || p.arity() != fact.arity()) {
    return false;
  }
  // Only syntactic pattern variables are bindable; images of bindings are
  // compared even when they are variables (a chase treats the chased
  // query's variables as values).
  std::vector<Term> bound_here;
  for (int i = 0; i < p.arity(); ++i) {
    Term arg = p.arg(i);
    if (arg.IsVariable() && !subst.Binds(arg)) {
      subst.Bind(arg, fact.arg(i));
      bound_here.push_back(arg);
    } else if (subst.Apply(arg) != fact.arg(i)) {
      for (Term var : bound_here) subst.Erase(var);
      return false;
    }
  }
  return true;
}

namespace {

// Matches `rule`'s body with atom `pivot_index` pinned to fact `fact`, the
// rest anywhere in `index`; appends the instantiated heads to `out`.
void MatchWithPivot(const Rule& rule, size_t pivot_index, const Atom& fact,
                    const FactIndex& index, std::vector<Atom>& out,
                    const MatchOptions& match_options) {
  Substitution subst;
  if (!TryUnifyAtom(rule.body[pivot_index], fact, subst)) return;

  std::vector<Atom> rest;
  rest.reserve(rule.body.size() - 1);
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (i != pivot_index) rest.push_back(rule.body[i]);
  }

  MatchConjunction(
      rest, index, subst,
      [&](const Substitution& match) {
        out.push_back(match.Apply(rule.head));
        return true;
      },
      /*stats=*/nullptr, match_options);
}

Status GovernorError(const ExecGovernor& governor) {
  return governor.trip() == TripReason::kCancelled
             ? CancelledError("fixpoint cancelled")
             : DeadlineExceededError("fixpoint deadline exceeded");
}

}  // namespace

Result<uint64_t> SemiNaiveFixpoint(Database& db, std::span<const Rule> rules,
                                   const EvalOptions& options) {
  uint64_t derived = 0;
  MatchOptions match_options;
  match_options.governor = options.governor;

  // Round 0 (naive): every rule against the full database.
  std::vector<Atom> pending;
  for (const Rule& rule : rules) {
    MatchConjunction(
        rule.body, db.index(), Substitution(),
        [&](const Substitution& match) {
          pending.push_back(match.Apply(rule.head));
          return true;
        },
        /*stats=*/nullptr, match_options);
  }

  // Delta rounds: each new derivation must use at least one fact from the
  // previous round's delta.
  std::vector<Atom> delta;
  for (;;) {
    if (options.governor != nullptr && !options.governor->CheckNow()) {
      return GovernorError(*options.governor);
    }
    delta.clear();
    for (const Atom& fact : pending) {
      if (options.governor != nullptr && !options.governor->Tick()) {
        return GovernorError(*options.governor);
      }
      if (db.Insert(fact)) {
        ++derived;
        delta.push_back(fact);
        if (db.size() > options.max_facts) {
          return ResourceExhaustedError(
              StrCat("fixpoint exceeded max_facts=", options.max_facts));
        }
      }
    }
    if (delta.empty()) return derived;

    pending.clear();
    for (const Rule& rule : rules) {
      for (size_t pivot = 0; pivot < rule.body.size(); ++pivot) {
        for (const Atom& fact : delta) {
          MatchWithPivot(rule, pivot, fact, db.index(), pending,
                         match_options);
        }
      }
    }
  }
}

std::vector<std::vector<Term>> EvaluateQuery(const Database& db,
                                             const ConjunctiveQuery& query,
                                             MatchStats* stats) {
  std::vector<std::vector<Term>> answers;
  std::set<std::vector<Term>> seen;
  MatchConjunction(
      query.body(), db.index(), Substitution(),
      [&](const Substitution& match) {
        std::vector<Term> tuple = match.ApplyToTerms(query.head());
        if (seen.insert(tuple).second) answers.push_back(std::move(tuple));
        return true;
      },
      stats);
  return answers;
}

}  // namespace floq
