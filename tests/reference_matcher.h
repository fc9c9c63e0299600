#ifndef FLOQ_TESTS_REFERENCE_MATCHER_H_
#define FLOQ_TESTS_REFERENCE_MATCHER_H_

// A test-only brute-force homomorphism matcher: the oracle the compiled
// kernel (datalog/compiled_pattern.cc) is checked against. It shares no
// code with FactIndex postings or the kernel. The target is a flat atom
// list plus a std::set; pattern variables are bound, in first-occurrence
// order, to each term of the target's active domain, and a pattern atom is
// looked up in the set as soon as its last variable is bound. Exponential
// in the number of pattern variables, so it suits small patterns only.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "query/conjunctive_query.h"
#include "term/atom.h"

namespace floq::reference {

using Assignment = std::map<Term, Term>;

// How an enumeration ended: every assignment was tried, `emit` stopped
// it, or more than `max_steps` bindings were tried first.
enum class Outcome { kExhausted, kStopped, kCapped };

// Calls `emit` for every extension of `initial` that maps each atom of
// `pattern` onto an atom of `target`. Only variables `initial` leaves
// unbound are bound; every other term maps to itself (or its image).
inline Outcome ForEachMatch(
    std::span<const Atom> pattern, std::span<const Atom> target,
    const Assignment& initial,
    const std::function<bool(const Assignment&)>& emit,
    uint64_t max_steps = UINT64_MAX) {
  const std::set<Atom> facts(target.begin(), target.end());
  std::set<Term> domain;
  for (const Atom& fact : facts) domain.insert(fact.begin(), fact.end());
  // checks[k]: the atoms whose variables are all bound once vars[0..k) are.
  std::vector<Term> vars;
  std::vector<std::vector<const Atom*>> checks(1);
  for (const Atom& atom : pattern) {
    size_t depth = 0;
    for (Term t : atom) {
      if (!t.IsVariable() || initial.count(t) > 0) continue;
      size_t k = std::find(vars.begin(), vars.end(), t) - vars.begin();
      if (k == vars.size()) {
        vars.push_back(t);
        checks.emplace_back();
      }
      depth = std::max(depth, k + 1);
    }
    checks[depth].push_back(&atom);
  }
  Assignment binding = initial;
  uint64_t steps = 0;
  std::function<Outcome(size_t)> bind = [&](size_t k) {
    for (const Atom* atom : checks[k]) {
      Atom image = *atom;
      for (int i = 0; i < image.arity(); ++i) {
        auto it = binding.find(image.arg(i));
        if (it != binding.end()) image.set_arg(i, it->second);
      }
      if (facts.count(image) == 0) return Outcome::kExhausted;
    }
    if (k == vars.size()) {
      return emit(binding) ? Outcome::kExhausted : Outcome::kStopped;
    }
    for (Term value : domain) {
      if (++steps > max_steps) return Outcome::kCapped;
      binding[vars[k]] = value;
      if (Outcome outcome = bind(k + 1); outcome != Outcome::kExhausted) {
        return outcome;
      }
    }
    binding.erase(vars[k]);
    return Outcome::kExhausted;
  };
  return bind(0);
}

// Theorem 4's test, by brute force: does some homomorphism map body(query)
// into `target` and head(query) position-wise onto `head`? nullopt when
// `max_steps` ran out first.
inline std::optional<bool> HasQueryHomomorphism(
    const ConjunctiveQuery& query, std::span<const Atom> target,
    const std::vector<Term>& head, uint64_t max_steps = UINT64_MAX) {
  if (head.size() != size_t(query.arity())) return false;
  Assignment initial;
  for (int i = 0; i < query.arity(); ++i) {
    Term from = query.head()[i];
    if (!from.IsVariable()) {
      if (from != head[i]) return false;
    } else if (!initial.emplace(from, head[i]).second &&
               initial[from] != head[i]) {
      return false;
    }
  }
  const Outcome outcome = ForEachMatch(
      query.body(), target, initial, [](const Assignment&) { return false; },
      max_steps);
  if (outcome == Outcome::kCapped) return std::nullopt;
  return outcome == Outcome::kStopped;
}

}  // namespace floq::reference

#endif  // FLOQ_TESTS_REFERENCE_MATCHER_H_
