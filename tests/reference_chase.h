#ifndef FLOQ_TESTS_REFERENCE_CHASE_H_
#define FLOQ_TESTS_REFERENCE_CHASE_H_

// A test-only reference chase that follows Definitions 2-3 of the paper
// literally and slowly, sharing no code with the engine in src/chase:
// every round rescans the whole instance with nested-loop matching (no
// FactIndex postings), applies each EGD by enumerating its whole body and
// replacing the chase-order-larger term everywhere, and then fires every
// TGD whose head no extension of the match satisfies. As in Section 4,
// the full TGDs first saturate at level 0; after that a new conjunct sits
// one level above the highest conjunct its body mapped onto.

#include <algorithm>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "chase/dependencies.h"
#include "term/atom.h"
#include "term/world.h"

namespace floq::reference {

struct ReferenceChaseResult {
  bool failed = false;     // an EGD equated two distinct constants
  bool truncated = false;  // stopped at the atom cap
  std::vector<Atom> atoms;
  std::vector<int> levels;  // levels[i] is the level of atoms[i]
  std::vector<Term> head;
};

using Binding = std::map<Term, Term>;

inline Term Image(Term t, const Binding& binding) {
  auto it = binding.find(t);
  return it == binding.end() ? t : it->second;
}

inline Atom Instantiate(const Atom& atom, const Binding& binding) {
  Atom out = atom;
  for (int i = 0; i < atom.arity(); ++i) {
    out.set_arg(i, Image(atom.arg(i), binding));
  }
  return out;
}

// Calls `emit` for every extension of `binding` that maps pattern[k..]
// into `atoms`. Only the pattern's variables bind; the instance's
// variables are values.
inline void MatchAll(const std::vector<Atom>& pattern, size_t k,
                     const std::vector<Atom>& atoms, const Binding& binding,
                     const std::function<void(const Binding&)>& emit) {
  if (k == pattern.size()) return emit(binding);
  for (const Atom& fact : atoms) {
    if (fact.predicate() != pattern[k].predicate()) continue;
    Binding extended = binding;
    bool ok = true;
    for (int i = 0; i < fact.arity() && ok; ++i) {
      Term p = pattern[k].arg(i);
      if (!p.IsVariable()) {
        ok = p == fact.arg(i);
        continue;
      }
      auto [it, inserted] = extended.emplace(p, fact.arg(i));
      ok = inserted || it->second == fact.arg(i);
    }
    if (ok) MatchAll(pattern, k + 1, atoms, extended, emit);
  }
}

inline ReferenceChaseResult RunReferenceChase(
    World& world, const std::vector<Atom>& initial,
    const std::vector<Term>& head, const DependencySet& dependencies,
    int max_level, size_t max_atoms = 20'000) {
  ReferenceChaseResult r;
  r.head = head;
  auto find = [&](const Atom& atom) {
    for (size_t i = 0; i < r.atoms.size(); ++i) {
      if (r.atoms[i] == atom) return int(i);
    }
    return -1;
  };
  auto add = [&](const Atom& atom, int level) {
    if (find(atom) >= 0) return;
    r.atoms.push_back(atom);
    r.levels.push_back(level);
  };
  for (const Atom& atom : initial) add(atom, 0);

  // Definition 2(1): while an EGD body match equates two distinct terms,
  // fail on two constants, else replace the chase-order-larger one.
  auto egds_to_exhaustion = [&]() {
    for (;;) {
      std::vector<std::pair<Term, Term>> pairs;
      for (const Egd& egd : dependencies.egds) {
        MatchAll(egd.body, 0, r.atoms, {}, [&](const Binding& m) {
          Term x = Image(egd.left, m);
          Term y = Image(egd.right, m);
          if (x != y) pairs.push_back({x, y});
        });
      }
      if (pairs.empty()) return true;
      auto [x, y] = pairs.front();
      if (x.IsConstant() && y.IsConstant()) return false;
      if (world.PrecedesInChaseOrder(y, x)) std::swap(x, y);
      std::vector<Atom> atoms = std::move(r.atoms);
      std::vector<int> levels = std::move(r.levels);
      r.atoms.clear();
      r.levels.clear();
      for (size_t i = 0; i < atoms.size(); ++i) {
        Atom atom = Instantiate(atoms[i], {{y, x}});
        if (int j = find(atom); j >= 0) {
          r.levels[j] = std::min(r.levels[j], levels[i]);
        } else {
          add(atom, levels[i]);
        }
      }
      for (Term& t : r.head) t = t == y ? x : t;
    }
  };

  // Definition 2(2): the restricted TGD step.
  auto satisfied = [&](const Tgd& tgd, const Binding& match) {
    bool found = false;
    MatchAll({tgd.head}, 0, r.atoms, match,
             [&](const Binding&) { found = true; });
    return found;
  };

  for (bool cyclic : {false, true}) {
    for (;;) {
      if (!egds_to_exhaustion()) {
        r.failed = true;
        return r;
      }
      struct Trigger {
        const Tgd* tgd;
        Binding match;
        int level;
      };
      std::vector<Trigger> triggers;
      // Full TGDs first, then (in the cyclic phase) the existential ones.
      for (bool existential : {false, true}) {
        for (const Tgd& tgd : dependencies.tgds) {
          if (tgd.ExistentialVariables().empty() == existential) continue;
          if (existential && !cyclic) continue;
          MatchAll(tgd.body, 0, r.atoms, {}, [&](const Binding& m) {
            int level = 0;
            for (const Atom& atom : tgd.body) {
              level = std::max(level, r.levels[find(Instantiate(atom, m))]);
            }
            level = cyclic ? level + 1 : 0;
            if (level <= max_level && !satisfied(tgd, m)) {
              triggers.push_back({&tgd, m, level});
            }
          });
        }
      }
      bool fired = false;
      for (Trigger& t : triggers) {
        if (satisfied(*t.tgd, t.match)) continue;  // fired earlier this round
        for (Term v : t.tgd->ExistentialVariables()) {
          t.match[v] = world.MakeFreshNull();
        }
        add(Instantiate(t.tgd->head, t.match), t.level);
        fired = true;
        if (r.atoms.size() >= max_atoms) {
          r.truncated = true;
          return r;
        }
      }
      if (!fired) break;
    }
  }
  return r;
}

}  // namespace floq::reference

#endif  // FLOQ_TESTS_REFERENCE_CHASE_H_
