#include "analysis/query_lints.h"

#include <map>
#include <set>

#include "chase/chase.h"
#include "containment/minimize.h"
#include "term/predicate.h"
#include "util/strings.h"

namespace floq::analysis {

namespace {

SourceSpan SpanOf(const World& world, uint32_t span_id) {
  return world.spans().at(span_id);
}

SourceSpan AtomSpan(const World& world, const Atom& atom) {
  return SpanOf(world, atom.provenance());
}

// FLQ001: head variables missing from the body. The parsers normally
// reject these; the lenient entry points let them through so the linter
// can point at the exact head term.
void LintUnsafeHead(World& world, const ConjunctiveQuery& query,
                    std::vector<Diagnostic>& out) {
  std::set<uint32_t> body_vars;
  for (const Atom& atom : query.body()) {
    for (Term t : atom) {
      if (t.IsVariable()) body_vars.insert(t.raw());
    }
  }
  std::set<uint32_t> reported;
  for (size_t i = 0; i < query.head().size(); ++i) {
    Term t = query.head()[i];
    if (!t.IsVariable() || body_vars.count(t.raw()) != 0) continue;
    if (!reported.insert(t.raw()).second) continue;
    out.push_back(MakeDiagnostic(
        "FLQ001",
        StrCat("head variable ", world.NameOf(t),
               " does not occur in the body"),
        SpanOf(world, query.head_span(int(i)))));
  }
}

// FLQ002: a named variable occurring exactly once in the body and not
// projected by the head joins nothing — usually a typo. Anonymous
// variables (leading '_', including parser-generated _G fresh ones) are
// the idiom for "intentionally unused" and stay silent.
void LintSingletonVariables(World& world, const ConjunctiveQuery& query,
                            std::vector<Diagnostic>& out) {
  std::set<uint32_t> head_vars;
  for (Term t : query.head()) {
    if (t.IsVariable()) head_vars.insert(t.raw());
  }
  std::map<uint32_t, int> counts;
  std::map<uint32_t, const Atom*> first_atom;
  std::map<uint32_t, Term> terms;
  for (const Atom& atom : query.body()) {
    for (Term t : atom) {
      if (!t.IsVariable()) continue;
      ++counts[t.raw()];
      terms.emplace(t.raw(), t);
      first_atom.emplace(t.raw(), &atom);
    }
  }
  for (const auto& [raw, count] : counts) {
    if (count != 1 || head_vars.count(raw) != 0) continue;
    Term t = terms.at(raw);
    std::string name = world.NameOf(t);
    if (!name.empty() && name[0] == '_') continue;
    out.push_back(MakeDiagnostic(
        "FLQ002",
        StrCat("variable ", name,
               " occurs only once; use _ if this is intentional"),
        AtomSpan(world, *first_atom.at(raw))));
  }
}

// FLQ003: variable-disjoint body components multiply answer tuples
// (a cartesian product) — almost always a missing join.
void LintCartesianProduct(World& world, const ConjunctiveQuery& query,
                          std::vector<Diagnostic>& out) {
  const std::vector<std::vector<size_t>> components = BodyJoinComponents(query);
  if (components.size() < 2) return;
  const std::vector<Atom>& body = query.body();

  Diagnostic d = MakeDiagnostic(
      "FLQ003",
      StrCat("body splits into ", components.size(),
             " variable-disjoint components (cartesian product)"),
      SpanOf(world, query.span()));
  for (const std::vector<size_t>& atoms : components) {
    std::string note = "component:";
    for (size_t i : atoms) {
      note = StrCat(note, " ", body[i].ToString(world));
    }
    d.notes.push_back(std::move(note));
  }
  out.push_back(std::move(d));
}

// Positions of the six P_FL predicates that hold an attribute.
bool IsAttributePosition(PredicateId pred, int index) {
  return (pred == pfl::kData && index == 1) ||
         (pred == pfl::kType && index == 1) ||
         (pred == pfl::kMandatory && index == 0) ||
         (pfl::kFunct == pred && index == 0);
}

// FLQ004: one term playing both the attribute role and the object/class
// role across P_FL atoms. Legal (the domain is untyped) but almost
// always a swapped-argument mistake — mandatory/funct take the attribute
// FIRST, unlike data/type.
void LintPflRoleMisuse(World& world, const ConjunctiveQuery& query,
                       std::vector<Diagnostic>& out) {
  struct Roles {
    const Atom* attr_use = nullptr;
    int attr_pos = 0;
    const Atom* object_use = nullptr;
    int object_pos = 0;
  };
  std::map<uint32_t, Roles> roles;
  std::set<uint32_t> reported;
  for (const Atom& atom : query.body()) {
    PredicateId pred = atom.predicate();
    if (!pfl::IsPfl(pred)) continue;
    for (int i = 0; i < atom.arity(); ++i) {
      Term t = atom.arg(i);
      if (t.IsNull()) continue;
      Roles& r = roles[t.raw()];
      if (IsAttributePosition(pred, i)) {
        if (r.attr_use == nullptr) {
          r.attr_use = &atom;
          r.attr_pos = i;
        }
      } else if (r.object_use == nullptr) {
        r.object_use = &atom;
        r.object_pos = i;
      }
      if (r.attr_use != nullptr && r.object_use != nullptr &&
          reported.insert(t.raw()).second) {
        const PredicateTable& preds = world.predicates();
        Diagnostic d = MakeDiagnostic(
            "FLQ004",
            StrCat(world.NameOf(t), " is used both as an attribute (",
                   preds.NameOf(r.attr_use->predicate()), "[", r.attr_pos,
                   "]) and as an object/class (",
                   preds.NameOf(r.object_use->predicate()), "[", r.object_pos,
                   "])"),
            AtomSpan(world, atom));
        d.notes.push_back(StrCat("attribute use: ",
                                 r.attr_use->ToString(world)));
        d.notes.push_back(StrCat("object/class use: ",
                                 r.object_use->ToString(world)));
        out.push_back(std::move(d));
      }
    }
  }
}

// FLQ005: literally repeated body atoms. Harmless semantically, but they
// cost chase and homomorphism work and usually signal an editing slip.
void LintDuplicateAtoms(World& world, const ConjunctiveQuery& query,
                        std::vector<Diagnostic>& out) {
  const std::vector<Atom>& body = query.body();
  for (size_t i = 0; i < body.size(); ++i) {
    for (size_t j = 0; j < i; ++j) {
      if (!(body[j] == body[i])) continue;
      Diagnostic d = MakeDiagnostic(
          "FLQ005",
          StrCat("duplicate atom ", body[i].ToString(world)),
          AtomSpan(world, body[i]));
      SourceSpan first = AtomSpan(world, body[j]);
      if (first.known()) {
        d.notes.push_back(StrCat("first occurrence at ", first.ToString()));
      }
      out.push_back(std::move(d));
      break;
    }
  }
}

// FLQ006: a bounded chase probe. If the chase *fails* (rho_4 forces two
// distinct constants equal), Theorem 4's machinery says the query has no
// answer on any database satisfying Sigma_FL.
void LintUnsatisfiable(World& world, const ConjunctiveQuery& query,
                       const QueryLintOptions& options,
                       std::vector<Diagnostic>& out) {
  ChaseOptions chase_options;
  chase_options.max_level = options.chase_probe_max_level;
  chase_options.max_atoms = options.chase_probe_max_atoms;
  ExecGovernor governor = MakeChaseGovernor(options.budget);
  if (!options.budget.unlimited()) chase_options.governor = &governor;
  ChaseResult chase = ChaseQuery(world, query, chase_options);
  // An interrupted probe stays silent: failure was not demonstrated.
  if (!chase.failed()) return;
  out.push_back(MakeDiagnostic(
      "FLQ006",
      "unsatisfiable under Sigma_FL: a functional attribute (rho_4) forces "
      "two distinct constants to be equal, so the query has no answers on "
      "any legal database",
      SpanOf(world, query.span())));
}

// FLQ007: Sigma_FL-aware redundancy. MinimizeQuery drops atoms whose
// removal keeps the query equivalent under the constraints; each dropped
// atom is reported at its own span.
void LintRedundantAtoms(World& world, const ConjunctiveQuery& query,
                        const QueryLintOptions& options,
                        std::vector<Diagnostic>& out) {
  if (int(query.body().size()) > options.redundancy_max_atoms) return;
  ContainmentOptions containment;
  containment.max_chase_atoms = 200'000;
  // Budget trips inside MinimizeQuery surface as kUnknown containment
  // verdicts, which keep the candidate atom — silent, never wrong.
  containment.budget = options.budget;
  Result<ConjunctiveQuery> minimized =
      MinimizeQuery(world, query, containment);
  if (!minimized.ok()) return;  // stay silent, not wrong
  if (minimized->body().size() == query.body().size()) return;

  std::vector<bool> kept(query.body().size(), false);
  for (const Atom& atom : minimized->body()) {
    for (size_t i = 0; i < query.body().size(); ++i) {
      if (!kept[i] && query.body()[i] == atom) {
        kept[i] = true;
        break;
      }
    }
  }
  for (size_t i = 0; i < query.body().size(); ++i) {
    if (kept[i]) continue;
    out.push_back(MakeDiagnostic(
        "FLQ007",
        StrCat("atom ", query.body()[i].ToString(world),
               " is redundant under Sigma_FL; dropping it keeps the query "
               "equivalent"),
        AtomSpan(world, query.body()[i])));
  }
}

}  // namespace

std::vector<std::vector<size_t>> BodyJoinComponents(
    const ConjunctiveQuery& query) {
  const std::vector<Atom>& body = query.body();
  // Union-find over body atoms sharing a variable.
  std::vector<size_t> parent(body.size());
  for (size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  auto find = [&](size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::map<uint32_t, size_t> owner;  // variable -> first atom seen in
  std::vector<bool> has_variable(body.size(), false);
  for (size_t i = 0; i < body.size(); ++i) {
    for (Term t : body[i]) {
      if (!t.IsVariable()) continue;
      has_variable[i] = true;
      auto [it, inserted] = owner.emplace(t.raw(), i);
      if (!inserted) parent[find(i)] = find(it->second);
    }
  }
  // Ground atoms are membership conditions, not product factors.
  std::map<size_t, std::vector<size_t>> by_root;
  for (size_t i = 0; i < body.size(); ++i) {
    if (has_variable[i]) by_root[find(i)].push_back(i);
  }
  std::vector<std::vector<size_t>> components;
  components.reserve(by_root.size());
  for (auto& [root, atoms] : by_root) components.push_back(std::move(atoms));
  return components;
}

std::vector<Diagnostic> LintQuery(World& world, const ConjunctiveQuery& query,
                                  const QueryLintOptions& options) {
  std::vector<Diagnostic> out;
  LintUnsafeHead(world, query, out);
  LintSingletonVariables(world, query, out);
  LintCartesianProduct(world, query, out);
  LintPflRoleMisuse(world, query, out);
  LintDuplicateAtoms(world, query, out);

  // The semantic probes need a well-formed query (the chase freezes head
  // variables through the body); skip them when safety already failed.
  bool safe = query.Validate(world).ok();
  if (safe && options.chase_probe) {
    LintUnsatisfiable(world, query, options, out);
  }
  if (safe && options.redundancy && !HasErrors(out)) {
    LintRedundantAtoms(world, query, options, out);
  }
  return out;
}

}  // namespace floq::analysis
