#include "chase/dependencies.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <set>
#include <tuple>

#include "query/parser.h"
#include "term/substitution.h"
#include "util/strings.h"

namespace floq {

std::vector<Term> Tgd::ExistentialVariables() const {
  auto in_body = [&](Term t) {
    for (const Atom& atom : body) {
      for (Term u : atom) {
        if (u == t) return true;
      }
    }
    return false;
  };
  std::vector<Term> existential;
  for (Term t : head) {
    if (t.IsVariable() && !in_body(t) &&
        std::find(existential.begin(), existential.end(), t) ==
            existential.end()) {
      existential.push_back(t);
    }
  }
  return existential;
}

namespace {

// Splits a dependency program into statements at '.' terminators,
// respecting single-quoted strings and the decimal-number ambiguity
// (digit '.' digit stays inside a statement).
std::vector<std::string> SplitStatements(std::string_view text) {
  std::vector<std::string> statements;
  std::string current;
  bool in_quote = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '%' && !in_quote) {
      while (i < text.size() && text[i] != '\n') ++i;
      current += ' ';
      continue;
    }
    if (c == '\'') in_quote = !in_quote;
    if (c == '.' && !in_quote) {
      bool digit_before = !current.empty() &&
                          std::isdigit(static_cast<unsigned char>(
                              current.back()));
      bool digit_after = i + 1 < text.size() &&
                         std::isdigit(static_cast<unsigned char>(text[i + 1]));
      if (!(digit_before && digit_after)) {
        if (!StripWhitespace(current).empty()) {
          statements.push_back(current);
        }
        current.clear();
        continue;
      }
    }
    current += c;
  }
  if (!StripWhitespace(current).empty()) statements.push_back(current);
  return statements;
}

// Recognizes "X = Y" heads. Returns true and the two identifiers if the
// text before ":-" is exactly that shape.
bool ParseEqualityHead(std::string_view head_text, std::string& left,
                       std::string& right) {
  size_t eq = head_text.find('=');
  if (eq == std::string_view::npos) return false;
  std::string_view lhs = StripWhitespace(head_text.substr(0, eq));
  std::string_view rhs = StripWhitespace(head_text.substr(eq + 1));
  auto is_identifier = [](std::string_view word) {
    if (word.empty()) return false;
    for (char c : word) {
      if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') {
        return false;
      }
    }
    return true;
  };
  if (!is_identifier(lhs) || !is_identifier(rhs)) return false;
  left = std::string(lhs);
  right = std::string(rhs);
  return true;
}

Term TermFromIdentifier(World& world, const std::string& name) {
  char first = name[0];
  if (std::isupper(static_cast<unsigned char>(first)) || first == '_') {
    return world.MakeVariable(name);
  }
  return world.MakeConstant(name);
}

}  // namespace

namespace {

// Dependency variables must never coincide with variables of chased
// queries (which act as values in the chase); rename them to reserved
// variables no parser can produce.
Substitution ReserveVariables(World& world, const std::vector<Atom>& atoms) {
  Substitution renaming;
  for (const Atom& atom : atoms) {
    for (Term t : atom) {
      if (t.IsVariable() && !renaming.Binds(t)) {
        renaming.Bind(t, world.MakeReservedVariable());
      }
    }
  }
  return renaming;
}

}  // namespace

Result<DependencySet> ParseDependencies(World& world, std::string_view text) {
  DependencySet dependencies;
  int counter = 0;
  for (const std::string& statement : SplitStatements(text)) {
    ++counter;
    size_t implies = statement.find(":-");
    if (implies == std::string::npos) {
      return InvalidArgumentError(
          StrCat("dependency ", counter, " has no ':-': ",
                 std::string(StripWhitespace(statement))));
    }
    std::string_view head_text =
        StripWhitespace(std::string_view(statement).substr(0, implies));
    std::string body_text = statement.substr(implies + 2);

    std::string left_name, right_name;
    if (ParseEqualityHead(head_text, left_name, right_name)) {
      Result<std::vector<Atom>> body = ParseAtoms(world, body_text);
      if (!body.ok()) return body.status();
      Egd egd;
      egd.body = std::move(body).value();
      egd.left = TermFromIdentifier(world, left_name);
      egd.right = TermFromIdentifier(world, right_name);
      egd.name = StrCat("egd", dependencies.egds.size() + 1);
      // Equated variables must occur in the body.
      for (Term side : {egd.left, egd.right}) {
        if (!side.IsVariable()) continue;
        bool found = false;
        for (const Atom& atom : egd.body) {
          for (Term t : atom) found |= t == side;
        }
        if (!found) {
          return InvalidArgumentError(
              StrCat("EGD ", counter, ": equated variable ",
                     world.NameOf(side), " does not occur in the body"));
        }
      }
      Substitution reserve = ReserveVariables(world, egd.body);
      egd.body = reserve.Apply(egd.body);
      egd.left = reserve.Apply(egd.left);
      egd.right = reserve.Apply(egd.right);
      dependencies.egds.push_back(std::move(egd));
      continue;
    }

    Result<ConjunctiveQuery> rule =
        ParseQueryAllowUnsafeHead(world, statement + ".");
    if (!rule.ok()) return rule.status();
    PredicateId pred = world.predicates().Intern(rule->name(),
                                                 int(rule->head().size()));
    if (pred == kInvalidPredicate) {
      return InvalidArgumentError(
          StrCat("dependency ", counter, ": head predicate ", rule->name(),
                 "/", rule->head().size(), " conflicts with another arity"));
    }
    Tgd tgd;
    tgd.head = Atom(pred, rule->head());
    tgd.body = rule->body();
    if (tgd.body.empty()) {
      return InvalidArgumentError(
          StrCat("dependency ", counter, " has an empty body"));
    }
    tgd.name = StrCat("tgd", dependencies.tgds.size() + 1);
    {
      std::vector<Atom> all = tgd.body;
      all.push_back(tgd.head);
      Substitution reserve = ReserveVariables(world, all);
      tgd.body = reserve.Apply(tgd.body);
      tgd.head = reserve.Apply(tgd.head);
    }
    dependencies.tgds.push_back(std::move(tgd));
  }
  return dependencies;
}

std::string DependencyPosition::ToString(const World& world) const {
  return StrCat(world.predicates().NameOf(pred), "[", index, "]");
}

std::string DependencyEdge::ToString(const DependencySet& dependencies,
                                     const World& world) const {
  std::string label =
      tgd_index >= 0 && size_t(tgd_index) < dependencies.tgds.size()
          ? dependencies.tgds[tgd_index].name
          : "?";
  return StrCat(from.ToString(world), " --", label, special ? "*" : "",
                "--> ", to.ToString(world));
}

WeakAcyclicityResult AnalyzeWeakAcyclicity(const DependencySet& dependencies,
                                           const World& world) {
  (void)world;
  WeakAcyclicityResult result;

  // Nodes: (predicate, position) pairs packed into one integer.
  auto key = [](const DependencyPosition& p) {
    return (uint64_t(p.pred) << 8) | uint64_t(p.index);
  };

  // Collect labeled edges in deterministic (TGD, body atom, position)
  // order, deduplicating repeats (the first generating TGD labels the
  // edge).
  std::set<std::tuple<uint64_t, uint64_t, bool>> seen;
  for (size_t ti = 0; ti < dependencies.tgds.size(); ++ti) {
    const Tgd& tgd = dependencies.tgds[ti];
    std::vector<Term> existential = tgd.ExistentialVariables();
    auto is_existential = [&](Term t) {
      for (Term e : existential) {
        if (e == t) return true;
      }
      return false;
    };
    for (const Atom& body_atom : tgd.body) {
      for (int i = 0; i < body_atom.arity(); ++i) {
        Term x = body_atom.arg(i);
        if (!x.IsVariable()) continue;
        DependencyPosition from{body_atom.predicate(), i};
        for (int j = 0; j < tgd.head.arity(); ++j) {
          Term h = tgd.head.arg(j);
          DependencyPosition to{tgd.head.predicate(), j};
          bool special;
          if (h == x) {
            special = false;  // x propagates
          } else if (h.IsVariable() && is_existential(h)) {
            special = true;  // x feeds an invented value
          } else {
            continue;
          }
          if (seen.insert({key(from), key(to), special}).second) {
            result.edges.push_back(
                DependencyEdge{from, to, special, int(ti)});
          }
        }
      }
    }
  }

  std::map<uint64_t, std::vector<size_t>> adjacency;
  for (size_t e = 0; e < result.edges.size(); ++e) {
    adjacency[key(result.edges[e].from)].push_back(e);
  }

  // Weak acyclicity fails iff some special edge (u, v) closes a cycle,
  // i.e. v reaches u over (normal ∪ special). BFS with incoming-edge
  // tracking reconstructs the v ->* u path for the witness.
  for (size_t se = 0; se < result.edges.size(); ++se) {
    if (!result.edges[se].special) continue;
    uint64_t start = key(result.edges[se].to);
    uint64_t goal = key(result.edges[se].from);

    if (start == goal) {  // special self-loop: a cycle of length one
      result.weakly_acyclic = false;
      result.witness = {result.edges[se]};
      return result;
    }

    std::map<uint64_t, size_t> incoming;  // node -> edge that reached it
    std::vector<uint64_t> frontier = {start};
    std::set<uint64_t> visited = {start};
    bool found = false;
    while (!frontier.empty() && !found) {
      std::vector<uint64_t> next_frontier;
      for (uint64_t node : frontier) {
        auto it = adjacency.find(node);
        if (it == adjacency.end()) continue;
        for (size_t e : it->second) {
          uint64_t to = key(result.edges[e].to);
          if (!visited.insert(to).second) continue;
          incoming[to] = e;
          if (to == goal) {
            found = true;
            break;
          }
          next_frontier.push_back(to);
        }
        if (found) break;
      }
      frontier = std::move(next_frontier);
    }
    if (!found) continue;

    // Witness: the special edge u -> v, then the path v ->* u.
    std::vector<DependencyEdge> path;
    for (uint64_t node = goal; node != start;) {
      size_t e = incoming.at(node);
      path.push_back(result.edges[e]);
      node = key(result.edges[e].from);
    }
    result.weakly_acyclic = false;
    result.witness.push_back(result.edges[se]);
    result.witness.insert(result.witness.end(), path.rbegin(), path.rend());
    return result;
  }
  return result;
}

bool IsWeaklyAcyclic(const DependencySet& dependencies, const World& world) {
  return AnalyzeWeakAcyclicity(dependencies, world).weakly_acyclic;
}

}  // namespace floq
