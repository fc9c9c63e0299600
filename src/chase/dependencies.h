#ifndef FLOQ_CHASE_DEPENDENCIES_H_
#define FLOQ_CHASE_DEPENDENCIES_H_

#include <string>
#include <string_view>
#include <vector>

#include "term/atom.h"
#include "term/world.h"
#include "util/status.h"

// User-supplied dependency sets: tuple-generating dependencies (possibly
// existential) and equality-generating dependencies, over any predicates.
// This generalizes Sigma_FL in the direction the paper's conclusion calls
// out ("finding a general class of queries ... for which our proof
// techniques still apply"): the chase of chase.h runs any such set —
// Sigma_FL itself is one (sigma_fl.h) — and weak acyclicity (Fagin et
// al.) certifies termination, making the Theorem-4 containment test
// complete for that class.
//
// Surface syntax (ParseDependencies): one dependency per statement,
// written rule-style like the paper writes Sigma_FL:
//
//   member(V, T) :- type(O, A, T), data(O, A, V).     % plain TGD
//   data(O, A, V) :- mandatory(A, O).                  % existential TGD
//                                                      %   (V not in body)
//   V = W :- data(O, A, V), data(O, A, W), funct(A, O).% EGD

namespace floq {

/// A single-head TGD. Head variables missing from the body are
/// existentially quantified: the chase invents a fresh null per variable
/// per application.
struct Tgd {
  Atom head;
  std::vector<Atom> body;
  std::string name;  // for diagnostics; defaults to "tgd<k>"

  /// Head variables that do not occur in the body.
  std::vector<Term> ExistentialVariables() const;
};

/// An EGD: body matches force left = right.
struct Egd {
  std::vector<Atom> body;
  Term left;
  Term right;
  std::string name;
};

struct DependencySet {
  std::vector<Tgd> tgds;
  std::vector<Egd> egds;

  bool empty() const { return tgds.empty() && egds.empty(); }
  size_t size() const { return tgds.size() + egds.size(); }
};

/// Parses a dependency program (syntax above). Every EGD's equated sides
/// must be variables occurring in its body.
Result<DependencySet> ParseDependencies(World& world, std::string_view text);

/// A node of the Fagin-et-al. dependency graph: a predicate position.
struct DependencyPosition {
  PredicateId pred = kInvalidPredicate;
  int index = 0;

  /// "data[2]".
  std::string ToString(const World& world) const;

  friend bool operator==(const DependencyPosition& a,
                         const DependencyPosition& b) {
    return a.pred == b.pred && a.index == b.index;
  }
};

/// A labeled edge of the dependency graph: some TGD copies (normal) or
/// feeds an invented value into (special) the target position from the
/// source position.
struct DependencyEdge {
  DependencyPosition from;
  DependencyPosition to;
  bool special = false;
  int tgd_index = -1;  // index into DependencySet::tgds

  /// "data[2] --tgd5*--> member[0]" ('*' marks a special edge).
  std::string ToString(const DependencySet& dependencies,
                       const World& world) const;
};

/// Weak acyclicity (Fagin, Kolaitis, Miller, Popa 2003) as a diagnostic:
/// the full labeled dependency graph plus, when the set is not weakly
/// acyclic, a witness cycle through at least one special edge
/// (witness[i].to == witness[i+1].from, and the last edge wraps to the
/// first). EGDs do not affect the test.
struct WeakAcyclicityResult {
  bool weakly_acyclic = true;
  std::vector<DependencyEdge> edges;
  std::vector<DependencyEdge> witness;
};

WeakAcyclicityResult AnalyzeWeakAcyclicity(const DependencySet& dependencies,
                                           const World& world);

/// Weak acyclicity verdict only: the chase of any instance under a weakly
/// acyclic TGD set terminates.
bool IsWeaklyAcyclic(const DependencySet& dependencies, const World& world);

}  // namespace floq

#endif  // FLOQ_CHASE_DEPENDENCIES_H_
